#include "pic/fine_grid.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dsmcpic::pic {

std::int32_t FineGrid::locate(std::int32_t coarse_cell, const Vec3& p) const {
  DSMCPIC_CHECK(coarse_cell >= 0 && coarse_cell < coarse_->num_tets());
  const std::int32_t base = first_child(coarse_cell);
  // The 8 children tile the parent exactly; a point in the parent is in one
  // of them (ties on internal faces resolved by the first match).
  for (int k = 0; k < 8; ++k)
    if (fine_->contains(base + k, p, 1e-9)) return base + k;
  // Floating-point edge case near the parent boundary: walk on the fine mesh.
  return fine_->locate(p, base);
}

std::array<Vec3, 4> FineGrid::basis_gradients(std::int32_t fine_cell) const {
  const auto& t = fine_->tet(fine_cell);
  std::array<Vec3, 4> g;
  for (int i = 0; i < 4; ++i) {
    const Vec3& pi = fine_->node(t[i]);
    const Vec3& p1 = fine_->node(t[(i + 1) & 3]);
    const Vec3& p2 = fine_->node(t[(i + 2) & 3]);
    const Vec3& p3 = fine_->node(t[(i + 3) & 3]);
    // Normal of the opposite face, normalized so grad(lambda_i) . (pi - p1)
    // equals lambda_i(pi) - lambda_i(p1) = 1.
    const Vec3 raw = cross(p2 - p1, p3 - p1);
    const double s = dot(raw, pi - p1);
    DSMCPIC_CHECK_MSG(s != 0.0, "degenerate fine tet " << fine_cell);
    g[i] = raw / s;
  }
  return g;
}

TetSlots FineGrid::find_slots(std::int32_t fine_cell,
                              std::span<const std::int32_t> sorted_nodes) const {
  const auto& nd = fine_->tet(fine_cell);
  TetSlots slots;
  for (int k = 0; k < 4; ++k) {
    const auto it =
        std::lower_bound(sorted_nodes.begin(), sorted_nodes.end(), nd[k]);
    DSMCPIC_CHECK_MSG(it != sorted_nodes.end() && *it == nd[k],
                      "fine node " << nd[k] << " missing from the rank node set");
    slots[k] = static_cast<std::int32_t>(it - sorted_nodes.begin());
  }
  return slots;
}

}  // namespace dsmcpic::pic
