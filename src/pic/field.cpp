#include "pic/field.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dsmcpic::pic {

Vec3 efield_in_cell(const FineGrid& grid, std::int32_t fine_cell,
                    std::span<const std::int32_t> sorted_nodes,
                    std::span<const double> phi_local) {
  const auto g = grid.basis_gradients(fine_cell);
  const auto& nd = grid.fine().tet(fine_cell);
  Vec3 e;
  for (int k = 0; k < 4; ++k) {
    const auto it =
        std::lower_bound(sorted_nodes.begin(), sorted_nodes.end(), nd[k]);
    DSMCPIC_CHECK_MSG(it != sorted_nodes.end() && *it == nd[k],
                      "phi missing for node " << nd[k]);
    const double phi = phi_local[static_cast<std::size_t>(
        it - sorted_nodes.begin())];
    e -= g[k] * phi;  // E = -grad(phi) = -sum phi_k grad(lambda_k)
  }
  return e;
}

}  // namespace dsmcpic::pic
