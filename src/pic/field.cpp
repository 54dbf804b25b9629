#include "pic/field.hpp"

namespace dsmcpic::pic {

Vec3 efield_in_cell(const FineGrid& grid, std::int32_t fine_cell,
                    const TetSlots& slots, std::span<const double> phi_local) {
  const auto g = grid.basis_gradients(fine_cell);
  Vec3 e;
  for (int k = 0; k < 4; ++k) {
    const double phi = phi_local[static_cast<std::size_t>(slots[k])];
    e -= g[k] * phi;  // E = -grad(phi) = -sum phi_k grad(lambda_k)
  }
  return e;
}

}  // namespace dsmcpic::pic
