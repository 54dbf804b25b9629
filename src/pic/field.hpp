#pragma once
// Electric field evaluation: E = -grad(phi) is constant per fine tet under
// linear FEM (paper Eq. 3); evaluated on demand at particle locations.

#include <cstdint>
#include <span>

#include "pic/fine_grid.hpp"

namespace dsmcpic::pic {

/// E inside `fine_cell`, from nodal potentials stored compactly:
/// `phi_local` is indexed like `sorted_nodes` (ascending global fine-node
/// ids). All four cell nodes must be present in the set.
Vec3 efield_in_cell(const FineGrid& grid, std::int32_t fine_cell,
                    std::span<const std::int32_t> sorted_nodes,
                    std::span<const double> phi_local);

}  // namespace dsmcpic::pic
