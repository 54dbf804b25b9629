#pragma once
// Electric field evaluation: E = -grad(phi) is constant per fine tet under
// linear FEM (paper Eq. 3); evaluated on demand at particle locations.

#include <cstdint>
#include <span>

#include "pic/fine_grid.hpp"

namespace dsmcpic::pic {

/// E inside `fine_cell`, from nodal potentials stored compactly: `phi_local`
/// is indexed like one rank's ascending node list, and `slots` are the
/// cell's four nodes in that list (NodeExchange::tet_slots, or
/// FineGrid::find_slots for an arbitrary list).
Vec3 efield_in_cell(const FineGrid& grid, std::int32_t fine_cell,
                    const TetSlots& slots, std::span<const double> phi_local);

}  // namespace dsmcpic::pic
