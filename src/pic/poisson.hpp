#pragma once
// Electrostatic Poisson problem on the fine PIC grid (paper Sec. III-C):
//   -lap(phi) = rho / eps0
// discretized with linear finite elements on tetrahedra, producing the
// sparse symmetric positive definite stiffness system K phi = b of Eq. (5).
// (The paper calls K "diagonally dominant"; exact dominance requires a
// well-centered mesh — Kuhn tets give a few positive off-diagonals, but K
// stays SPD, which is all CG needs.) Dirichlet boundaries (inlet at
// phi_inlet, outlet grounded) are eliminated symmetrically; walls are
// natural (Neumann) boundaries.

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/csr.hpp"
#include "mesh/tetmesh.hpp"

namespace dsmcpic::pic {

struct PoissonBCs {
  double phi_inlet = 100.0;  // V
  double phi_outlet = 0.0;   // V
};

class PoissonSystem {
 public:
  /// `fine` must have its boundary classified (inlet/outlet/wall).
  PoissonSystem(const mesh::TetMesh& fine, PoissonBCs bcs);

  std::int32_t num_nodes() const { return num_nodes_; }

  /// Stiffness matrix with Dirichlet rows/columns eliminated (identity rows
  /// at constrained nodes); symmetric positive definite.
  const linalg::CsrMatrix& matrix() const { return k_; }

  /// Lumped nodal volume (1/4 of each adjacent tet).
  std::span<const double> lumped_volume() const { return lumped_volume_; }

  std::span<const std::uint8_t> is_dirichlet() const { return dirichlet_; }
  std::span<const double> dirichlet_value() const { return dirichlet_value_; }

  /// Builds the right-hand side from accumulated nodal charge [C·sim-scale]:
  /// free nodes get charge/eps0 plus the (precomputed) Dirichlet coupling;
  /// Dirichlet nodes get their boundary value.
  std::vector<double> rhs(std::span<const double> node_charge) const;

  /// Single-node RHS value (the distributed path builds per-rank RHS
  /// segments from owned nodes only).
  double rhs_at(std::int32_t node, double node_charge) const;

 private:
  std::int32_t num_nodes_ = 0;
  linalg::CsrMatrix k_;
  std::vector<double> lumped_volume_;
  std::vector<std::uint8_t> dirichlet_;
  std::vector<double> dirichlet_value_;
  std::vector<double> bc_rhs_;  // -K_fd * phi_d contribution to free rows
};

}  // namespace dsmcpic::pic
