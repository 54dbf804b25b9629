#include "pic/poisson.hpp"

#include "dsmc/species.hpp"
#include "pic/fine_grid.hpp"
#include "support/error.hpp"

namespace dsmcpic::pic {

PoissonSystem::PoissonSystem(const mesh::TetMesh& fine, PoissonBCs bcs) {
  num_nodes_ = fine.num_nodes();
  lumped_volume_.assign(static_cast<std::size_t>(num_nodes_), 0.0);
  dirichlet_.assign(static_cast<std::size_t>(num_nodes_), 0);
  dirichlet_value_.assign(static_cast<std::size_t>(num_nodes_), 0.0);

  // Dirichlet nodes: every node on an inlet or outlet boundary face.
  auto mark = [&](mesh::BoundaryKind kind, double value) {
    for (const auto& bf : fine.boundary_faces(kind)) {
      for (const std::int32_t n : fine.face_nodes(bf.tet, bf.face)) {
        dirichlet_[n] = 1;
        dirichlet_value_[n] = value;
      }
    }
  };
  mark(mesh::BoundaryKind::kInlet, bcs.phi_inlet);
  mark(mesh::BoundaryKind::kOutlet, bcs.phi_outlet);
  bool any_dirichlet = false;
  for (const auto d : dirichlet_) any_dirichlet |= (d != 0);
  DSMCPIC_CHECK_MSG(any_dirichlet,
                    "Poisson system needs at least one Dirichlet node "
                    "(was the fine mesh boundary classified?)");

  // Element stiffness: Ke_ij = grad(lambda_i) . grad(lambda_j) * V_e.
  std::vector<linalg::Triplet> trips;
  trips.reserve(static_cast<std::size_t>(fine.num_tets()) * 16);
  for (std::int32_t t = 0; t < fine.num_tets(); ++t) {
    const auto& nd = fine.tet(t);
    const double vol = fine.volume(t);
    for (const std::int32_t n : nd)
      lumped_volume_[n] += vol * 0.25;

    // Basis gradients (same formula as FineGrid::basis_gradients; recomputed
    // here so PoissonSystem depends only on the mesh).
    std::array<Vec3, 4> g;
    for (int i = 0; i < 4; ++i) {
      const Vec3& pi = fine.node(nd[i]);
      const Vec3& p1 = fine.node(nd[(i + 1) & 3]);
      const Vec3& p2 = fine.node(nd[(i + 2) & 3]);
      const Vec3& p3 = fine.node(nd[(i + 3) & 3]);
      const Vec3 raw = cross(p2 - p1, p3 - p1);
      const double s = dot(raw, pi - p1);
      DSMCPIC_CHECK_MSG(s != 0.0, "degenerate tet " << t);
      g[i] = raw / s;
    }
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
        trips.push_back({nd[i], nd[j], dot(g[i], g[j]) * vol});
  }
  const linalg::CsrMatrix full =
      linalg::CsrMatrix::from_triplets(num_nodes_, num_nodes_, trips);

  // Symmetric Dirichlet elimination:
  //   free row i:   keep K_ij for free j;  bc_rhs_i = -sum_d K_id * phi_d
  //   dirichlet d:  identity row, rhs = phi_d.
  bc_rhs_.assign(static_cast<std::size_t>(num_nodes_), 0.0);
  std::vector<linalg::Triplet> reduced;
  reduced.reserve(trips.size());
  const auto& rp = full.row_ptr();
  const auto& ci = full.col_idx();
  const auto& vals = full.values();
  for (std::int32_t i = 0; i < num_nodes_; ++i) {
    if (dirichlet_[i]) {
      reduced.push_back({i, i, 1.0});
      continue;
    }
    for (std::int64_t e = rp[i]; e < rp[i + 1]; ++e) {
      const std::int32_t j = ci[static_cast<std::size_t>(e)];
      const double v = vals[static_cast<std::size_t>(e)];
      if (dirichlet_[j])
        bc_rhs_[i] -= v * dirichlet_value_[j];
      else
        reduced.push_back({i, j, v});
    }
  }
  k_ = linalg::CsrMatrix::from_triplets(num_nodes_, num_nodes_, reduced);
}

std::vector<double> PoissonSystem::rhs(std::span<const double> node_charge) const {
  DSMCPIC_CHECK(static_cast<std::int32_t>(node_charge.size()) == num_nodes_);
  std::vector<double> b(static_cast<std::size_t>(num_nodes_));
  for (std::int32_t i = 0; i < num_nodes_; ++i) b[i] = rhs_at(i, node_charge[i]);
  return b;
}

double PoissonSystem::rhs_at(std::int32_t node, double node_charge) const {
  DSMCPIC_CHECK(node >= 0 && node < num_nodes_);
  if (dirichlet_[node]) return dirichlet_value_[node];
  // Weak form with lumped mass: b_i = (rho_i/eps0) V_i = charge_i/eps0.
  return node_charge / dsmc::constants::kEpsilon0 + bc_rhs_[node];
}

}  // namespace dsmcpic::pic
