#include <gtest/gtest.h>

#include <cmath>

#include "cell_index_reference.hpp"
#include "dsmc/species.hpp"
#include "linalg/krylov.hpp"
#include "mesh/nozzle.hpp"
#include "mesh/refine.hpp"
#include "par/runtime.hpp"
#include "pic/boris.hpp"
#include "pic/deposit.hpp"
#include "pic/field.hpp"
#include "pic/fine_grid.hpp"
#include "pic/node_exchange.hpp"
#include "pic/poisson.hpp"
#include "support/error.hpp"
#include "support/kernel_exec.hpp"
#include "support/rng.hpp"

namespace dsmcpic::pic {
namespace {

struct Meshes {
  mesh::TetMesh coarse;
  mesh::RefinedMesh refined;
  mesh::NozzleSpec spec;
};

Meshes make_meshes(int n = 3, int nz = 6) {
  Meshes m;
  m.spec.radius = 0.01;
  m.spec.length = 0.05;
  m.spec.radial_divisions = n;
  m.spec.axial_divisions = nz;
  m.coarse = mesh::make_cylinder_nozzle(m.spec);
  m.refined = mesh::red_refine(m.coarse, mesh::nozzle_classifier(m.spec));
  return m;
}

TEST(FineGrid, LocateFindsNestedChild) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const auto t = static_cast<std::int32_t>(
        rng.uniform_index(static_cast<std::uint64_t>(m.coarse.num_tets())));
    const Vec3 p = m.coarse.centroid(t) * 0.3 +
                   m.coarse.node(m.coarse.tet(t)[0]) * 0.7;
    const std::int32_t fc = fg.locate(t, p);
    ASSERT_GE(fc, 0);
    EXPECT_EQ(fg.parent_of(fc), t);
    EXPECT_TRUE(m.refined.mesh.contains(fc, p, 1e-9));
  }
}

TEST(FineGrid, BasisGradientsReproduceLinearFunction) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  // f(x) = 2x - 3y + 5z: sum_i f(node_i) grad(lambda_i) must equal grad f.
  const Vec3 grad_f{2, -3, 5};
  for (std::int32_t fc = 0; fc < 40; ++fc) {
    const auto g = fg.basis_gradients(fc);
    Vec3 acc;
    Vec3 sum_g;
    for (int k = 0; k < 4; ++k) {
      const Vec3& p = m.refined.mesh.node(m.refined.mesh.tet(fc)[k]);
      acc += g[k] * (2 * p.x - 3 * p.y + 5 * p.z);
      sum_g += g[k];
    }
    EXPECT_NEAR((acc - grad_f).norm(), 0.0, 1e-6);
    EXPECT_NEAR(sum_g.norm(), 0.0, 1e-7);  // partition of unity
  }
}

TEST(Poisson, MatrixIsSymmetricSpd) {
  const Meshes m = make_meshes();
  const PoissonSystem sys(m.refined.mesh, {});
  const linalg::CsrMatrix& k = sys.matrix();
  // Positive diagonal everywhere (Dirichlet rows are identity).
  for (double d : k.diagonal()) EXPECT_GT(d, 0.0);
  // Spot-check symmetry.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto r = static_cast<std::int32_t>(
        rng.uniform_index(static_cast<std::uint64_t>(k.rows())));
    const auto c = static_cast<std::int32_t>(
        rng.uniform_index(static_cast<std::uint64_t>(k.cols())));
    EXPECT_NEAR(k.at(r, c), k.at(c, r), 1e-12 * (std::abs(k.at(r, c)) + 1));
  }
  // SPD spot-check: x^T K x > 0 for random nonzero x.
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x(k.rows()), y(k.rows());
    for (auto& v : x) v = rng.uniform(-1, 1);
    k.matvec(x, y);
    double xkx = 0.0;
    for (std::int32_t i = 0; i < k.rows(); ++i) xkx += x[i] * y[i];
    EXPECT_GT(xkx, 0.0);
  }
}

TEST(Poisson, LaplaceSolutionObeysMaxPrinciple) {
  const Meshes m = make_meshes();
  PoissonBCs bcs;
  bcs.phi_inlet = 100.0;
  bcs.phi_outlet = 0.0;
  const PoissonSystem sys(m.refined.mesh, bcs);
  const std::vector<double> charge(sys.num_nodes(), 0.0);
  const std::vector<double> b = sys.rhs(charge);
  std::vector<double> phi(sys.num_nodes(), 0.0);
  const auto res = linalg::cg(sys.matrix(), b, phi,
                              {.rel_tol = 1e-10, .max_iterations = 2000});
  ASSERT_TRUE(res.converged);
  for (std::int32_t n = 0; n < sys.num_nodes(); ++n) {
    EXPECT_GE(phi[n], -1e-6);
    EXPECT_LE(phi[n], 100.0 + 1e-6);
    if (sys.is_dirichlet()[n]) {
      EXPECT_NEAR(phi[n], sys.dirichlet_value()[n], 1e-6);
    }
  }
  // The potential decays along the axis away from the inlet.
  const FineGrid fg(m.coarse, m.refined);
  auto phi_at = [&](double z) {
    const std::int32_t cc = m.coarse.locate({0, 0, z}, 0);
    const std::int32_t fc = fg.locate(cc, {0, 0, z});
    const auto w = m.refined.mesh.barycentric(fc, {0, 0, z});
    double v = 0.0;
    for (int k = 0; k < 4; ++k) v += w[k] * phi[m.refined.mesh.tet(fc)[k]];
    return v;
  };
  EXPECT_GT(phi_at(0.005), phi_at(0.025));
  EXPECT_GT(phi_at(0.025), phi_at(0.045));
}

TEST(Poisson, PointChargeRaisesLocalPotential) {
  const Meshes m = make_meshes();
  PoissonBCs bcs;
  bcs.phi_inlet = 0.0;
  bcs.phi_outlet = 0.0;
  const PoissonSystem sys(m.refined.mesh, bcs);
  std::vector<double> charge(sys.num_nodes(), 0.0);
  // Positive charge at an interior node.
  std::int32_t interior = -1;
  for (std::int32_t n = 0; n < sys.num_nodes(); ++n)
    if (!sys.is_dirichlet()[n] && sys.lumped_volume()[n] > 0) {
      interior = n;
      break;
    }
  ASSERT_GE(interior, 0);
  charge[interior] = 1e-12;  // coulombs
  const std::vector<double> b = sys.rhs(charge);
  std::vector<double> phi(sys.num_nodes(), 0.0);
  ASSERT_TRUE(linalg::cg(sys.matrix(), b, phi,
                         {.rel_tol = 1e-10, .max_iterations = 2000})
                  .converged);
  EXPECT_GT(phi[interior], 0.0);
  double mx = 0.0;
  std::int32_t argmax = -1;
  for (std::int32_t n = 0; n < sys.num_nodes(); ++n)
    if (phi[n] > mx) {
      mx = phi[n];
      argmax = n;
    }
  EXPECT_EQ(argmax, interior);  // peak at the charge
}

TEST(Deposit, TotalChargeConserved) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  dsmc::SpeciesTable table = dsmc::SpeciesTable::hydrogen(1e12, 500.0);
  dsmc::ParticleStore store;
  Rng rng(9);
  int placed = 0;
  for (int i = 0; i < 100; ++i) {
    const double r = 0.7 * m.spec.radius * std::sqrt(rng.uniform());
    const double th = 2 * M_PI * rng.uniform();
    const Vec3 p{r * std::cos(th), r * std::sin(th),
                 m.spec.length * (0.1 + 0.8 * rng.uniform())};
    const std::int32_t cc = m.coarse.locate(p, 0);
    if (cc < 0) continue;
    dsmc::ParticleRecord rec;
    rec.position = p;
    rec.cell = cc;
    rec.species = (i % 2) ? dsmc::kSpeciesHPlus : dsmc::kSpeciesH;
    store.add(rec);
    if (i % 2) ++placed;
  }
  ASSERT_GT(placed, 20);
  // Single-rank node set = all nodes.
  std::vector<std::int32_t> all_nodes(m.refined.mesh.num_nodes());
  for (std::int32_t n = 0; n < m.refined.mesh.num_nodes(); ++n)
    all_nodes[n] = n;
  std::vector<double> node_charge(all_nodes.size(), 0.0);
  const DepositStats st =
      deposit_charge(store, fg, table, all_nodes, {}, node_charge);
  EXPECT_EQ(st.deposited, placed);
  EXPECT_EQ(st.lost, 0);
  double total = 0.0;
  for (double q : node_charge) total += q;
  const double expected =
      placed * dsmc::constants::kElementaryCharge * 500.0;
  EXPECT_NEAR(total, expected, 1e-9 * expected);
}

// The blocked parallel deposit (DESIGN.md §2g): above the candidate-count
// cutoff the kernel scatters into fixed per-block buffers and reduces them
// in ascending block order — the node charges must be bit-identical to the
// serial single-pass scatter, for any lane count. This is the only test
// that drives the blocked path with real kernel lanes (the solver-level
// determinism suite stays below the cutoff), so it is also the TSan probe
// for the deposit's phase-A/phase-B threading.
TEST(Deposit, BlockedParallelMatchesSerialBitwise) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  dsmc::SpeciesTable table = dsmc::SpeciesTable::hydrogen(1e12, 500.0);
  dsmc::ParticleStore store;
  Rng rng(31);
  // Well above kDepositBlockCutoff (4096) so the blocked path engages.
  while (store.size() < 6000) {
    const double r = 0.7 * m.spec.radius * std::sqrt(rng.uniform());
    const double th = 2 * M_PI * rng.uniform();
    const Vec3 p{r * std::cos(th), r * std::sin(th),
                 m.spec.length * (0.1 + 0.8 * rng.uniform())};
    const std::int32_t cc = m.coarse.locate(p, 0);
    if (cc < 0) continue;
    dsmc::ParticleRecord rec;
    rec.position = p;
    rec.cell = cc;
    rec.id = static_cast<std::int64_t>(store.size());
    rec.species = (store.size() % 4) ? dsmc::kSpeciesHPlus : dsmc::kSpeciesH;
    store.add(rec);
  }
  std::vector<std::int32_t> all_nodes(m.refined.mesh.num_nodes());
  for (std::int32_t n = 0; n < m.refined.mesh.num_nodes(); ++n)
    all_nodes[n] = n;

  std::vector<double> serial(all_nodes.size(), 0.0);
  const DepositStats st0 =
      deposit_charge(store, fg, table, all_nodes, {}, serial);
  EXPECT_GT(st0.deposited, 4096);

  for (const int lanes : {2, 4}) {
    const support::KernelExec exec(lanes);
    DepositScratch scratch;
    std::vector<double> parallel(all_nodes.size(), 0.0);
    const DepositStats st = deposit_charge(store, fg, table, all_nodes, {},
                                           parallel, &exec, &scratch);
    EXPECT_EQ(st.deposited, st0.deposited);
    EXPECT_EQ(st.lost, st0.lost);
    EXPECT_EQ(parallel, serial) << "lanes=" << lanes;
  }
}

// The rank-local traversal (dsmc::CellIndex over the candidates) against
// the global-mesh counting sort in cell_index_reference.hpp: the same
// candidate order, hence bit-identical node charges, on stores whose ids
// disagree with slot order and whose removal flags skip some candidates —
// below the block cutoff (one pass) and above it (16 blocks), at kernel
// lanes 1, 2 and 4.
TEST(Deposit, MatchesReferenceTraversalBitwise) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  const dsmc::SpeciesTable table = dsmc::SpeciesTable::hydrogen(1e12, 500.0);
  std::vector<std::int32_t> all_nodes(m.refined.mesh.num_nodes());
  for (std::int32_t n = 0; n < m.refined.mesh.num_nodes(); ++n)
    all_nodes[n] = n;
  for (const std::size_t n : {900u, 7000u}) {
    dsmc::ParticleStore store;
    Rng rng(n);
    while (store.size() < n) {
      const double r = 0.7 * m.spec.radius * std::sqrt(rng.uniform());
      const double th = 2 * M_PI * rng.uniform();
      const Vec3 p{r * std::cos(th), r * std::sin(th),
                   m.spec.length * (0.1 + 0.8 * rng.uniform())};
      const std::int32_t cc = m.coarse.locate(p, 0);
      if (cc < 0) continue;
      dsmc::ParticleRecord rec;
      rec.position = p;
      rec.cell = cc;
      rec.id = static_cast<std::int64_t>(rng.next_u64() % 5000);
      rec.species = (store.size() % 5) ? dsmc::kSpeciesHPlus : dsmc::kSpeciesH;
      store.add(rec);
    }
    std::vector<std::uint8_t> removed(store.size(), 0);
    for (std::size_t i = 0; i < store.size(); i += 7) removed[i] = 1;

    std::vector<double> want(all_nodes.size(), 0.0);
    const DepositStats st0 = reference::deposit_charge(store, fg, table,
                                                       all_nodes, removed, want);
    const std::vector<std::int32_t> order = reference::deposit_order(
        store, table, removed, m.coarse.num_tets());
    for (const int lanes : {1, 2, 4}) {
      const support::KernelExec exec(lanes);
      DepositScratch scratch;
      std::vector<double> got(all_nodes.size(), 0.0);
      const DepositStats st = deposit_charge(store, fg, table, all_nodes,
                                             removed, got, &exec, &scratch);
      const auto items = scratch.order.items();
      EXPECT_EQ(std::vector<std::int32_t>(items.begin(), items.end()), order)
          << "n=" << n << " lanes=" << lanes;
      EXPECT_EQ(st.deposited, st0.deposited);
      EXPECT_EQ(st.lost, st0.lost);
      EXPECT_EQ(got, want) << "n=" << n << " lanes=" << lanes;
    }
  }
}

TEST(Deposit, ShortRemovedSpanThrows) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  const dsmc::SpeciesTable table = dsmc::SpeciesTable::hydrogen(1e12, 500.0);
  dsmc::ParticleStore store;
  for (int i = 0; i < 4; ++i) {
    dsmc::ParticleRecord rec;
    rec.position = m.coarse.centroid(0);
    rec.cell = 0;
    rec.species = dsmc::kSpeciesHPlus;
    store.add(rec);
  }
  std::vector<std::int32_t> all_nodes(m.refined.mesh.num_nodes());
  for (std::int32_t n = 0; n < m.refined.mesh.num_nodes(); ++n)
    all_nodes[n] = n;
  std::vector<double> node_charge(all_nodes.size(), 0.0);
  const std::vector<std::uint8_t> removed(store.size() - 1, 0);
  EXPECT_THROW(
      deposit_charge(store, fg, table, all_nodes, removed, node_charge), Error);
}

TEST(Field, LinearPotentialGivesConstantField) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  // phi = 7z  ->  E = (0, 0, -7). With the identity node list, phi is
  // indexed by global node id.
  std::vector<std::int32_t> all_nodes(m.refined.mesh.num_nodes());
  std::vector<double> phi(m.refined.mesh.num_nodes());
  for (std::int32_t n = 0; n < m.refined.mesh.num_nodes(); ++n) {
    all_nodes[n] = n;
    phi[n] = 7.0 * m.refined.mesh.node(n).z;
  }
  for (std::int32_t fc = 0; fc < 50; ++fc) {
    const Vec3 e = efield_in_cell(fg, fc, all_nodes, phi);
    EXPECT_NEAR(e.x, 0.0, 1e-8);
    EXPECT_NEAR(e.y, 0.0, 1e-8);
    EXPECT_NEAR(e.z, -7.0, 1e-6);
  }
}

TEST(Boris, ElectrostaticPushMatchesAnalytic) {
  const Vec3 v0{100, 0, 0};
  const Vec3 e{0, 0, 1000};
  const double qm = dsmc::constants::kElementaryCharge /
                    dsmc::constants::kHydrogenMass;
  const double dt = 1e-8;
  const Vec3 v1 = boris_push(v0, e, {}, qm, dt);
  EXPECT_NEAR(v1.x, 100.0, 1e-9);
  EXPECT_NEAR(v1.z, qm * 1000 * dt, 1e-9 * qm * 1000 * dt);
}

TEST(Boris, MagneticRotationPreservesSpeed) {
  const Vec3 v0{1e4, 0, 0};
  const Vec3 b{0, 0, 0.1};
  const double qm = dsmc::constants::kElementaryCharge /
                    dsmc::constants::kHydrogenMass;
  Vec3 v = v0;
  for (int i = 0; i < 100; ++i) v = boris_push(v, {}, b, qm, 1e-9);
  EXPECT_NEAR(v.norm(), v0.norm(), 1e-9 * v0.norm());
  // It must actually rotate.
  EXPECT_GT(std::abs(v.y), 1.0);
}

TEST(NodeExchange, OwnersAndSetsCoverEverything) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  const int nranks = 3;
  std::vector<std::int32_t> owner(m.coarse.num_tets());
  for (std::int32_t c = 0; c < m.coarse.num_tets(); ++c)
    owner[c] = c % nranks;
  const NodeExchange nx(fg, owner, nranks);
  // Every node has a valid owner and appears in the owner's set.
  for (std::int32_t n = 0; n < m.refined.mesh.num_nodes(); ++n) {
    const int o = nx.node_owner()[n];
    ASSERT_GE(o, 0);
    ASSERT_LT(o, nranks);
    EXPECT_GE(nx.local_index(o, n), 0);
  }
}

TEST(NodeExchange, ReduceThenBroadcastSumsShares) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  const int nranks = 4;
  std::vector<std::int32_t> owner(m.coarse.num_tets());
  for (std::int32_t c = 0; c < m.coarse.num_tets(); ++c)
    owner[c] = c % nranks;
  const NodeExchange nx(fg, owner, nranks);
  par::Runtime rt(nranks,
                  par::Topology(par::MachineProfile::tianhe2(), nranks));

  // Every rank contributes 1.0 to each of its nodes; after reduce+broadcast
  // each node's value must equal the number of ranks touching it.
  auto values = nx.make_values();
  for (int r = 0; r < nranks; ++r)
    std::fill(values[r].begin(), values[r].end(), 1.0);
  nx.reduce_to_owners(rt, "reduce", values);
  nx.broadcast_from_owners(rt, "bcast", values);

  std::vector<int> touching(m.refined.mesh.num_nodes(), 0);
  for (int r = 0; r < nranks; ++r)
    for (const std::int32_t n : nx.rank_nodes(r)) ++touching[n];
  for (int r = 0; r < nranks; ++r) {
    const auto& nodes = nx.rank_nodes(r);
    for (std::size_t i = 0; i < nodes.size(); ++i)
      EXPECT_DOUBLE_EQ(values[r][i], static_cast<double>(touching[nodes[i]]))
          << "rank " << r << " node " << nodes[i];
  }
}

}  // namespace
}  // namespace dsmcpic::pic
