#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "cell_index_reference.hpp"
#include "core/case_geometry.hpp"
#include "core/datasets.hpp"
#include "dsmc/species.hpp"
#include "linalg/krylov.hpp"
#include "mesh/nozzle.hpp"
#include "mesh/refine.hpp"
#include "node_exchange_reference.hpp"
#include "par/runtime.hpp"
#include "partition/partitioner.hpp"
#include "pic/boris.hpp"
#include "pic/deposit.hpp"
#include "pic/field.hpp"
#include "pic/fine_grid.hpp"
#include "pic/node_exchange.hpp"
#include "pic/poisson.hpp"
#include "support/error.hpp"
#include "support/kernel_exec.hpp"
#include "support/rng.hpp"
#include "trace/recorder.hpp"

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
    const Vec3 e = efield_in_cell(fg, fc, fg.find_slots(fc, all_nodes), phi);
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

// ---- Per-layout node-slot tables (DESIGN.md §2g) ---------------------------

/// Dataset 2's meshes split across 24 ranks the way the solver splits them
/// (unweighted k-way partition of the coarse cells), with the node exchange
/// of that layout. Built once.
struct Dataset2Layout {
  static constexpr int kRanks = 24;
  std::shared_ptr<const core::CaseGeometry> geom;
  std::unique_ptr<FineGrid> grid;
  std::vector<std::int32_t> owner;
  std::unique_ptr<NodeExchange> nodes;
};

const Dataset2Layout& dataset2_layout() {
  static const Dataset2Layout layout = [] {
    Dataset2Layout l;
    l.geom = core::CaseGeometry::build(core::make_dataset(2).config.nozzle);
    l.grid = std::make_unique<FineGrid>(l.geom->coarse, l.geom->refined);
    partition::Graph dual;
    l.geom->coarse.dual_graph(dual.xadj, dual.adjncy);
    l.owner = partition::part_graph_kway(dual, Dataset2Layout::kRanks, {}).part;
    l.nodes = std::make_unique<NodeExchange>(*l.grid, l.owner,
                                             Dataset2Layout::kRanks);
    return l;
  }();
  return layout;
}

/// The gather as it was before the slot tables: a binary search in the
/// rank's node list per node, then the same arithmetic.
Vec3 efield_by_search(const FineGrid& grid, std::int32_t fc,
                      std::span<const std::int32_t> sorted_nodes,
                      std::span<const double> phi_local) {
  const auto g = grid.basis_gradients(fc);
  const auto& nd = grid.fine().tet(fc);
  Vec3 e;
  for (int k = 0; k < 4; ++k) {
    const auto it =
        std::lower_bound(sorted_nodes.begin(), sorted_nodes.end(), nd[k]);
    DSMCPIC_CHECK_MSG(it != sorted_nodes.end() && *it == nd[k],
                      "phi missing for node " << nd[k]);
    e -= g[k] * phi_local[static_cast<std::size_t>(it - sorted_nodes.begin())];
  }
  return e;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(const Vec3& a, const Vec3& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.z, b.z);
}
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) { return same_bits(x, y); });
}

/// Per-rank potentials, random, indexed like each rank's node list.
std::vector<std::vector<double>> random_phi(const NodeExchange& nx,
                                            std::uint64_t seed) {
  auto phi = nx.make_values();
  Rng rng(seed);
  for (auto& v : phi)
    for (double& x : v) x = rng.uniform(-50.0, 50.0);
  return phi;
}

/// Ranks other than the owner of fc's parent cell that list at least one of
/// fc's nodes, split by whether they list all four.
struct ForeignRanks {
  std::vector<int> complete, partial;
};
ForeignRanks foreign_ranks(const Dataset2Layout& l, std::int32_t fc) {
  ForeignRanks out;
  const int o = l.owner[static_cast<std::size_t>(l.grid->parent_of(fc))];
  for (int r = 0; r < Dataset2Layout::kRanks; ++r) {
    if (r == o) continue;
    int listed = 0;
    for (const std::int32_t n : l.grid->fine().tet(fc))
      listed += l.nodes->local_index(r, n) >= 0;
    if (listed == 4) out.complete.push_back(r);
    if (listed > 0 && listed < 4) out.partial.push_back(r);
  }
  return out;
}

// Every fine tet's table slots are the binary-search indices of its nodes
// in its owner's list: on the solver's 24-rank layout, and on the layouts
// a rebalance (same rank count) and an ensemble resize (16 ranks) would
// build for the same mesh.
TEST(NodeExchange, TetSlotsEqualSearchInOwnersList) {
  static_assert(sizeof(TetSlots) == 16, "16 B per fine tet");
  const Dataset2Layout& l = dataset2_layout();
  const mesh::TetMesh& fine = l.grid->fine();
  const auto wrong_slots = [&](const NodeExchange& nx,
                               std::span<const std::int32_t> owner) {
    std::int64_t wrong = 0;
    for (std::int32_t fc = 0; fc < fine.num_tets(); ++fc) {
      const int o = owner[static_cast<std::size_t>(l.grid->parent_of(fc))];
      const TetSlots got = nx.tet_slots(o, fc);
      for (int k = 0; k < 4; ++k)
        wrong += got[k] != nx.local_index(o, fine.tet(fc)[k]);
    }
    return wrong;
  };
  EXPECT_EQ(wrong_slots(*l.nodes, l.owner), 0);

  const std::int32_t ncoarse = l.geom->coarse.num_tets();
  for (const int nranks : {Dataset2Layout::kRanks, 16}) {
    std::vector<std::int32_t> blocks(static_cast<std::size_t>(ncoarse));
    for (std::int32_t c = 0; c < ncoarse; ++c)
      blocks[c] = static_cast<std::int32_t>(static_cast<std::int64_t>(c) *
                                            nranks / ncoarse);
    const NodeExchange nx(*l.grid, blocks, nranks);
    EXPECT_EQ(wrong_slots(nx, blocks), 0) << nranks << " ranks";
  }
}

// ---- One scatter for the node exchange (DESIGN.md §2i) ---------------------

/// Everything one run of the node exchange leaves behind.
struct ExchangeRun {
  std::vector<std::vector<double>> values;
  std::vector<double> clocks;
  std::vector<std::vector<double>> busy;  // per phase
  std::vector<par::PhaseStats> stats;     // per phase
  std::uint64_t supersteps = 0;
  std::vector<trace::Span> spans;
  std::vector<trace::MessageRec> msgs;
};

/// One reduce and one broadcast of random node values through `ex` (the
/// NodeExchange or its payload reference), after rank-dependent work so
/// every clock differs, on 2 ranks per node so the NIC term is live.
template <typename Exchange>
ExchangeRun exchange_run(const Exchange& ex, const NodeExchange& nx,
                         par::ExecMode mode, bool traced) {
  const int n = nx.nranks();
  par::MachineProfile prof = par::MachineProfile::tianhe2();
  prof.cores_per_node = 2;
  par::Runtime rt(n, par::Topology(prof, n), 3.0, 2.0,
                  par::ExecOptions{mode, 4});
  trace::TraceRecorder rec(n);
  if (traced) rt.set_tracer(&rec);
  rt.superstep("work", [](par::Comm& c) {
    c.charge(par::WorkKind::kVecFlop, 1000.0 * (c.rank() + 1));
  });
  // Magnitudes from 2^-20 to 2^20, so another add order shows in the bits.
  auto values = nx.make_values();
  Rng rng(17);
  for (auto& v : values)
    for (double& x : v)
      x = std::ldexp(rng.uniform(-1.0, 1.0),
                     static_cast<int>(rng.uniform_index(41)) - 20);
  ex.reduce_to_owners(rt, "reduce", values);
  ex.broadcast_from_owners(rt, "bcast", values);
  rt.barrier("end");
  ExchangeRun out;
  out.values = std::move(values);
  for (int r = 0; r < n; ++r) out.clocks.push_back(rt.clock(r));
  for (const std::string& p : rt.phases()) {
    out.busy.push_back(rt.phase_busy(p));
    out.stats.push_back(rt.phase_stats(p));
  }
  out.supersteps = rt.supersteps();
  out.spans = rec.spans();
  out.msgs = rec.messages();
  return out;
}

void expect_same_run(const ExchangeRun& a, const ExchangeRun& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t r = 0; r < a.values.size(); ++r)
    EXPECT_TRUE(same_bits(a.values[r], b.values[r])) << "rank " << r;
  EXPECT_TRUE(same_bits(a.clocks, b.clocks));
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t p = 0; p < a.stats.size(); ++p) {
    const par::PhaseStats& x = a.stats[p];
    const par::PhaseStats& y = b.stats[p];
    EXPECT_TRUE(same_bits(a.busy[p], b.busy[p])) << "phase " << p;
    EXPECT_TRUE(same_bits(std::vector{x.busy_max, x.busy_min, x.busy_sum, x.bytes},
                          std::vector{y.busy_max, y.busy_min, y.busy_sum, y.bytes}))
        << "phase " << p;
    EXPECT_EQ(x.transactions, y.transactions) << "phase " << p;
  }
  EXPECT_EQ(a.supersteps, b.supersteps);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    const trace::Span& x = a.spans[i];
    const trace::Span& y = b.spans[i];
    ASSERT_EQ(std::tie(x.rank, x.phase, x.kind, x.seq),
              std::tie(y.rank, y.phase, y.kind, y.seq))
        << "span " << i;
    ASSERT_TRUE(same_bits(x.t0, y.t0) && same_bits(x.t1, y.t1)) << "span " << i;
    ASSERT_EQ(x.work.size(), y.work.size()) << "span " << i;
    for (std::size_t k = 0; k < x.work.size(); ++k)
      ASSERT_TRUE(x.work[k].key == y.work[k].key &&
                  same_bits(x.work[k].units, y.work[k].units))
          << "span " << i;
  }
  ASSERT_EQ(a.msgs.size(), b.msgs.size());
  for (std::size_t i = 0; i < a.msgs.size(); ++i) {
    const trace::MessageRec& x = a.msgs[i];
    const trace::MessageRec& y = b.msgs[i];
    ASSERT_EQ(std::tie(x.src, x.dst, x.tag, x.bytes, x.phase, x.seq),
              std::tie(y.src, y.dst, y.tag, y.bytes, y.phase, y.seq))
        << "message " << i;
    ASSERT_TRUE(same_bits(std::vector{x.scaled_bytes, x.send_begin, x.send_end,
                                      x.recv_begin, x.recv_end},
                          std::vector{y.scaled_bytes, y.send_begin, y.send_end,
                                      y.recv_begin, y.recv_end}))
        << "message " << i;
  }
}

// The scatter's reduce and broadcast equal the payload messages they
// replaced in every value bit and every accounted number: the tiny nozzle
// at 1, 3 and 6 ranks and Dataset 2's fine grid at 24 and 64 ranks, under
// k-way and round-robin owners, sequential and threaded, traced and not.
TEST(NodeExchange, MatchesPayloadReferenceBitForBit) {
  const Meshes m = make_meshes();
  const FineGrid tiny(m.coarse, m.refined);
  const Dataset2Layout& d2 = dataset2_layout();
  struct Case {
    const char* name;
    const FineGrid* grid;
    int nranks;
  };
  for (const Case& cs : {Case{"tiny", &tiny, 1}, Case{"tiny", &tiny, 3},
                         Case{"tiny", &tiny, 6}, Case{"dataset2", d2.grid.get(), 24},
                         Case{"dataset2", d2.grid.get(), 64}}) {
    const mesh::TetMesh& coarse = cs.grid->coarse();
    partition::Graph dual;
    coarse.dual_graph(dual.xadj, dual.adjncy);
    const std::vector<std::int32_t> kway =
        partition::part_graph_kway(dual, cs.nranks, {}).part;
    std::vector<std::int32_t> round_robin(
        static_cast<std::size_t>(coarse.num_tets()));
    for (std::int32_t c = 0; c < coarse.num_tets(); ++c)
      round_robin[c] = c % cs.nranks;
    const std::pair<const std::vector<std::int32_t>*, const char*> maps[] = {
        {&kway, "k-way"}, {&round_robin, "round-robin"}};
    for (const auto& [owners, owners_name] : maps) {
      const NodeExchange nx(*cs.grid, *owners, cs.nranks);
      const reference::PayloadNodeExchange ref(nx);
      for (const par::ExecMode mode :
           {par::ExecMode::kSequential, par::ExecMode::kThreaded})
        for (const bool traced : {false, true}) {
          SCOPED_TRACE(std::string(cs.name) + " at " +
                       std::to_string(cs.nranks) + " ranks, " + owners_name +
                       ", " + par::exec_mode_name(mode) +
                       (traced ? ", traced" : ", untraced"));
          const ExchangeRun got = exchange_run(nx, nx, mode, traced);
          if (traced && cs.nranks > 1) {
            EXPECT_FALSE(got.msgs.empty());
          }
          expect_same_run(got, exchange_run(ref, nx, mode, traced));
        }
    }
  }
}

TEST(NodeExchange, RoutesNoPayload) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  const int nranks = 4;
  std::vector<std::int32_t> owner(m.coarse.num_tets());
  for (std::int32_t c = 0; c < m.coarse.num_tets(); ++c) owner[c] = c % nranks;
  const NodeExchange nx(fg, owner, nranks);
  par::Runtime rt(nranks,
                  par::Topology(par::MachineProfile::tianhe2(), nranks));
  auto values = nx.make_values();
  nx.reduce_to_owners(rt, "reduce", values);
  nx.broadcast_from_owners(rt, "bcast", values);
  EXPECT_GT(rt.phase_stats("reduce").transactions, 0u);
  EXPECT_EQ(rt.phase_stats("bcast").transactions,
            rt.phase_stats("reduce").transactions);
  EXPECT_EQ(rt.undelivered_messages(), 0u);
  const par::PoolStats pool = rt.pool_stats();
  EXPECT_EQ(pool.acquires, 0u);
  EXPECT_EQ(pool.recycles, 0u);
}

TEST(NodeExchange, RejectsMissizedInputs) {
  const Meshes m = make_meshes();
  const FineGrid fg(m.coarse, m.refined);
  std::vector<std::int32_t> owner(m.coarse.num_tets());
  for (std::int32_t c = 0; c < m.coarse.num_tets(); ++c) owner[c] = c % 3;
  const NodeExchange nx(fg, owner, 3);
  using Values = std::vector<std::vector<double>>;
  for (const bool reduce : {true, false}) {
    SCOPED_TRACE(reduce ? "reduce" : "broadcast");
    // One call on `nranks` ranks with `active` of them active, after
    // `reshape` mis-shapes the per-rank values.
    auto exchange = [&](int nranks, int active, auto reshape) {
      par::Runtime rt(nranks,
                      par::Topology(par::MachineProfile::tianhe2(), nranks));
      rt.set_active_ranks(active);
      Values values = nx.make_values();
      reshape(values);
      if (reduce)
        nx.reduce_to_owners(rt, "x", values);
      else
        nx.broadcast_from_owners(rt, "x", values);
    };
    EXPECT_NO_THROW(exchange(3, 3, [](Values&) {}));
    EXPECT_THROW(exchange(3, 3, [](Values& v) { v.pop_back(); }), Error);
    EXPECT_THROW(exchange(3, 3, [](Values& v) { v.emplace_back(); }), Error);
    EXPECT_THROW(exchange(3, 3, [](Values& v) { v[1].pop_back(); }), Error);
    EXPECT_THROW(exchange(3, 3, [](Values& v) { v[2].push_back(0.0); }),
                 Error);
    // The runtime's active ranks must be the exchange's ranks.
    EXPECT_THROW(exchange(4, 4, [](Values&) {}), Error);
    EXPECT_THROW(exchange(4, 2, [](Values&) {}), Error);
  }
}

// The gather through the table equals the search form bit for bit on every
// fine tet with its owner, with the tets spread over kernel lanes 1, 2 and
// 4 as PIC_Move spreads its ions (TSan covers the concurrent table reads).
TEST(Field, TableGatherMatchesSearchBitwise) {
  const Dataset2Layout& l = dataset2_layout();
  const auto phi = random_phi(*l.nodes, 5);
  const std::int32_t nfine = l.grid->fine().num_tets();
  const auto owner_of = [&l](std::int32_t fc) {
    return l.owner[static_cast<std::size_t>(l.grid->parent_of(fc))];
  };
  std::vector<Vec3> want(static_cast<std::size_t>(nfine));
  for (std::int32_t fc = 0; fc < nfine; ++fc)
    want[fc] = efield_by_search(*l.grid, fc, l.nodes->rank_nodes(owner_of(fc)),
                                phi[owner_of(fc)]);
  for (const int lanes : {1, 2, 4}) {
    const support::KernelExec exec(lanes);
    std::vector<Vec3> got(static_cast<std::size_t>(nfine));
    exec.for_chunks(nfine, [&](int, std::int64_t begin, std::int64_t end) {
      for (auto fc = static_cast<std::int32_t>(begin); fc < end; ++fc) {
        const int o = owner_of(fc);
        got[fc] = efield_in_cell(*l.grid, fc, l.nodes->tet_slots(o, fc), phi[o]);
      }
    });
    std::int64_t differ = 0;
    for (std::int32_t fc = 0; fc < nfine; ++fc)
      differ += !same_bits(got[fc], want[fc]);
    EXPECT_EQ(differ, 0) << "lanes=" << lanes;
  }
}

// A tet whose parent another rank owns (FineGrid::locate's fallback walk
// can land there) takes the search in the asking rank's list: the same E as
// the search form when the rank lists all four nodes, where the owner's
// table slots would often be wrong, and the same dsmcpic::Error when it
// lacks one.
TEST(Field, ForeignTetTakesTheSearchPath) {
  const Dataset2Layout& l = dataset2_layout();
  const auto phi = random_phi(*l.nodes, 9);
  std::int64_t complete = 0, partial = 0, owner_slots_differ = 0;
  for (std::int32_t fc = 0; fc < l.grid->fine().num_tets(); ++fc) {
    const ForeignRanks fr = foreign_ranks(l, fc);
    const int o = l.owner[static_cast<std::size_t>(l.grid->parent_of(fc))];
    for (const int r : fr.complete) {
      ++complete;
      const TetSlots got = l.nodes->tet_slots(r, fc);
      ASSERT_EQ(got, l.grid->find_slots(fc, l.nodes->rank_nodes(r)));
      owner_slots_differ += got != l.nodes->tet_slots(o, fc);
      ASSERT_TRUE(same_bits(
          efield_in_cell(*l.grid, fc, got, phi[r]),
          efield_by_search(*l.grid, fc, l.nodes->rank_nodes(r), phi[r])))
          << "tet " << fc << " rank " << r;
    }
    for (const int r : fr.partial) {
      if (++partial > 500) break;  // enough throws
      EXPECT_THROW(l.nodes->tet_slots(r, fc), Error);
      EXPECT_THROW(
          efield_by_search(*l.grid, fc, l.nodes->rank_nodes(r), phi[r]), Error);
    }
  }
  EXPECT_GT(complete, 0);
  EXPECT_GT(owner_slots_differ, 0);
  EXPECT_GT(partial, 0);
}

/// H+ and H at random points of rank r's coarse cells, plus one H+ at the
/// centroid of each fine tet in `foreign` (tets of other ranks' cells);
/// ids random, so they disagree with slot order.
dsmc::ParticleStore rank_store(const Dataset2Layout& l, int r, std::size_t n,
                               std::span<const std::int32_t> foreign,
                               std::uint64_t seed) {
  const mesh::TetMesh& coarse = l.geom->coarse;
  std::vector<std::int32_t> cells;
  for (std::int32_t c = 0; c < coarse.num_tets(); ++c)
    if (l.owner[c] == r) cells.push_back(c);
  dsmc::ParticleStore store;
  Rng rng(seed);
  const auto add = [&](std::int32_t cell, const Vec3& p, std::int32_t sp) {
    dsmc::ParticleRecord rec;
    rec.position = p;
    rec.cell = cell;
    rec.id = static_cast<std::int64_t>(rng.next_u64() % 5000);
    rec.species = sp;
    store.add(rec);
  };
  for (const std::int32_t fc : foreign)
    add(l.grid->parent_of(fc), l.grid->fine().centroid(fc),
        dsmc::kSpeciesHPlus);
  while (store.size() < n) {
    const std::int32_t c = cells[rng.next_u64() % cells.size()];
    std::array<double, 4> w;
    double sum = 0.0;
    for (double& x : w) sum += (x = rng.uniform_pos());
    Vec3 p;
    for (int k = 0; k < 4; ++k) p += coarse.node(coarse.tet(c)[k]) * (w[k] / sum);
    add(c, p, (store.size() % 5) ? dsmc::kSpeciesHPlus : dsmc::kSpeciesH);
  }
  return store;
}

// deposit_charge through the table equals the span-only (search) call bit
// for bit, below and above the block cutoff, at kernel lanes 1, 2 and 4,
// with some particles in other ranks' tets that the rank lists completely
// (the search fallback inside the table form). A particle in a tet the rank
// lists partially throws from both forms.
TEST(Deposit, TableMatchesSpanOnlyBitwise) {
  const Dataset2Layout& l = dataset2_layout();
  const dsmc::SpeciesTable table = dsmc::SpeciesTable::hydrogen(1e12, 500.0);
  // The rank with the most completely listed foreign tets.
  std::vector<std::vector<std::int32_t>> complete(Dataset2Layout::kRanks);
  std::vector<std::int32_t> partial_tet(Dataset2Layout::kRanks, -1);
  for (std::int32_t fc = 0; fc < l.grid->fine().num_tets(); ++fc) {
    const ForeignRanks fr = foreign_ranks(l, fc);
    for (const int r : fr.complete) complete[r].push_back(fc);
    for (const int r : fr.partial) partial_tet[r] = fc;
  }
  const auto most = std::max_element(
      complete.begin(), complete.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  const int r = static_cast<int>(most - complete.begin());
  ASSERT_FALSE(most->empty());
  const std::span<const std::int32_t> nodes = l.nodes->rank_nodes(r);

  for (const std::size_t n : {900u, 7000u}) {
    const dsmc::ParticleStore store = rank_store(l, r, n, *most, n);
    std::vector<std::uint8_t> removed(store.size(), 0);
    for (std::size_t i = most->size(); i < store.size(); i += 7) removed[i] = 1;
    std::vector<double> want(nodes.size(), 0.0);
    const DepositStats st0 =
        deposit_charge(store, *l.grid, table, nodes, removed, want);
    EXPECT_EQ(st0.lost, 0);
    for (const int lanes : {1, 2, 4}) {
      const support::KernelExec exec(lanes);
      DepositScratch scratch;
      std::vector<double> got(nodes.size(), 0.0);
      const DepositStats st = deposit_charge(store, *l.grid, table, *l.nodes,
                                             r, removed, got, &exec, &scratch);
      EXPECT_EQ(st.deposited, st0.deposited);
      EXPECT_EQ(st.lost, st0.lost);
      EXPECT_TRUE(same_bits(got, want)) << "n=" << n << " lanes=" << lanes;
    }
  }

  ASSERT_GE(partial_tet[r], 0);
  const std::vector<std::int32_t> lacking{partial_tet[r]};
  const dsmc::ParticleStore bad = rank_store(l, r, 50, lacking, 3);
  std::vector<double> charge(nodes.size(), 0.0);
  EXPECT_THROW(deposit_charge(bad, *l.grid, table, nodes, {}, charge), Error);
  EXPECT_THROW(deposit_charge(bad, *l.grid, table, *l.nodes, r, {}, charge),
               Error);
}

}  // namespace
}  // namespace dsmcpic::pic
