// Broader edge-case coverage across modules (kept behaviour-neutral: these
// tests pin down existing semantics rather than introduce new ones).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "balance/hungarian.hpp"
#include "core/solver.hpp"
#include "dsmc/maxwell.hpp"
#include "dsmc/mover.hpp"
#include "dsmc/sampling.hpp"
#include "linalg/dist.hpp"
#include "mesh/nozzle.hpp"
#include "partition/partitioner.hpp"
#include "support/rng.hpp"

namespace dsmcpic {
namespace {

TEST(PartitionEdgeWeights, HeavyEdgesAreNotCut) {
  // Path of 6 with one very heavy edge at its left end: the 2-way cut, held
  // to 3 + 3 vertices by the 1.05 balance tolerance, must keep it internal.
  partition::Graph g;
  g.xadj = {0, 1, 3, 5, 7, 9, 10};
  g.adjncy = {1, 0, 2, 1, 3, 2, 4, 3, 5, 4};
  g.ewgt = {100, 100, 1, 1, 1, 1, 1, 1, 1, 1};  // edge 0-1 heavy
  g.validate();
  const auto r = partition::part_graph_kway(g, 2);
  EXPECT_EQ(r.part[0], r.part[1]);  // heavy edge kept internal
  EXPECT_LE(r.cut, 1);
}

TEST(Hungarian, MinAndMaxAreConsistent) {
  Rng rng(5);
  const int n = 9;
  std::vector<double> w(n * n), neg(n * n);
  for (int i = 0; i < n * n; ++i) {
    w[i] = std::floor(rng.uniform(0, 100));
    neg[i] = -w[i];
  }
  const auto mx = balance::hungarian_max(w, n);
  const auto mn = balance::hungarian_min(neg, n);
  EXPECT_DOUBLE_EQ(mx.total, -mn.total);
  EXPECT_EQ(mx.row_to_col, mn.row_to_col);
}

TEST(DistLayout, ContiguousOwnershipHasThinHalo) {
  // Block ownership on a tridiagonal matrix: halos are exactly the two
  // boundary rows per interior rank.
  const std::int32_t n = 30;
  std::vector<linalg::Triplet> t;
  for (std::int32_t i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  const auto a = linalg::CsrMatrix::from_triplets(n, n, t);
  std::vector<std::int32_t> owner(n);
  for (std::int32_t i = 0; i < n; ++i) owner[i] = i / 10;  // 3 blocks
  const auto l = linalg::DistLayout::build(3, owner, a);
  EXPECT_EQ(l.halo[0].size(), 1u);  // row 10
  EXPECT_EQ(l.halo[1].size(), 2u);  // rows 9 and 20
  EXPECT_EQ(l.halo[2].size(), 1u);  // row 19
}

TEST(Mover, HugeVelocityParticleExitsCleanly) {
  const mesh::NozzleSpec spec{.radial_divisions = 4, .axial_divisions = 8};
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);
  const dsmc::SpeciesTable table = dsmc::SpeciesTable::hydrogen(1e8, 100.0);
  const dsmc::Mover mover(grid, table, {});
  Vec3 pos{0, 0, 0.01};
  Vec3 vel{0, 0, 1e8};  // crosses the whole nozzle many times over in dt
  std::int32_t cell = grid.locate(pos, 0);
  dsmc::MoveStats st;
  EXPECT_FALSE(mover.move_one(pos, vel, cell, dsmc::kSpeciesH, 1, 1e-6, 0, st));
  EXPECT_EQ(st.exited, 1);
}

TEST(Mover, ZeroVelocityParticleStaysPut) {
  const mesh::NozzleSpec spec{.radial_divisions = 4, .axial_divisions = 8};
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);
  const dsmc::SpeciesTable table = dsmc::SpeciesTable::hydrogen(1e8, 100.0);
  const dsmc::Mover mover(grid, table, {});
  Vec3 pos{0.001, 0.002, 0.02};
  const Vec3 pos0 = pos;
  Vec3 vel{};
  std::int32_t cell = grid.locate(pos, 0);
  const std::int32_t cell0 = cell;
  dsmc::MoveStats st;
  EXPECT_TRUE(mover.move_one(pos, vel, cell, dsmc::kSpeciesH, 1, 1e-6, 0, st));
  EXPECT_EQ(pos, pos0);
  EXPECT_EQ(cell, cell0);
}

TEST(Sampler, MergeCombinesRankLocalSamplers) {
  const mesh::NozzleSpec spec{.radial_divisions = 4, .axial_divisions = 8};
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);
  const dsmc::SpeciesTable table = dsmc::SpeciesTable::hydrogen(1e10, 100.0);
  const std::int32_t cell = grid.locate({0, 0, 0.02}, 0);

  dsmc::CellSampler a(grid, table), b(grid, table), combined(grid, table);
  dsmc::ParticleStore s1, s2, all;
  for (int i = 0; i < 10; ++i) {
    dsmc::ParticleRecord p;
    p.cell = cell;
    p.species = dsmc::kSpeciesH;
    (i < 6 ? s1 : s2).add(p);
    all.add(p);
  }
  // Split sampling (one snapshot spread over two stores) vs direct.
  a.begin_snapshot();
  a.accumulate(s1);
  a.accumulate(s2);
  combined.sample(all);
  const auto da = a.number_density(dsmc::kSpeciesH);
  const auto dc = combined.number_density(dsmc::kSpeciesH);
  EXPECT_DOUBLE_EQ(da[cell], dc[cell]);

  // merge(): accumulators add, sample count maxes.
  b.sample(all);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.number_density(dsmc::kSpeciesH)[cell], 2.0 * dc[cell]);
}

TEST(Sampler, TemperatureOfDriftingEnsembleIsThermal) {
  // A drifting Maxwellian's translational temperature must subtract the
  // mean velocity (peculiar-velocity variance only).
  const mesh::NozzleSpec spec{.radial_divisions = 4, .axial_divisions = 8};
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);
  const dsmc::SpeciesTable table = dsmc::SpeciesTable::hydrogen(1e10, 100.0);
  const std::int32_t cell = grid.locate({0, 0, 0.02}, 0);
  dsmc::CellSampler sampler(grid, table);
  dsmc::ParticleStore store;
  Rng rng(17);
  const double T = 450.0;
  for (int i = 0; i < 20000; ++i) {
    dsmc::ParticleRecord p;
    p.cell = cell;
    p.species = dsmc::kSpeciesH;
    p.velocity = dsmc::sample_maxwellian(rng, T, table[0].mass) +
                 Vec3{0, 0, 1e4};  // strong drift
    store.add(p);
  }
  sampler.sample(store);
  EXPECT_NEAR(sampler.temperature(dsmc::kSpeciesH)[cell], T, 0.05 * T);
  EXPECT_NEAR(sampler.mean_velocity(dsmc::kSpeciesH)[cell].z, 1e4, 100.0);
}

TEST(RunSummary, UnknownPhaseIsZero) {
  core::RunSummary s;
  s.phases.push_back({.name = "A", .busy_max = 3.0});
  EXPECT_DOUBLE_EQ(s.phase_max("A"), 3.0);
  EXPECT_DOUBLE_EQ(s.phase_max("B"), 0.0);
}

TEST(Csr, AtOutOfRangeRowThrows) {
  const auto a = linalg::CsrMatrix::from_triplets(2, 2, {{{0, 0, 1.0}}});
  EXPECT_THROW(a.at(-1, 0), Error);
  EXPECT_THROW(a.at(2, 0), Error);
}

}  // namespace
}  // namespace dsmcpic
