// Tests for the geometric decomposition baselines (octree / Morton).

#include <gtest/gtest.h>

#include <set>

#include "balance/rebalancer.hpp"
#include "mesh/nozzle.hpp"
#include "partition/geometric.hpp"
#include "partition/graph.hpp"
#include "support/rng.hpp"

namespace dsmcpic::partition {
namespace {

TEST(Morton, CodeOrderingFollowsSpace) {
  const Vec3 lo{0, 0, 0}, hi{1, 1, 1};
  // Origin has the smallest code; the far corner the largest.
  const auto c000 = morton_code({0.01, 0.01, 0.01}, lo, hi);
  const auto c111 = morton_code({0.99, 0.99, 0.99}, lo, hi);
  EXPECT_LT(c000, c111);
  // Interleaving: z is the most significant axis bit.
  EXPECT_GT(morton_code({0.0, 0.0, 0.9}, lo, hi),
            morton_code({0.9, 0.9, 0.0}, lo, hi));
}

TEST(Morton, PartitionBalancesWeights) {
  Rng rng(3);
  std::vector<Vec3> pts(4000);
  std::vector<double> w(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    pts[i] = {rng.uniform(), rng.uniform(), rng.uniform()};
    w[i] = 1.0 + rng.uniform_index(3);
  }
  const auto r = morton_partition(pts, w, 16);
  EXPECT_LE(r.imbalance, 1.05);
  std::set<std::int32_t> used(r.part.begin(), r.part.end());
  EXPECT_EQ(used.size(), 16u);
}

TEST(Morton, SlicesAreSpatiallyCoherent) {
  // Points on a line: slices must be contiguous intervals.
  std::vector<Vec3> pts(100);
  std::vector<double> w(100, 1.0);
  for (int i = 0; i < 100; ++i) pts[i] = {i * 0.01, 0.0, 0.0};
  const auto r = morton_partition(pts, w, 4);
  for (int i = 1; i < 100; ++i)
    EXPECT_GE(r.part[i], r.part[i - 1]);  // monotone along the line
}

TEST(Octree, PartitionBalancesSkewedWeights) {
  // Everything piled into one corner (the Fig. 5 situation): the octree
  // must still split the pile across ranks.
  Rng rng(9);
  std::vector<Vec3> pts(2000);
  std::vector<double> w(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const bool dense = i < 1600;
    pts[i] = dense ? Vec3{0.1 * rng.uniform(), 0.1 * rng.uniform(),
                          0.1 * rng.uniform()}
                   : Vec3{rng.uniform(), rng.uniform(), rng.uniform()};
    w[i] = dense ? 50.0 : 1.0;
  }
  const auto r = octree_partition(pts, w, 8);
  EXPECT_LE(r.imbalance, 1.25);
  std::set<std::int32_t> used(r.part.begin(), r.part.end());
  EXPECT_EQ(used.size(), 8u);
}

TEST(Octree, DeterministicAndComplete) {
  std::vector<Vec3> pts;
  std::vector<double> w;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    w.push_back(1.0);
  }
  const auto a = octree_partition(pts, w, 5);
  const auto b = octree_partition(pts, w, 5);
  EXPECT_EQ(a.part, b.part);
  ASSERT_EQ(a.part.size(), pts.size());
  for (const auto p : a.part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 5);
  }
}

TEST(GeometricVsGraph, GraphCutIsLowerOnTheNozzle) {
  // The point of the paper's graph-based decomposition: lower edge cut
  // (communication) than particle-count-only geometric baselines.
  mesh::NozzleSpec spec;
  spec.radial_divisions = 6;
  spec.axial_divisions = 18;
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);
  Graph dual;
  grid.dual_graph(dual.xadj, dual.adjncy);
  std::vector<double> w(grid.num_tets(), 1.0);

  const auto graph = part_graph_kway(dual, 16);
  const auto octree = octree_partition(grid.centroids(), w, 16);
  const auto morton = morton_partition(grid.centroids(), w, 16);

  const auto cut_oct = edge_cut(dual, octree.part);
  const auto cut_mor = edge_cut(dual, morton.part);
  EXPECT_LT(graph.cut, cut_oct);
  EXPECT_LT(graph.cut, cut_mor);
}

TEST(Redecompose, GeometricRepartitionersBalanceToo) {
  const int ncells = 64, nranks = 4;
  Graph dual;
  dual.xadj.assign(ncells + 1, 0);
  for (int c = 0; c < ncells; ++c)
    dual.xadj[c + 1] = dual.xadj[c] + (c == 0 || c == ncells - 1 ? 1 : 2);
  dual.adjncy.resize(dual.xadj[ncells]);
  for (int c = 0; c < ncells; ++c) {
    std::int64_t pos = dual.xadj[c];
    if (c > 0) dual.adjncy[pos++] = c - 1;
    if (c < ncells - 1) dual.adjncy[pos++] = c + 1;
  }
  std::vector<std::int64_t> neutrals(ncells, 1), charged(ncells, 0);
  for (int c = 0; c < 8; ++c) neutrals[c] = 500;
  std::vector<std::int32_t> owner(ncells);
  for (int c = 0; c < ncells; ++c) owner[c] = c / (ncells / nranks);
  std::vector<Vec3> centroids(ncells);
  for (int c = 0; c < ncells; ++c)
    centroids[c] = {0.0, 0.0, static_cast<double>(c)};

  for (const auto repart : {balance::Repartitioner::kOctree,
                            balance::Repartitioner::kMorton}) {
    par::Runtime rt(nranks,
                    par::Topology(par::MachineProfile::tianhe2(), nranks));
    balance::RebalanceConfig cfg;
    cfg.repartitioner = repart;
    balance::RebalanceStats stats;
    std::vector<double> weights(ncells);
    for (int c = 0; c < ncells; ++c)
      weights[c] = balance::wlm_per_cell(neutrals[c], charged[c],
                                         cfg.weight_ratio, cfg.cell_weight);
    const auto new_owner = balance::redecompose(
        rt, "rb", dual, centroids, weights, owner, cfg, stats);
    std::vector<std::int64_t> load(nranks, 0);
    for (int c = 0; c < ncells; ++c) load[new_owner[c]] += neutrals[c];
    const auto mx = *std::max_element(load.begin(), load.end());
    EXPECT_LE(mx, 1800) << balance::repartitioner_name(repart);
  }
}

}  // namespace
}  // namespace dsmcpic::partition
