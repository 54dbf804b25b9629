#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "balance/hungarian.hpp"
#include "balance/rebalancer.hpp"
#include "mesh/nozzle.hpp"
#include "par/machine.hpp"
#include "par/runtime.hpp"
#include "hungarian_reference.hpp"
#include "partition/partitioner.hpp"
#include "support/rng.hpp"

namespace dsmcpic::balance {
namespace {

/// Brute-force max-weight assignment for cross-checking (n <= 8).
double brute_force_max(const std::vector<double>& w, int n) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = -std::numeric_limits<double>::infinity();
  do {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += w[i * n + perm[i]];
    best = std::max(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(Hungarian, TrivialCases) {
  const std::vector<double> one{5.0};
  const AssignmentResult r1 = hungarian_max(one, 1);
  EXPECT_EQ(r1.row_to_col[0], 0);
  EXPECT_DOUBLE_EQ(r1.total, 5.0);

  // Identity is optimal on a diagonal-dominant matrix.
  const std::vector<double> diag{10, 1, 1,  //
                                 1, 10, 1,  //
                                 1, 1, 10};
  const AssignmentResult r3 = hungarian_max(diag, 3);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(r3.row_to_col[i], i);
  EXPECT_DOUBLE_EQ(r3.total, 30.0);
}

TEST(Hungarian, KnownMinInstance) {
  // Classic 3x3: optimal min cost = 5 (0->1, 1->0, 2->2).
  const std::vector<double> cost{4, 1, 3,  //
                                 2, 0, 5,  //
                                 3, 2, 2};
  const AssignmentResult r = hungarian_min(cost, 3);
  EXPECT_DOUBLE_EQ(r.total, 5.0);
}

TEST(Hungarian, AssignmentIsAPermutation) {
  Rng rng(17);
  const int n = 12;
  std::vector<double> w(n * n);
  for (auto& x : w) x = rng.uniform(0, 100);
  const AssignmentResult r = hungarian_max(w, n);
  std::vector<char> used(n, 0);
  for (int i = 0; i < n; ++i) {
    ASSERT_GE(r.row_to_col[i], 0);
    ASSERT_LT(r.row_to_col[i], n);
    EXPECT_FALSE(used[r.row_to_col[i]]);
    used[r.row_to_col[i]] = 1;
  }
  EXPECT_GT(r.operations, 0);
}

class HungarianRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HungarianRandomTest, MatchesBruteForce) {
  const int n = GetParam();
  Rng rng(1000 + n);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> w(n * n);
    for (auto& x : w) x = std::floor(rng.uniform(0, 50));
    const AssignmentResult r = hungarian_max(w, n);
    EXPECT_DOUBLE_EQ(r.total, brute_force_max(w, n)) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HungarianRandomTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

TEST(Hungarian, LargeInstanceRunsFast) {
  Rng rng(3);
  const int n = 256;
  std::vector<double> w(static_cast<std::size_t>(n) * n);
  for (auto& x : w) x = rng.uniform(0, 1000);
  const AssignmentResult r = hungarian_max(w, n);
  // Sanity: at least as good as the identity assignment.
  double identity = 0.0;
  for (int i = 0; i < n; ++i) identity += w[static_cast<std::size_t>(i) * n + i];
  EXPECT_GE(r.total, identity);
}

TEST(Hungarian, RejectsNonFiniteCosts) {
  // A row of +inf leaves no column below delta; NaN and -inf poison the
  // potentials. Each must be a typed error before the search starts.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> bad{
      {inf, inf, 0, 0}, {1, 2, nan, 4}, {1, -inf, 3, 4}};
  for (const auto& m : bad) {
    EXPECT_THROW(hungarian_min(m, 2), Error);
    EXPECT_THROW(hungarian_max(m, 2), Error);
  }
}

enum class KmShape {
  kUniform,
  kTies,
  kSparseOverlap,
  kAllZero,
  kSingleNonzero,
  kEqualNonzerosInARow,
  kNegatedOverlapWithPlusZeros
};

/// An n x n instance of the given shape. kSparseOverlap is shaped like
/// km_remap's overlap matrix: at most four nonzeros per row (the largest
/// on a permuted diagonal), each a sum of integer cell weights plus the
/// 1e-9 stickiness epsilon, accumulated the way km_remap does. The other
/// shapes hold the grouped scan's edge cases: no nonzero at all (one group
/// lives through every search), one nonzero, rows whose nonzeros are equal
/// (split-off columns tie), and the negated overlap with +0.0 zeros, which
/// hungarian_min sees where hungarian_max's negation would give -0.0.
std::vector<double> km_instance(KmShape shape, int n, Rng& rng) {
  std::vector<double> m(static_cast<std::size_t>(n) * n, 0.0);
  switch (shape) {
    case KmShape::kAllZero:
      break;
    case KmShape::kSingleNonzero:
      m[rng.uniform_index(m.size())] = static_cast<double>(1 + rng.uniform_index(9));
      break;
    case KmShape::kEqualNonzerosInARow:
      for (int r = 0; r < n; r += 2) {
        const double w = static_cast<double>(1 + rng.uniform_index(3));
        const int nonzeros = 2 + static_cast<int>(rng.uniform_index(4));
        for (int k = 0; k < nonzeros; ++k)
          m[static_cast<std::size_t>(r) * n + rng.uniform_index(n)] = w;
      }
      break;
    case KmShape::kNegatedOverlapWithPlusZeros:
      m = km_instance(KmShape::kSparseOverlap, n, rng);
      for (auto& x : m) x = x == 0.0 ? 0.0 : -x;
      break;
    case KmShape::kUniform:
      for (auto& x : m) x = rng.uniform(0, 1000);
      break;
    case KmShape::kTies:
      for (auto& x : m) x = static_cast<double>(rng.uniform_index(4));
      break;
    case KmShape::kSparseOverlap: {
      std::vector<int> perm(n);
      std::iota(perm.begin(), perm.end(), 0);
      for (int i = n - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.uniform_index(i + 1)]);
      for (int r = 0; r < n; ++r) {
        const int nonzeros = 1 + static_cast<int>(rng.uniform_index(4));
        for (int k = 0; k < nonzeros; ++k) {
          const int col =
              k == 0 ? perm[r] : static_cast<int>(rng.uniform_index(n));
          const int cells = 1 + static_cast<int>(rng.uniform_index(k == 0 ? 12 : 3));
          for (int c = 0; c < cells; ++c)
            m[static_cast<std::size_t>(r) * n + col] +=
                static_cast<double>(16 + rng.uniform_index(400)) + 1e-9;
        }
      }
      break;
    }
  }
  return m;
}

/// Both objectives equal the two-pass reference: the same assignment, the
/// same operation count and the same bytes of `total`.
void expect_matches_reference(const std::vector<double>& m, int n) {
  const AssignmentResult mn = hungarian_min(m, n);
  const AssignmentResult ref_mn = reference::hungarian_min(m, n);
  EXPECT_EQ(mn.row_to_col, ref_mn.row_to_col);
  EXPECT_EQ(mn.operations, ref_mn.operations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(mn.total),
            std::bit_cast<std::uint64_t>(ref_mn.total));
  const AssignmentResult mx = hungarian_max(m, n);
  const AssignmentResult ref_mx = reference::hungarian_max(m, n);
  EXPECT_EQ(mx.row_to_col, ref_mx.row_to_col);
  EXPECT_EQ(mx.operations, ref_mx.operations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(mx.total),
            std::bit_cast<std::uint64_t>(ref_mx.total));
}

TEST(Hungarian, MatchesTwoPassReferenceBitForBit) {
  for (const KmShape shape :
       {KmShape::kUniform, KmShape::kTies, KmShape::kSparseOverlap,
        KmShape::kAllZero, KmShape::kSingleNonzero,
        KmShape::kEqualNonzerosInARow, KmShape::kNegatedOverlapWithPlusZeros})
    for (const int n : {1, 2, 3, 8, 31, 64, 257}) {
      Rng rng(7000 + 10 * n + static_cast<int>(shape));
      for (int trial = 0; trial < (n <= 64 ? 4 : 1); ++trial) {
        SCOPED_TRACE(::testing::Message() << "shape " << static_cast<int>(shape)
                                          << " n " << n << " trial " << trial);
        expect_matches_reference(km_instance(shape, n, rng), n);
      }
    }
}

TEST(Hungarian, MatchesTwoPassReferenceOnAWideRemap) {
  // The wide-1024 workload's shape: 1,024 ranks, a few thousand nonzeros.
  const int n = 1024;
  Rng rng(1024);
  expect_matches_reference(km_instance(KmShape::kSparseOverlap, n, rng), n);
}

TEST(Hungarian, MatchesTwoPassReferenceOnARealWide1024Remap) {
  // The regime of the wide-1024 step-9 remap: the 12,000-cell nozzle
  // dual's unweighted partition into 1,024 parts (the initial owners)
  // against one by inlet-heavy Eq.-7 weights, ~3k nonzeros among 1,024^2
  // overlaps, ~2.6e8 Dijkstra ops, nearly all of them at a zero delta.
  mesh::NozzleSpec spec;
  spec.radial_divisions = 10;
  spec.axial_divisions = 20;
  const mesh::TetMesh mesh = mesh::make_cylinder_nozzle(spec);
  partition::Graph dual;
  mesh.dual_graph(dual.xadj, dual.adjncy);
  const std::int32_t ncells = dual.num_vertices();
  ASSERT_EQ(ncells, 12000);
  const int n = 1024;
  const std::vector<std::int32_t> old_owner =
      partition::part_graph_kway(dual, n).part;

  // Particles fill the first 30 % of the nozzle, thinning downstream and
  // off the inlet disc; one in ten is charged. Weights are scaled by 16
  // and rounded, as redecompose does.
  partition::Graph weighted = dual;
  weighted.vwgt.resize(static_cast<std::size_t>(ncells));
  for (std::int32_t c = 0; c < ncells; ++c) {
    const Vec3& x = mesh.centroid(c);
    const double z = x.z / spec.length;
    const double r = std::hypot(x.x, x.y) / spec.radius;
    const auto neutrals = static_cast<std::int64_t>(
        z < 0.3 ? 300.0 * (1.0 - z / 0.3) *
                      (r < spec.inlet_radius_frac ? 1.0 : 0.3)
                : 0.0);
    weighted.vwgt[c] = std::max<std::int64_t>(
        1, std::llround(16.0 * wlm_per_cell(neutrals, neutrals / 10, 2.0, 1.0)));
  }
  const std::vector<std::int32_t> new_part =
      partition::part_graph_kway(weighted, n).part;

  // The overlap as km_remap builds it.
  std::vector<double> keep(static_cast<std::size_t>(ncells));
  std::vector<double> overlap(static_cast<std::size_t>(n) * n, 0.0);
  for (std::int32_t c = 0; c < ncells; ++c) {
    keep[c] = static_cast<double>(weighted.vwgt[c]);
    overlap[static_cast<std::size_t>(old_owner[c]) * n + new_part[c]] +=
        keep[c] + 1e-9;
  }

  const AssignmentResult got = hungarian_max(overlap, n);
  const AssignmentResult want = reference::hungarian_max(overlap, n);
  EXPECT_GE(want.operations, 100'000'000);
  EXPECT_EQ(got.row_to_col, want.row_to_col);
  EXPECT_EQ(got.operations, want.operations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total),
            std::bit_cast<std::uint64_t>(want.total));
  std::int64_t remap_ops = 0;
  km_remap(old_owner, new_part, keep, n, &remap_ops);
  EXPECT_EQ(remap_ops, want.operations);
}

TEST(Lii, FormulaMatchesEq6) {
  // total{4, 10}, migration{1, 2}, poisson{1, 2}:
  // lii = (10-2-2)/(4-1-1) = 3.
  const std::vector<double> total{4, 10}, pm{1, 2}, poi{1, 2};
  EXPECT_DOUBLE_EQ(load_imbalance_indicator(total, pm, poi), 3.0);
}

TEST(Lii, PerfectBalanceIsOne) {
  const std::vector<double> total{5, 5, 5}, pm{1, 1, 1}, poi{2, 2, 2};
  EXPECT_DOUBLE_EQ(load_imbalance_indicator(total, pm, poi), 1.0);
}

TEST(Lii, IdleRankYieldsInfinity) {
  const std::vector<double> total{10, 1}, pm{0, 1}, poi{0, 0};
  EXPECT_TRUE(std::isinf(load_imbalance_indicator(total, pm, poi)));
}

TEST(KmRemap, IdenticalPartitionKeepsLabels) {
  // New partition == old owners: KM must relabel parts to the identity.
  const std::vector<std::int32_t> old_owner{0, 0, 1, 1, 2, 2};
  const std::vector<std::int32_t> new_part{1, 1, 2, 2, 0, 0};
  const std::vector<double> keep{10, 10, 20, 20, 30, 30};
  const auto owner = km_remap(old_owner, new_part, keep, 3);
  EXPECT_EQ(owner, old_owner);  // zero particles migrate
}

TEST(KmRemap, MinimizesMigrationVsIdentityLabels) {
  // 4 cells, 2 ranks. New partition groups {0,1} and {2,3} but labels them
  // opposite to the old owners; KM must flip the labels (Fig. 6 scenario).
  const std::vector<std::int32_t> old_owner{0, 0, 1, 1};
  const std::vector<std::int32_t> new_part{1, 1, 0, 0};
  const std::vector<double> keep{100, 100, 100, 100};
  const auto owner = km_remap(old_owner, new_part, keep, 2);
  EXPECT_EQ(owner, old_owner);
  // Identity labeling would have migrated all 400 particles.
}

TEST(KmRemap, PartialOverlapPicksBestMatch) {
  // Rank 0 held heavy cells 0,1; the new partition puts 0,1,2 in part 1.
  const std::vector<std::int32_t> old_owner{0, 0, 1, 1, 1};
  const std::vector<std::int32_t> new_part{1, 1, 1, 0, 0};
  const std::vector<double> keep{50, 50, 1, 1, 1};
  const auto owner = km_remap(old_owner, new_part, keep, 2);
  // Part 1 (holding the heavy cells) must take label 0.
  EXPECT_EQ(owner[0], 0);
  EXPECT_EQ(owner[1], 0);
  EXPECT_EQ(owner[3], 1);
}

/// The Eq.-7 weight of every cell under `cfg`.
std::vector<double> eq7_weights(const std::vector<std::int64_t>& neutrals,
                                const std::vector<std::int64_t>& charged,
                                const RebalanceConfig& cfg) {
  std::vector<double> w(neutrals.size());
  for (std::size_t c = 0; c < w.size(); ++c)
    w[c] = wlm_per_cell(neutrals[c], charged[c], cfg.weight_ratio,
                        cfg.cell_weight);
  return w;
}

TEST(Redecompose, BalancesSkewedParticleLoad) {
  // Path graph of 32 cells; all particles piled into the first 4 cells
  // (the paper's Fig. 5 situation). Initial owner: block partition.
  const int ncells = 32, nranks = 4;
  partition::Graph dual;
  dual.xadj.assign(ncells + 1, 0);
  for (int c = 0; c < ncells; ++c)
    dual.xadj[c + 1] = dual.xadj[c] + (c == 0 || c == ncells - 1 ? 1 : 2);
  dual.adjncy.resize(dual.xadj[ncells]);
  for (int c = 0; c < ncells; ++c) {
    std::int64_t pos = dual.xadj[c];
    if (c > 0) dual.adjncy[pos++] = c - 1;
    if (c < ncells - 1) dual.adjncy[pos++] = c + 1;
  }
  std::vector<std::int64_t> neutrals(ncells, 0), charged(ncells, 0);
  for (int c = 0; c < 4; ++c) neutrals[c] = 1000;
  std::vector<std::int32_t> owner(ncells);
  for (int c = 0; c < ncells; ++c) owner[c] = c / (ncells / nranks);

  par::Runtime rt(nranks,
                  par::Topology(par::MachineProfile::tianhe2(), nranks));
  RebalanceConfig cfg;
  RebalanceStats stats;
  std::vector<Vec3> centroids(ncells);
  for (int c = 0; c < ncells; ++c) centroids[c] = {static_cast<double>(c), 0, 0};
  const auto new_owner =
      redecompose(rt, "rebalance", dual, centroids,
                  eq7_weights(neutrals, charged, cfg), owner, cfg, stats);

  // The four heavy cells must now be spread across ranks.
  std::vector<std::int64_t> load(nranks, 0);
  for (int c = 0; c < ncells; ++c) load[new_owner[c]] += neutrals[c];
  const std::int64_t mx = *std::max_element(load.begin(), load.end());
  EXPECT_LE(mx, 2000);  // was 4000 on one rank before
  EXPECT_EQ(stats.rebalances, 1);
  EXPECT_GT(stats.cells_reassigned, 0);
  EXPECT_GT(rt.phase_stats("rebalance").busy_max, 0.0);
}

TEST(Redecompose, WeightRatioPrioritizesChargedCells) {
  // Two heavy cells: one with 100 neutrals, one with 100 charged. With
  // R = 10 the charged cell weighs ~10x more; the partitioner must not put
  // both on the same rank when splitting two ways.
  const int ncells = 16, nranks = 2;
  partition::Graph dual;
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
  charged[3] = 100;
  charged[12] = 100;
  std::vector<std::int32_t> owner(ncells, 0);
  for (int c = ncells / 2; c < ncells; ++c) owner[c] = 1;

  par::Runtime rt(nranks,
                  par::Topology(par::MachineProfile::tianhe2(), nranks));
  RebalanceConfig cfg;
  cfg.weight_ratio = 10.0;
  RebalanceStats stats;
  std::vector<Vec3> centroids(ncells);
  for (int c = 0; c < ncells; ++c) centroids[c] = {static_cast<double>(c), 0, 0};
  const auto new_owner =
      redecompose(rt, "rb", dual, centroids,
                  eq7_weights(neutrals, charged, cfg), owner, cfg, stats);
  EXPECT_NE(new_owner[3], new_owner[12]);
}

}  // namespace
}  // namespace dsmcpic::balance
