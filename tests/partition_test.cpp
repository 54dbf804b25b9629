#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <numeric>
#include <set>
#include <vector>

#include "mesh/nozzle.hpp"
#include "partition/graph.hpp"
#include "partition/partitioner.hpp"
#include "support/rng.hpp"

namespace dsmcpic::partition {
namespace {

/// 2D grid graph (nx x ny), unit weights.
Graph grid_graph(int nx, int ny) {
  Graph g;
  const int nv = nx * ny;
  auto id = [nx](int x, int y) { return y * nx + x; };
  std::vector<std::vector<std::int32_t>> adj(nv);
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) {
      if (x + 1 < nx) {
        adj[id(x, y)].push_back(id(x + 1, y));
        adj[id(x + 1, y)].push_back(id(x, y));
      }
      if (y + 1 < ny) {
        adj[id(x, y)].push_back(id(x, y + 1));
        adj[id(x, y + 1)].push_back(id(x, y));
      }
    }
  g.xadj.assign(nv + 1, 0);
  for (int v = 0; v < nv; ++v) g.xadj[v + 1] = g.xadj[v] + adj[v].size();
  for (int v = 0; v < nv; ++v)
    for (auto u : adj[v]) g.adjncy.push_back(u);
  return g;
}

TEST(Graph, ValidateAcceptsGrid) {
  const Graph g = grid_graph(5, 4);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.num_vertices(), 20);
  EXPECT_EQ(g.num_edges(), 2 * (4 * 4 + 5 * 3));
}

TEST(Graph, ValidateRejectsAsymmetry) {
  Graph g;
  g.xadj = {0, 1, 1};
  g.adjncy = {1};  // 0 -> 1 but not 1 -> 0
  EXPECT_THROW(g.validate(), Error);
}

TEST(Graph, EdgeCutAndImbalance) {
  const Graph g = grid_graph(4, 1);  // path of 4
  const std::vector<std::int32_t> part{0, 0, 1, 1};
  EXPECT_EQ(edge_cut(g, part), 1);
  EXPECT_DOUBLE_EQ(imbalance(g, part, 2), 1.0);
  const std::vector<std::int32_t> bad{0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(imbalance(g, bad, 2), 1.5);
}

TEST(Partitioner, BisectsGridEvenly) {
  const Graph g = grid_graph(16, 16);
  const PartitionResult r = part_graph_kway(g, 2);
  EXPECT_LE(r.imbalance, 1.06);
  // Ideal bisection of a 16x16 grid cuts 16 edges; allow some slack.
  EXPECT_LE(r.cut, 28);
  EXPECT_EQ(edge_cut(g, r.part), r.cut);
}

TEST(Partitioner, SinglePartIsTrivial) {
  const Graph g = grid_graph(4, 4);
  const PartitionResult r = part_graph_kway(g, 1);
  EXPECT_EQ(r.cut, 0);
  for (auto p : r.part) EXPECT_EQ(p, 0);
}

TEST(Partitioner, RespectsVertexWeights) {
  // Path graph with one very heavy vertex: it should sit alone-ish.
  Graph g = grid_graph(10, 1);
  g.vwgt.assign(10, 1);
  g.vwgt[0] = 9;  // total 18, ideal 9 per side
  const PartitionResult r = part_graph_kway(g, 2);
  EXPECT_LE(r.imbalance, 1.13);
  // The heavy vertex's side holds few other vertices.
  int heavy_side = r.part[0];
  int same = 0;
  for (int v = 0; v < 10; ++v)
    if (r.part[v] == heavy_side) ++same;
  EXPECT_LE(same, 3);
}

TEST(Partitioner, MoreVerticesThanPartsDegenerate) {
  const Graph g = grid_graph(3, 1);
  const PartitionResult r = part_graph_kway(g, 3);
  std::set<std::int32_t> used(r.part.begin(), r.part.end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(Partitioner, DeterministicForFixedSeed) {
  const Graph g = grid_graph(12, 12);
  const auto a = part_graph_kway(g, 4);
  const auto b = part_graph_kway(g, 4);
  EXPECT_EQ(a.part, b.part);
}

TEST(Partitioner, NozzleDualGraph) {
  mesh::NozzleSpec s;
  s.radial_divisions = 4;
  s.axial_divisions = 8;
  const mesh::TetMesh m = mesh::make_cylinder_nozzle(s);
  Graph g;
  m.dual_graph(g.xadj, g.adjncy);
  g.validate();
  const PartitionResult r = part_graph_kway(g, 8);
  EXPECT_LE(r.imbalance, 1.10);
  // Cut should be far below total edges (spatial locality).
  EXPECT_LT(r.cut, g.num_edges() / 2 / 4);
}

TEST(KwayRefine, ReducesCutWithoutBreakingBalance) {
  const Graph g = grid_graph(20, 20);
  PartitionOptions opt;
  opt.kway_refine_passes = 0;  // raw recursive bisection
  PartitionResult raw = part_graph_kway(g, 6, opt);
  std::vector<std::int32_t> part = raw.part;
  const std::int64_t gain = kway_refine(g, part, 6, 1.08, 4);
  EXPECT_GE(gain, 0);
  EXPECT_EQ(edge_cut(g, part), raw.cut - gain);
  EXPECT_LE(imbalance(g, part, 6), 1.10);
}

TEST(KwayRefine, FixesObviouslyBadAssignment) {
  // Path graph with an alternating partition: refinement must consolidate.
  const Graph g = grid_graph(16, 1);
  std::vector<std::int32_t> part(16);
  for (int v = 0; v < 16; ++v) part[v] = v % 2;
  const std::int64_t before = edge_cut(g, part);
  kway_refine(g, part, 2, 1.2, 8);
  EXPECT_LT(edge_cut(g, part), before);
  EXPECT_LE(imbalance(g, part, 2), 1.25);
}

TEST(KwayRefine, DefaultOptionsIncludeRefinement) {
  const Graph g = grid_graph(24, 24);
  PartitionOptions with;
  PartitionOptions without;
  without.kway_refine_passes = 0;
  const auto a = part_graph_kway(g, 8, with);
  const auto b = part_graph_kway(g, 8, without);
  EXPECT_LE(a.cut, b.cut);  // refinement can only help (or tie)
}

/// Parameterized sweep: balance holds across part counts and weight skews.
class KwayTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(KwayTest, BalancedAndComplete) {
  const auto [k, skewed] = GetParam();
  Graph g = grid_graph(20, 20);
  if (skewed) {
    // Exponential-ish weight gradient across the grid (mimics the particle
    // pile-up near the inlet that drives the paper's Fig. 5 imbalance).
    g.vwgt.resize(400);
    Rng rng(11);
    for (int v = 0; v < 400; ++v)
      g.vwgt[v] = 1 + (v % 20 == 0 ? 50 : 0) + static_cast<std::int64_t>(
                                                   rng.uniform_index(5));
  }
  const PartitionResult r = part_graph_kway(g, k);
  ASSERT_EQ(static_cast<int>(r.part.size()), 400);
  std::vector<std::int64_t> weight(k, 0);
  for (int v = 0; v < 400; ++v) {
    ASSERT_GE(r.part[v], 0);
    ASSERT_LT(r.part[v], k);
    weight[r.part[v]] += g.vertex_weight(v);
  }
  // Every part non-empty and max within ~20% of ideal (recursive bisection
  // compounds tolerance across levels).
  for (int p = 0; p < k; ++p) EXPECT_GT(weight[p], 0) << "part " << p;
  EXPECT_LE(r.imbalance, 1.25);
}

INSTANTIATE_TEST_SUITE_P(
    PartCounts, KwayTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 7, 8, 16, 24),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Pins: FNV-1a digests of the partitions of fixed inputs. Any change in
// the FM pop order (ties included), the carried cut, the first-touch marker
// of a zero-weight contracted edge or the subgraph's adjacency order moves
// a digest, and with it the partitions every rebalance charges for.
// ---------------------------------------------------------------------------

/// FNV-1a 64 over every part id and cut of a sequence of partitions.
class PartitionDigest {
 public:
  void add(const Graph& g, const PartitionResult& r) {
    ASSERT_EQ(edge_cut(g, r.part), r.cut);
    for (const std::int32_t p : r.part) mix(static_cast<std::uint32_t>(p), 4);
    mix(static_cast<std::uint64_t>(r.cut), 8);
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t x, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

Graph nozzle_dual(int radial, int axial) {
  mesh::NozzleSpec s;
  s.radial_divisions = radial;
  s.axial_divisions = axial;
  const mesh::TetMesh m = mesh::make_cylinder_nozzle(s);
  Graph g;
  m.dual_graph(g.xadj, g.adjncy);
  return g;
}

/// Random vertex weights in [1, 20] and symmetric edge weights in [0, 3],
/// about a quarter of them zero.
void add_random_weights(Graph& g, Rng& rng) {
  const std::int32_t nv = g.num_vertices();
  g.vwgt.resize(static_cast<std::size_t>(nv));
  for (auto& w : g.vwgt) w = 1 + static_cast<std::int64_t>(rng.uniform_index(20));
  const std::uint64_t salt = rng.next_u64();
  g.ewgt.resize(g.adjncy.size());
  for (std::int32_t v = 0; v < nv; ++v)
    for (std::int64_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::uint64_t u = static_cast<std::uint64_t>(g.adjncy[e]);
      const std::uint64_t lo = std::min<std::uint64_t>(u, v);
      const std::uint64_t hi = std::max<std::uint64_t>(u, v);
      const std::uint64_t key = (lo * 0x9e3779b97f4a7c15ULL) ^ (hi + salt);
      g.ewgt[e] = static_cast<std::int64_t>((key >> 29) % 4);
    }
}

/// Random geometric graph: n points in the unit square, an edge between
/// every two closer than `radius`.
Graph geometric_graph(int n, double radius, Rng& rng) {
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  std::vector<std::vector<std::int32_t>> adj(n);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if ((x[i] - x[j]) * (x[i] - x[j]) + (y[i] - y[j]) * (y[i] - y[j]) <
          radius * radius) {
        adj[i].push_back(j);
        adj[j].push_back(i);
      }
  Graph g;
  g.xadj.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) {
    g.xadj[v + 1] = g.xadj[v] + static_cast<std::int64_t>(adj[v].size());
    g.adjncy.insert(g.adjncy.end(), adj[v].begin(), adj[v].end());
  }
  return g;
}

TEST(PartitionPins, Dataset2DualAt24Parts) {
  const Graph g = nozzle_dual(6, 18);
  ASSERT_EQ(g.num_vertices(), 3888);
  PartitionDigest d;
  d.add(g, part_graph_kway(g, 24));
  EXPECT_EQ(d.value(), 0xe235dff3a98dcdecULL) << std::hex << d.value();
}

TEST(PartitionPins, Wide1024DualAt1024Parts) {
  Graph g = nozzle_dual(10, 20);
  ASSERT_EQ(g.num_vertices(), 12000);
  PartitionDigest plain;
  plain.add(g, part_graph_kway(g, 1024));
  EXPECT_EQ(plain.value(), 0x02f6cc57f4810589ULL) << std::hex << plain.value();

  // A skewed load: the first 60 of every 600 cells ~50x heavier.
  g.vwgt.resize(12000);
  for (std::int32_t c = 0; c < 12000; ++c)
    g.vwgt[c] = 16 + (c % 600 < 60 ? 800 : (c * 37) % 29);
  PartitionDigest weighted;
  weighted.add(g, part_graph_kway(g, 1024));
  EXPECT_EQ(weighted.value(), 0x7f52f0a11e50ae05ULL) << std::hex << weighted.value();
}

TEST(PartitionPins, SeededBatteryOfGridsAndGeometricGraphs) {
  // 24 weighted graphs at 5 part counts, 120 partitions: four fixed shapes,
  // then grids and geometric graphs of random size and density.
  Rng rng(2024);
  std::vector<Graph> graphs{grid_graph(24, 18), grid_graph(9, 7),
                            geometric_graph(700, 0.07, rng),
                            geometric_graph(300, 0.1, rng)};
  for (int i = 0; i < 20; ++i) {
    const int a = 2 + static_cast<int>(rng.uniform_index(29));
    const int b = 2 + static_cast<int>(rng.uniform_index(19));
    if (i % 2 == 0) {
      graphs.push_back(grid_graph(a, b));
    } else {
      const double radius = 0.05 + 0.01 * b;
      graphs.push_back(geometric_graph(20 * a, radius, rng));
    }
  }
  for (Graph& g : graphs) {
    add_random_weights(g, rng);
    g.validate();
  }
  const std::uint64_t expected[] = {
      0x3e4d3561624487c1ULL, 0xfb981d74f0d5b5dfULL, 0xf9288ea66709c253ULL,
      0x34148e5b18dbc3d5ULL, 0xfdf13bbc3b1e8d1fULL, 0x1161f5fbd70dac45ULL,
      0xa964d2615d13bdbeULL, 0x12d74d389fb7e04dULL, 0x3caf982971dd5e6dULL,
      0x9bc9880b1846cd66ULL, 0x39a6d9acc3a770e5ULL, 0x5c7c85ef25557e39ULL,
      0x7893c21d33afacefULL, 0x01e35b86af30e931ULL, 0x0cee1079af958888ULL,
      0x27d416df7465be43ULL, 0x8341f962ea778eb9ULL, 0x804f134627fad659ULL,
      0x76d586a881040d86ULL, 0x2b187f216b1a4a48ULL, 0x8594d76fd6f66457ULL,
      0xd64ca43761c0a29dULL, 0xadaba1a4f15394feULL, 0xabb1e0523197cc1dULL};
  ASSERT_EQ(std::size(expected), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    PartitionDigest d;
    for (const int k : {2, 3, 5, 24, 64})
      d.add(graphs[i], part_graph_kway(graphs[i], k));
    EXPECT_EQ(d.value(), expected[i])
        << "graph " << i << " (" << graphs[i].num_vertices()
        << " vertices): 0x" << std::hex << d.value() << "ULL";
  }
}

}  // namespace
}  // namespace dsmcpic::partition
