#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/case_geometry.hpp"
#include "core/datasets.hpp"
#include "linalg/csr.hpp"
#include "linalg/dist.hpp"
#include "linalg/krylov.hpp"
#include "linalg_reference.hpp"
#include "par/machine.hpp"
#include "par/runtime.hpp"
#include "partition/partitioner.hpp"
#include "pic/fine_grid.hpp"
#include "pic/node_exchange.hpp"
#include "pic/poisson.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/vec3.hpp"

namespace dsmcpic::linalg {
namespace {

/// 1D Poisson (tridiagonal [-1, 2, -1]) — SPD, diagonally dominant.
CsrMatrix laplace_1d(std::int32_t n) {
  std::vector<Triplet> t;
  for (std::int32_t i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  return CsrMatrix::from_triplets(n, n, t);
}

TEST(Csr, FromTripletsMergesDuplicates) {
  const std::vector<Triplet> t{{0, 0, 1.0}, {0, 0, 2.0}, {1, 0, 5.0},
                               {0, 1, -1.0}};
  const CsrMatrix m = CsrMatrix::from_triplets(2, 2, t);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

/// Index of the first element whose bits differ, or -1.
std::ptrdiff_t first_bit_difference(std::span<const double> a,
                                    std::span<const double> b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return static_cast<std::ptrdiff_t>(i);
  return -1;
}

/// Success when `m` holds exactly the reference arrays, bit for bit.
::testing::AssertionResult same_csr_bits(const CsrMatrix& m,
                                         const reference::CsrArrays& ref) {
  if (m.row_ptr() != ref.row_ptr)
    return ::testing::AssertionFailure() << "row_ptr differs";
  if (m.col_idx() != ref.col_idx)
    return ::testing::AssertionFailure() << "col_idx differs";
  const std::ptrdiff_t d = first_bit_difference(m.values(), ref.values);
  if (d >= 0)
    return ::testing::AssertionFailure()
           << "values differ first at entry " << d << " of "
           << ref.values.size();
  return ::testing::AssertionSuccess();
}

/// `n` shuffled triplets in a rows x cols matrix whose keys each repeat 2
/// to 30 times, with values of both signs and magnitudes 1e-6 to 1e6, so
/// the order in which duplicates are summed shows in the bits.
std::vector<Triplet> repeated_triplets(std::size_t n, std::int32_t rows,
                                       std::int32_t cols, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  t.reserve(n);
  while (t.size() < n) {
    const auto row = static_cast<std::int32_t>(rng.uniform_index(rows));
    const auto col = static_cast<std::int32_t>(rng.uniform_index(cols));
    const auto repeats = 2 + rng.uniform_index(29);
    for (std::uint64_t k = 0; k < repeats && t.size() < n; ++k) {
      const double magnitude =
          rng.uniform(1.0, 10.0) *
          std::pow(10.0, static_cast<double>(rng.uniform_index(13)) - 6.0);
      t.push_back({row, col, rng.uniform() < 0.5 ? -magnitude : magnitude});
    }
  }
  for (std::size_t i = t.size(); i > 1; --i)
    std::swap(t[i - 1], t[rng.uniform_index(i)]);
  return t;
}

// The packed-key sort must give the two-level (row, col) sort's arrays bit
// for bit, sums of duplicates included, on both sides of introsort's
// 16-element insertion-sort threshold and up to 10^5 triplets.
TEST(Csr, FromTripletsMatchesTwoLevelSortBitForBit) {
  std::uint64_t seed = 11;
  for (const std::size_t n : {0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 100, 1000,
                              10000, 100000})
    for (int rep = 0; rep < (n <= 1000 ? 4 : 1); ++rep) {
      const std::int32_t rows = 1 + static_cast<std::int32_t>(n % 97);
      const std::int32_t cols = 4096;
      const std::vector<Triplet> t = repeated_triplets(n, rows, cols, ++seed);
      EXPECT_TRUE(same_csr_bits(CsrMatrix::from_triplets(rows, cols, t),
                                reference::from_triplets(rows, cols, t)))
          << n << " triplets, seed " << seed;
    }
}

// Input already in order: strictly ascending keys skip the sort and must
// still equal the reference; ascending keys with duplicates must not skip
// it, since the sort permutes equal keys and so the order of their sums.
TEST(Csr, FromTripletsOnSortedInputMatchesTwoLevelSort) {
  const auto by_key = [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  const auto same_key = [](const Triplet& a, const Triplet& b) {
    return a.row == b.row && a.col == b.col;
  };
  std::uint64_t seed = 101;
  for (const std::size_t n : {1, 2, 16, 17, 33, 1000, 100000}) {
    const std::int32_t rows = 64, cols = 4096;
    std::vector<Triplet> dup = repeated_triplets(n, rows, cols, ++seed);
    std::stable_sort(dup.begin(), dup.end(), by_key);
    std::vector<Triplet> strict = dup;
    strict.erase(std::unique(strict.begin(), strict.end(), same_key),
                 strict.end());
    EXPECT_TRUE(same_csr_bits(CsrMatrix::from_triplets(rows, cols, strict),
                              reference::from_triplets(rows, cols, strict)))
        << n << " strictly ascending triplets";
    EXPECT_TRUE(same_csr_bits(CsrMatrix::from_triplets(rows, cols, dup),
                              reference::from_triplets(rows, cols, dup)))
        << n << " ascending triplets with duplicates";
  }
}

// The Dataset-1 Poisson assembly through both sorts: the element-stiffness
// triplets (16 per tet, an edge's key once per tet around it), then the
// Dirichlet-reduced system, whose triplets arrive strictly ascending. The
// solver's own assembly must equal the reference chain.
TEST(Csr, FromTripletsMatchesTwoLevelSortOnDataset1Assembly) {
  const core::Dataset ds = core::make_dataset(1);
  const auto geom = core::CaseGeometry::build(ds.config.nozzle);
  const mesh::TetMesh& fine = geom->refined.mesh;
  const std::int32_t n = fine.num_nodes();
  // Element stiffness exactly as pic::PoissonSystem computes it.
  std::vector<Triplet> trips;
  for (std::int32_t t = 0; t < fine.num_tets(); ++t) {
    const auto& nd = fine.tet(t);
    const double vol = fine.volume(t);
    std::array<Vec3, 4> g;
    for (int i = 0; i < 4; ++i) {
      const Vec3& pi = fine.node(nd[i]);
      const Vec3& p1 = fine.node(nd[(i + 1) & 3]);
      const Vec3& p2 = fine.node(nd[(i + 2) & 3]);
      const Vec3& p3 = fine.node(nd[(i + 3) & 3]);
      const Vec3 raw = cross(p2 - p1, p3 - p1);
      g[i] = raw / dot(raw, pi - p1);
    }
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
        trips.push_back({nd[i], nd[j], dot(g[i], g[j]) * vol});
  }
  const reference::CsrArrays full = reference::from_triplets(n, n, trips);
  EXPECT_TRUE(same_csr_bits(CsrMatrix::from_triplets(n, n, trips), full));

  const pic::PoissonSystem psys(fine, ds.config.poisson_bcs);
  const auto dirichlet = psys.is_dirichlet();
  std::vector<Triplet> reduced;
  for (std::int32_t i = 0; i < n; ++i) {
    if (dirichlet[i]) {
      reduced.push_back({i, i, 1.0});
      continue;
    }
    for (std::int64_t e = full.row_ptr[i]; e < full.row_ptr[i + 1]; ++e) {
      const std::int32_t j = full.col_idx[static_cast<std::size_t>(e)];
      if (!dirichlet[j])
        reduced.push_back({i, j, full.values[static_cast<std::size_t>(e)]});
    }
  }
  const reference::CsrArrays k = reference::from_triplets(n, n, reduced);
  EXPECT_TRUE(same_csr_bits(CsrMatrix::from_triplets(n, n, reduced), k));
  EXPECT_TRUE(same_csr_bits(psys.matrix(), k));
}

TEST(Csr, MatvecMatchesDense) {
  const CsrMatrix m = laplace_1d(5);
  const std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y(5);
  m.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2 * 1 - 2);
  EXPECT_DOUBLE_EQ(y[2], -2 + 6 - 4);
  EXPECT_DOUBLE_EQ(y[4], -4 + 10);
}

TEST(Csr, DiagonalAndDominance) {
  const CsrMatrix m = laplace_1d(4);
  const auto d = m.diagonal();
  ASSERT_EQ(d.size(), 4u);
  for (std::int32_t r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(d[r], 2.0);
    // Weak row dominance: |a_rr| >= sum of |a_rc| over the off-diagonals.
    double off = 0.0;
    for (std::int32_t c = 0; c < 4; ++c)
      if (c != r) off += std::abs(m.at(r, c));
    EXPECT_GE(d[r], off);
  }
  // A missing diagonal entry reads as zero.
  const std::vector<Triplet> t{{0, 1, 5.0}, {1, 0, 5.0}, {1, 1, 1.0}};
  const auto d2 = CsrMatrix::from_triplets(2, 2, t).diagonal();
  EXPECT_EQ(d2, (std::vector<double>{0.0, 1.0}));
}

TEST(Krylov, CgSolvesLaplace) {
  const std::int32_t n = 64;
  const CsrMatrix a = laplace_1d(n);
  std::vector<double> x_true(n), b(n), x(n, 0.0);
  Rng rng(3);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  a.matvec(x_true, b);
  const SolveResult r = cg(a, b, x, {.rel_tol = 1e-10, .max_iterations = 500});
  EXPECT_TRUE(r.converged);
  for (std::int32_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

TEST(Krylov, CgWarmStartConvergesInstantly) {
  const CsrMatrix a = laplace_1d(32);
  std::vector<double> b(32, 1.0), x(32, 0.0);
  SolveOptions opt{.rel_tol = 1e-10, .max_iterations = 500};
  const SolveResult first = cg(a, b, x, opt);
  ASSERT_TRUE(first.converged);
  std::vector<double> x2 = x;  // warm start from the solution
  const SolveResult second = cg(a, b, x2, opt);
  EXPECT_TRUE(second.converged);
  EXPECT_EQ(second.iterations, 0);
}

// ---- distributed ------------------------------------------------------------

/// Round-robin row ownership (worst-case halo, exercises the plans).
std::vector<std::int32_t> round_robin_owner(std::int32_t n, int nranks) {
  std::vector<std::int32_t> o(n);
  for (std::int32_t i = 0; i < n; ++i) o[i] = i % nranks;
  return o;
}

TEST(Dist, LayoutPlansAreConsistent) {
  const CsrMatrix a = laplace_1d(20);
  const auto owner = round_robin_owner(20, 3);
  const DistLayout l = DistLayout::build(3, owner, a);
  // Every row owned exactly once.
  std::size_t total_owned = 0;
  for (int r = 0; r < 3; ++r) total_owned += l.owned[r].size();
  EXPECT_EQ(total_owned, 20u);
  // Send plans mirror recv plans.
  for (int r = 0; r < 3; ++r) {
    for (const auto& rp : l.recv_plan[r]) {
      const auto& peer_sends = l.send_plan[rp.peer];
      bool found = false;
      for (const auto& sp : peer_sends) {
        if (sp.peer != r) continue;
        found = true;
        ASSERT_EQ(sp.count, rp.count);
        ASSERT_EQ(sp.slot, rp.slot);
        // Same global ids in the same order on both sides.
        for (std::size_t i = sp.slot; i < sp.slot + sp.count; ++i) {
          EXPECT_EQ(l.owned[rp.peer][l.send_idx[i]],
                    l.halo[r][l.recv_idx[i] - l.owned[r].size()]);
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(Dist, ScatterGatherRoundTrip) {
  const CsrMatrix a = laplace_1d(17);
  const auto owner = round_robin_owner(17, 4);
  const DistLayout l = DistLayout::build(4, owner, a);
  std::vector<double> v(17);
  for (int i = 0; i < 17; ++i) v[i] = i * 1.5;
  const DistVector d = scatter_vector(l, v);
  EXPECT_EQ(gather_vector(l, d), v);
}

TEST(Dist, HaloExchangeFillsGhosts) {
  const std::int32_t n = 12;
  const CsrMatrix a = laplace_1d(n);
  const auto owner = round_robin_owner(n, 3);
  DistLayout l = DistLayout::build(3, owner, a);
  par::Runtime rt(3, par::Topology(par::MachineProfile::tianhe2(), 3));
  std::vector<std::vector<double>> local(3);
  for (int r = 0; r < 3; ++r) {
    local[r].assign(l.local_size(r), -1.0);
    for (std::size_t i = 0; i < l.owned[r].size(); ++i)
      local[r][i] = static_cast<double>(l.owned[r][i]);  // value = global id
  }
  halo_exchange(rt, "halo", l, local);
  for (int r = 0; r < 3; ++r)
    for (std::size_t h = 0; h < l.halo[r].size(); ++h)
      EXPECT_DOUBLE_EQ(local[r][l.owned[r].size() + h],
                       static_cast<double>(l.halo[r][h]));
  // One routed message per send plan, none queued and no payload pooled.
  std::size_t plans = 0;
  for (const auto& sp : l.send_plan) plans += sp.size();
  EXPECT_EQ(rt.phase_stats("halo").transactions, plans);
  EXPECT_EQ(rt.undelivered_messages(), 0u);
  EXPECT_EQ(rt.pool_stats().acquires, 0u);
}

/// Builds the round-robin layout of an n-row 1-D Laplace matrix on `nranks`
/// ranks, lets `mutate` corrupt its plans, and runs one halo exchange.
template <typename Mutate>
void halo_exchange_with(int nranks, std::int32_t n, Mutate mutate) {
  const CsrMatrix a = laplace_1d(n);
  DistLayout l = DistLayout::build(nranks, round_robin_owner(n, nranks), a);
  mutate(l);
  par::Runtime rt(nranks,
                  par::Topology(par::MachineProfile::tianhe2(), nranks));
  std::vector<std::vector<double>> local(nranks);
  for (int r = 0; r < nranks; ++r) local[r].assign(l.local_size(r), 0.0);
  halo_exchange(rt, "halo", l, local);
}

TEST(Dist, HaloRejectsMissingMessage) {
  // A lost message must not leave stale ghosts behind: the receiver checks
  // its inbox against its plans. Rank 1 no longer ships to rank 0.
  EXPECT_NO_THROW(halo_exchange_with(3, 12, [](DistLayout&) {}));
  EXPECT_THROW(halo_exchange_with(3, 12,
                                  [](DistLayout& l) {
                                    ASSERT_EQ(l.send_plan[1][0].peer, 0);
                                    l.send_plan[1].erase(l.send_plan[1].begin());
                                  }),
               Error);
}

TEST(Dist, HaloRejectsMismatchedMessage) {
  // Right count, wrong size: rank 1's message to rank 0 is one value short.
  EXPECT_THROW(halo_exchange_with(3, 12,
                                  [](DistLayout& l) {
                                    ASSERT_GT(l.send_plan[1][0].count, 1u);
                                    --l.send_plan[1][0].count;
                                  }),
               Error);
  // Right count and size, wrong sender: on 4 round-robin ranks, rank 0
  // hears from ranks 1 and 3; rank 2 now sends rank 1's message instead.
  EXPECT_THROW(halo_exchange_with(4, 16,
                                  [](DistLayout& l) {
                                    ASSERT_EQ(l.send_plan[1][0].peer, 0);
                                    l.send_plan[2].insert(l.send_plan[2].begin(),
                                                          l.send_plan[1][0]);
                                    l.send_plan[1].erase(l.send_plan[1].begin());
                                  }),
               Error);
}

TEST(Dist, HaloRejectsMisplacedSlots) {
  // Right peer and count, wrong slot: rank 0 would read rank 1's values
  // one slot off.
  EXPECT_THROW(halo_exchange_with(3, 12,
                                  [](DistLayout& l) {
                                    ASSERT_EQ(l.recv_plan[0][0].peer, 1);
                                    ++l.recv_plan[0][0].slot;
                                  }),
               Error);
  // Matching plans, but one halo value listed twice and another never.
  EXPECT_THROW(halo_exchange_with(3, 12,
                                  [](DistLayout& l) {
                                    const auto s = l.recv_plan[0][0].slot;
                                    ASSERT_GT(l.recv_plan[0][0].count, 1u);
                                    l.recv_idx[s] = l.recv_idx[s + 1];
                                  }),
               Error);
}

TEST(Dist, HaloRejectsMissizedLocals) {
  const CsrMatrix a = laplace_1d(12);
  const DistLayout l = DistLayout::build(3, round_robin_owner(12, 3), a);
  // One exchange of the 3-rank layout on `nranks` ranks with `active` of
  // them active, after `resize` mis-sizes the local vectors.
  auto exchange = [&l](int nranks, int active, auto resize) {
    par::Runtime rt(nranks,
                    par::Topology(par::MachineProfile::tianhe2(), nranks));
    rt.set_active_ranks(active);
    std::vector<std::vector<double>> local(3);
    for (int r = 0; r < 3; ++r) local[r].assign(l.local_size(r), 0.0);
    resize(local);
    halo_exchange(rt, "halo", l, local);
  };
  using Locals = std::vector<std::vector<double>>;
  EXPECT_NO_THROW(exchange(3, 3, [](Locals&) {}));
  // Each local vector one value short: the halo would land past its end.
  EXPECT_THROW(exchange(3, 3,
                        [](Locals& local) {
                          for (auto& v : local) v.pop_back();
                        }),
               Error);
  EXPECT_THROW(exchange(3, 3, [](Locals& local) { local[1].push_back(0.0); }),
               Error);
  EXPECT_THROW(exchange(3, 3, [](Locals& local) { local.pop_back(); }), Error);
  EXPECT_THROW(exchange(3, 3, [](Locals& local) { local.emplace_back(); }),
               Error);
  // The runtime's active ranks must be the layout's ranks.
  EXPECT_THROW(exchange(4, 4, [](Locals&) {}), Error);
  EXPECT_THROW(exchange(4, 2, [](Locals&) {}), Error);
}

TEST(Dist, CgRejectsMissizedVectors) {
  const CsrMatrix a = laplace_1d(12);
  const DistMatrix dm =
      DistMatrix::build(a, DistLayout::build(3, round_robin_owner(12, 3), a));
  // One solve after `resize` mis-counts the right-hand side or the guess.
  auto solve = [&dm](auto resize) {
    par::Runtime rt(3, par::Topology(par::MachineProfile::tianhe2(), 3));
    DistVector b = scatter_vector(dm.layout, std::vector<double>(12, 1.0));
    DistVector x(3);
    resize(b, x);
    dist_cg(rt, "s", dm, b, x);
  };
  EXPECT_NO_THROW(solve([](DistVector&, DistVector&) {}));
  EXPECT_THROW(solve([](DistVector& b, DistVector&) { b.pop_back(); }), Error);
  EXPECT_THROW(solve([](DistVector& b, DistVector&) { b.emplace_back(); }),
               Error);
  EXPECT_THROW(solve([](DistVector&, DistVector& x) { x.pop_back(); }), Error);
  EXPECT_THROW(solve([](DistVector&, DistVector& x) { x.emplace_back(); }),
               Error);
}

TEST(Dist, GatherRejectsMissizedVector) {
  const CsrMatrix a = laplace_1d(12);
  const DistLayout l = DistLayout::build(3, round_robin_owner(12, 3), a);
  std::vector<double> v(12);
  std::iota(v.begin(), v.end(), 0.5);
  const DistVector d = scatter_vector(l, v);
  EXPECT_EQ(gather_vector(l, d), v);
  DistVector fewer = d;
  fewer.pop_back();
  EXPECT_THROW(gather_vector(l, fewer), Error);
  DistVector more = d;
  more.emplace_back();
  EXPECT_THROW(gather_vector(l, more), Error);
}

TEST(Dist, PreconRejectsShortSpans) {
  const CsrMatrix a = laplace_1d(12);
  const DistMatrix dm =
      DistMatrix::build(a, DistLayout::build(3, round_robin_owner(12, 3), a));
  const std::size_t n = dm.layout.owned[1].size();
  ASSERT_GT(n, 1u);
  std::vector<double> r(n, 1.0), z(n), scratch(n);
  const std::span<const double> r_short = std::span(r).first(n - 1);
  const std::span<double> z_short = std::span(z).first(n - 1);
  const std::span<double> scratch_short = std::span(scratch).first(n - 1);
  for (const Precon kind :
       {Precon::kNone, Precon::kJacobi, Precon::kBlockSsor}) {
    SCOPED_TRACE(static_cast<int>(kind));
    EXPECT_NO_THROW(apply_precon(dm, 1, kind, r, z, scratch));
    EXPECT_THROW(apply_precon(dm, 1, kind, r_short, z, scratch), Error);
    EXPECT_THROW(apply_precon(dm, 1, kind, r, z_short, scratch), Error);
    EXPECT_THROW(apply_precon(dm, 1, kind, r, z, scratch_short), Error);
    EXPECT_THROW(apply_precon(dm, 3, kind, r, z, scratch), Error);
  }
}

/// Distributed CG must match the serial solution for any rank count.
class DistCgTest : public ::testing::TestWithParam<int> {};

TEST_P(DistCgTest, MatchesSerialCg) {
  const int nranks = GetParam();
  const std::int32_t n = 60;
  const CsrMatrix a = laplace_1d(n);
  std::vector<double> b(n);
  Rng rng(13);
  for (auto& v : b) v = rng.uniform(-1, 1);

  std::vector<double> x_serial(n, 0.0);
  const SolveOptions opt{.rel_tol = 1e-10, .max_iterations = 500};
  ASSERT_TRUE(cg(a, b, x_serial, opt).converged);

  const auto owner = round_robin_owner(n, nranks);
  DistMatrix dm = DistMatrix::build(a, DistLayout::build(nranks, owner, a));
  par::Runtime rt(nranks,
                  par::Topology(par::MachineProfile::tianhe2(), nranks));
  DistVector db = scatter_vector(dm.layout, b);
  DistVector dx(nranks);
  const SolveResult r = dist_cg(rt, "solve", dm, db, dx, opt);
  EXPECT_TRUE(r.converged);
  const auto x = gather_vector(dm.layout, dx);
  for (std::int32_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_serial[i], 1e-7);
  // The solve must have charged communication/compute time.
  EXPECT_GT(rt.phase_stats("solve").busy_max, 0.0);
  if (nranks > 1) {
    EXPECT_GT(rt.phase_stats("solve").transactions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistCgTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(Dist, PreconditionersAgreeOnSolution) {
  const std::int32_t n = 40;
  const CsrMatrix a = laplace_1d(n);
  std::vector<double> b(n);
  Rng rng(23);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const auto owner = round_robin_owner(n, 3);
  DistMatrix dm = DistMatrix::build(a, DistLayout::build(3, owner, a));

  std::vector<std::vector<double>> solutions;
  std::vector<int> iterations;
  for (const Precon p :
       {Precon::kNone, Precon::kJacobi, Precon::kBlockSsor}) {
    par::Runtime rt(3, par::Topology(par::MachineProfile::tianhe2(), 3));
    SolveOptions opt{.rel_tol = 1e-11, .max_iterations = 500};
    opt.dist_precon = p;
    DistVector db = scatter_vector(dm.layout, b);
    DistVector dx(3);
    const SolveResult r = dist_cg(rt, "s", dm, db, dx, opt);
    ASSERT_TRUE(r.converged);
    solutions.push_back(gather_vector(dm.layout, dx));
    iterations.push_back(r.iterations);
  }
  for (std::int32_t i = 0; i < n; ++i) {
    EXPECT_NEAR(solutions[0][i], solutions[1][i], 1e-7);
    EXPECT_NEAR(solutions[0][i], solutions[2][i], 1e-7);
  }
  // Block SSOR must not be weaker than plain CG.
  EXPECT_LE(iterations[2], iterations[0]);
}

TEST(Dist, SsorBeatsJacobiOnOneRank) {
  // On a single rank the block covers the whole matrix: SSOR-CG should
  // converge in clearly fewer iterations than Jacobi-CG.
  const std::int32_t n = 200;
  const CsrMatrix a = laplace_1d(n);
  std::vector<double> b(n, 1.0);
  const std::vector<std::int32_t> owner(n, 0);
  DistMatrix dm = DistMatrix::build(a, DistLayout::build(1, owner, a));
  auto solve = [&](Precon p) {
    par::Runtime rt(1, par::Topology(par::MachineProfile::tianhe2(), 1));
    SolveOptions opt{.rel_tol = 1e-9, .max_iterations = 2000};
    opt.dist_precon = p;
    DistVector db = scatter_vector(dm.layout, b);
    DistVector dx(1);
    const SolveResult r = dist_cg(rt, "s", dm, db, dx, opt);
    EXPECT_TRUE(r.converged);
    return r.iterations;
  };
  // (On 1-D Laplace the gain is modest; on the 3-D FEM system the solver
  // uses in production it is ~2x, see the solver integration tests.)
  EXPECT_LT(solve(Precon::kBlockSsor), solve(Precon::kJacobi));
}

// ---- bitwise equality with the test-only references -------------------------

/// The Dataset-2 Poisson system distributed the way the solver distributes
/// it: unweighted k-way partition of the coarse cells, node rows owned as
/// pic::NodeExchange assigns them. Built once per rank count.
struct Dataset2System {
  DistMatrix dm;
  DistVector b;  // RHS of a random charge distribution
};

const Dataset2System& dataset2(int nranks) {
  static std::map<int, std::unique_ptr<Dataset2System>> cache;
  auto& slot = cache[nranks];
  if (slot) return *slot;
  const core::Dataset ds = core::make_dataset(2);
  const auto geom = core::CaseGeometry::build(ds.config.nozzle);
  const pic::PoissonSystem psys(geom->refined.mesh, ds.config.poisson_bcs);
  partition::Graph dual;
  geom->coarse.dual_graph(dual.xadj, dual.adjncy);
  const std::vector<std::int32_t> owner =
      nranks == 1
          ? std::vector<std::int32_t>(
                static_cast<std::size_t>(geom->coarse.num_tets()), 0)
          : partition::part_graph_kway(dual, nranks, {}).part;
  const pic::NodeExchange nodex(pic::FineGrid(geom->coarse, geom->refined),
                                owner, nranks);
  slot = std::make_unique<Dataset2System>();
  slot->dm = DistMatrix::build(
      psys.matrix(),
      DistLayout::build(nranks, nodex.node_owner(), psys.matrix()));
  std::vector<double> charge(static_cast<std::size_t>(psys.num_nodes()));
  Rng rng(2);
  for (double& q : charge) q = rng.uniform(0.0, 1e-12);
  slot->b = scatter_vector(slot->dm.layout, psys.rhs(charge));
  return *slot;
}

class Dataset2Reference : public ::testing::TestWithParam<int> {};

TEST_P(Dataset2Reference, FactoredSweepMatchesBranchySweep) {
  const DistMatrix& dm = dataset2(GetParam()).dm;
  Rng rng(5);
  for (int r = 0; r < dm.layout.nranks; ++r) {
    const std::size_t n = dm.layout.owned[r].size();
    std::vector<double> rv(n), diag, inv_diag;
    for (double& v : rv) v = rng.uniform(-1.0, 1.0);
    reference::guarded_diagonal(dm.local[r], n, diag, inv_diag);
    for (const Precon kind :
         {Precon::kNone, Precon::kJacobi, Precon::kBlockSsor}) {
      std::vector<double> z(n), z_ref(n), u(n), u_ref(n);
      apply_precon(dm, r, kind, rv, z, u);
      reference::block_ssor_sweep(dm.local[r], n, kind, diag, inv_diag, rv,
                                  z_ref, u_ref);
      ASSERT_EQ(first_bit_difference(z, z_ref), -1)
          << "rank " << r << " precon " << static_cast<int>(kind);
    }
  }
}

TEST_P(Dataset2Reference, DistCgMatchesReferenceInBothExecModes) {
  const int nranks = GetParam();
  const Dataset2System& sys = dataset2(nranks);
  const core::Dataset ds = core::make_dataset(2);
  const SolveOptions opt{.rel_tol = 1e-5, .max_iterations = 200};
  auto runtime = [&](par::ExecMode mode) {
    return par::Runtime(nranks,
                        par::Topology(par::MachineProfile::tianhe2(), nranks),
                        ds.paper_particle_scale, ds.paper_grid_scale,
                        par::ExecOptions{mode, 3});
  };
  par::Runtime rt_ref = runtime(par::ExecMode::kSequential);
  DistVector x_ref(nranks);
  const SolveResult ref =
      reference::dist_cg(rt_ref, "solve", sys.dm, sys.b, x_ref, opt);
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 10);

  for (const par::ExecMode mode :
       {par::ExecMode::kSequential, par::ExecMode::kThreaded}) {
    SCOPED_TRACE(par::exec_mode_name(mode));
    par::Runtime rt = runtime(mode);
    DistVector x(nranks);
    const SolveResult res = dist_cg(rt, "solve", sys.dm, sys.b, x, opt);
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_EQ(res.converged, ref.converged);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res.residual),
              std::bit_cast<std::uint64_t>(ref.residual));
    for (int r = 0; r < nranks; ++r)
      ASSERT_EQ(first_bit_difference(x[r], x_ref[r]), -1) << "rank " << r;
    // Payload-free halo messages cost exactly what the payloads did.
    for (int r = 0; r < nranks; ++r)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(rt.clock(r)),
                std::bit_cast<std::uint64_t>(rt_ref.clock(r)))
          << "rank " << r;
    const par::PhaseStats s = rt.phase_stats("solve");
    const par::PhaseStats s_ref = rt_ref.phase_stats("solve");
    EXPECT_EQ(rt.phase_busy("solve"), rt_ref.phase_busy("solve"));
    EXPECT_EQ(s.transactions, s_ref.transactions);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.bytes),
              std::bit_cast<std::uint64_t>(s_ref.bytes));
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, Dataset2Reference,
                         ::testing::Values(1, 24, 1024),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "r" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dsmcpic::linalg
