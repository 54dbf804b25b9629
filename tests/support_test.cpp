#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/kernel_exec.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/vec3.hpp"

namespace dsmcpic {
namespace {

TEST(Error, CheckThrowsWithContext) {
  EXPECT_NO_THROW(DSMCPIC_CHECK(1 + 1 == 2));
  try {
    DSMCPIC_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("support_test.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123, 7), b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(123, 0), b(123, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(42);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng r(7);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[r.uniform_index(10)];
  for (int h : hits) EXPECT_GT(h, 800);  // ~1000 each
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(99);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, DeriveStreamSeedDiffers) {
  EXPECT_NE(derive_stream_seed(1, 0), derive_stream_seed(1, 1));
  EXPECT_NE(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
}

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_EQ(cross(Vec3(1, 0, 0), Vec3(0, 1, 0)), Vec3(0, 0, 1));
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
  EXPECT_NEAR(Vec3(3, 4, 0).normalized().norm(), 1.0, 1e-15);
}

TEST(Vec3, TripleProductIsSignedVolume) {
  EXPECT_DOUBLE_EQ(triple({1, 0, 0}, {0, 1, 0}, {0, 0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(triple({0, 1, 0}, {1, 0, 0}, {0, 0, 1}), -1.0);
}

TEST(Cli, ParsesTypesAndDefaults) {
  Cli cli("test");
  const auto* s = cli.add_string("name", "def", "a string");
  const auto* i = cli.add_int("count", 3, "an int");
  const auto* d = cli.add_double("ratio", 0.5, "a double");
  const auto* f = cli.add_flag("verbose", false, "a flag");
  const char* argv[] = {"prog", "--name", "abc", "--count=7", "--verbose",
                        "pos1"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(*s, "abc");
  EXPECT_EQ(*i, 7);
  EXPECT_DOUBLE_EQ(*d, 0.5);
  EXPECT_TRUE(*f);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, RejectsUnknownAndMalformed) {
  Cli cli("test");
  cli.add_int("n", 1, "");
  const char* bad1[] = {"prog", "--unknown", "3"};
  EXPECT_THROW(cli.parse(3, bad1), Error);
  Cli cli2("test");
  cli2.add_int("n", 1, "");
  const char* bad2[] = {"prog", "--n", "xyz"};
  EXPECT_THROW(cli2.parse(3, bad2), Error);
}

// Mistyped single-dash flags used to fall through as positionals and were
// silently ignored; they must error now. "-h" and negative numbers keep
// their meaning.
TEST(Cli, SingleDashTokensAreErrorsNotPositionals) {
  Cli cli("test");
  cli.add_int("steps", 1, "");
  const char* bad[] = {"prog", "-steps", "3"};
  EXPECT_THROW(cli.parse(3, bad), Error);

  Cli cli2("test");
  cli2.add_int("steps", 1, "");
  const char* neg[] = {"prog", "-3", "-.5", "-"};
  ASSERT_TRUE(cli2.parse(4, neg));
  ASSERT_EQ(cli2.positional().size(), 3u);
  EXPECT_EQ(cli2.positional()[0], "-3");
  EXPECT_EQ(cli2.positional()[1], "-.5");
  EXPECT_EQ(cli2.positional()[2], "-");

  Cli cli3("test");
  const char* help[] = {"prog", "-h"};
  EXPECT_FALSE(cli3.parse(2, help));
}

TEST(Table, AlignsColumns) {
  Table t("demo");
  t.header({"a", "bbbb"});
  t.row({"xxxx", "y"});
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("xxxx"), std::string::npos);
  EXPECT_EQ(Table::num(1.2345, 2), "1.23");
  EXPECT_EQ(Table::pct(0.373), "+37.3%");
}

TEST(Stats, BasicMoments) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_NEAR(stddev(v), std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(relative_stddev(v), std::sqrt(2.5) / 3.0, 1e-12);
}

TEST(Stats, MeanRelativeErrorSkipsNearZeroReference) {
  const std::vector<double> a{1.1, 2.2, 5.0};
  const std::vector<double> b{1.0, 2.0, 0.0};
  EXPECT_NEAR(mean_relative_error(a, b), 0.1, 1e-12);  // third pair skipped
}

/// A stream holding a 64-bit length prefix of `n` and 16 payload bytes.
std::stringstream prefixed(std::uint64_t n) {
  std::stringstream ss;
  io::write_pod(ss, n);
  ss << std::string(16, 'x');
  return ss;
}

TEST(Serialize, OversizedLengthPrefixIsATypedError) {
  // Each must end in dsmcpic::Error after at most one 1 MiB chunk: not in
  // std::length_error (2^62), std::bad_alloc (2^40) or a 1 GiB zero-fill
  // of doubles before the short read is noticed (2^27).
  for (const int bits : {62, 40, 27}) {
    SCOPED_TRACE(bits);
    std::stringstream a = prefixed(std::uint64_t{1} << bits);
    EXPECT_THROW(io::read_vec<double>(a), Error);
    std::stringstream b = prefixed(std::uint64_t{1} << bits);
    EXPECT_THROW(io::read_string(b), Error);
  }
}

TEST(Serialize, MultiChunkReadsRoundTrip) {
  // 300k doubles (2.4 MB) and a 1.5 MiB string each span several reads.
  std::vector<double> v(300000);
  std::iota(v.begin(), v.end(), 0.5);
  std::string s(3u << 19, '\0');
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<char>(i * 7);
  std::stringstream ss;
  io::write_vec(ss, v);
  io::write_string(ss, s);
  const std::string bytes = ss.str();
  EXPECT_EQ(io::read_vec<double>(ss), v);
  EXPECT_EQ(io::read_string(ss), s);
  // Cut inside the vector's third chunk (bytes 2 MiB to 2.4 MB): still a
  // typed error.
  std::stringstream cut(bytes.substr(0, 8 + 2'200'000));
  EXPECT_THROW(io::read_vec<double>(cut), Error);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  for (const int n : {0, 1, 3, 17, 256}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossCalls) {
  support::ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round)
    pool.parallel_for(10, [&](int i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 50 * 45);
}

TEST(ThreadPool, PropagatesFirstException) {
  support::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   8,
                   [](int i) {
                     if (i == 5) throw Error("boom");
                   }),
               Error);
  // The pool must stay usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  support::ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

// Two-level dispatch rule 1: a nested parallel_for on the SAME pool runs
// inline instead of deadlocking on the batch mutex.
TEST(ThreadPool, NestedCallRunsInline) {
  support::ThreadPool pool(3);
  std::atomic<int> inner{0};
  pool.parallel_for(6, [&](int) {
    pool.parallel_for(5, [&](int) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 30);
}

// Two-level dispatch rule 2: concurrent external callers serialize their
// batches — here superstep-style bodies on one pool all fan out onto a
// second, shared kernel pool.
TEST(ThreadPool, ConcurrentExternalBatchesSerialize) {
  support::ThreadPool ranks(4);
  support::ThreadPool kernels(2);
  std::atomic<long> total{0};
  ranks.parallel_for(8, [&](int) {
    kernels.parallel_for(10, [&](int i) { total.fetch_add(i); });
  });
  EXPECT_EQ(total.load(), 8 * 45);
}

TEST(KernelExec, SerialExecutorRunsOneChunkInline) {
  support::KernelExec exec(1);
  EXPECT_TRUE(exec.serial());
  EXPECT_EQ(exec.num_chunks(1000), 1);
  int calls = 0;
  std::int64_t begin = -1, end = -1;
  exec.for_chunks(17, [&](int c, std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(c, 0);
    begin = b;
    end = e;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(begin, 0);
  EXPECT_EQ(end, 17);
}

TEST(KernelExec, ChunksExactlyCoverTheRange) {
  support::KernelExec exec(4);
  EXPECT_FALSE(exec.serial());
  for (const std::int64_t n : {2LL, 7LL, 64LL, 1000LL}) {
    const int nc = exec.num_chunks(n);
    EXPECT_GE(nc, 2);
    EXPECT_LE(nc, 64);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    exec.for_chunks(n, [&](int c, std::int64_t b, std::int64_t e) {
      EXPECT_EQ(b, support::KernelExec::chunk_begin(n, nc, c));
      EXPECT_EQ(e, support::KernelExec::chunk_begin(n, nc, c + 1));
      for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

// sum_tasks / sum_chunks, the kernels' one chunk reduction. The Stats here
// records every index its tasks visit, in task order, so the sum shows both
// coverage and the order the per-task stats were combined in.
struct Visits {
  std::int64_t count = 0;
  std::vector<std::int64_t> order;
  Visits& operator+=(const Visits& o) {
    count += o.count;
    order.insert(order.end(), o.order.begin(), o.order.end());
    return *this;
  }
};

Visits serial_visits(std::int64_t n) {
  Visits v;
  for (std::int64_t i = 0; i < n; ++i) {
    ++v.count;
    v.order.push_back(i);
  }
  return v;
}

TEST(KernelExec, SumChunksEqualsTheSerialLoop) {
  const support::KernelExec lane1(1), lane2(2), lane4(4);
  for (const support::KernelExec* exec :
       {static_cast<const support::KernelExec*>(nullptr), &lane1, &lane2,
        &lane4}) {
    for (const std::int64_t n : {0LL, 1LL, 63LL, 64LL, 65LL, 10000LL}) {
      const Visits got = support::sum_chunks<Visits>(
          exec, n, [](std::int64_t b, std::int64_t e, Visits& v) {
            for (std::int64_t i = b; i < e; ++i) {
              ++v.count;
              v.order.push_back(i);
            }
          });
      const Visits want = serial_visits(n);
      EXPECT_EQ(got.count, want.count)
          << "n=" << n << " lanes=" << (exec ? exec->threads() : 0);
      EXPECT_EQ(got.order, want.order)
          << "n=" << n << " lanes=" << (exec ? exec->threads() : 0);
    }
  }
}

TEST(KernelExec, SumTasksFollowsAPlannedTaskList) {
  const support::KernelExec lane1(1), lane2(2), lane4(4);
  // Uneven caller-planned bounds, as the collide's cost-balanced plan makes,
  // and a list of 64 one-index tasks at the cap.
  std::vector<std::int64_t> single(65);
  std::iota(single.begin(), single.end(), 0);
  const std::vector<std::vector<std::int64_t>> plans = {
      {0, 0}, {0, 1}, {0, 5, 6, 40, 41, 100, 1000}, single};
  for (const support::KernelExec* exec :
       {static_cast<const support::KernelExec*>(nullptr), &lane1, &lane2,
        &lane4}) {
    for (const auto& bounds : plans) {
      const int ntasks = static_cast<int>(bounds.size()) - 1;
      const Visits got = support::sum_tasks<Visits>(
          exec, ntasks, [&](int t, Visits& v) {
            for (std::int64_t i = bounds[t]; i < bounds[t + 1]; ++i) {
              ++v.count;
              v.order.push_back(i);
            }
          });
      const Visits want = serial_visits(bounds.back());
      EXPECT_EQ(got.count, want.count) << ntasks << " tasks";
      EXPECT_EQ(got.order, want.order) << ntasks << " tasks";
    }
  }
  // More tasks than the per-task stats array holds is an error on a pool.
  EXPECT_THROW(support::sum_tasks<Visits>(
                   &lane4, support::KernelExec::kMaxChunks + 1,
                   [](int, Visits&) {}),
               Error);
}

}  // namespace
}  // namespace dsmcpic
