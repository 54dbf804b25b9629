// Golden regression digests: an FNV-1a 64-bit hash over every step
// diagnostic and the final virtual clocks, compared against checked-in
// values for a few representative configs. Any unintended change to the
// physics, the cost model, the RNG streams, or the superstep routing
// order shows up here as a digest mismatch — the failure message prints
// the new digest so an INTENDED change can be re-goldened deliberately.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "obs/health_auditor.hpp"
#include "obs/host_profiler.hpp"
#include "obs/telemetry.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::core {
namespace {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

SolverConfig tiny_config(double particle_scale = 0.25) {
  Dataset d = make_dataset(1, particle_scale);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

/// Hashes every step diagnostic and the final virtual clocks.
void hash_run(Fnv1a& d, const CoupledSolver& solver) {
  for (const StepDiagnostics& s : solver.history()) {
    d.i64(s.dsmc_step);
    for (const std::int64_t p : s.particles_per_rank) d.i64(p);
    d.i64(s.total_h);
    d.i64(s.total_hplus);
    d.i64(s.injected);
    d.i64(s.migrated_dsmc);
    d.i64(s.migrated_pic);
    d.i64(s.collisions);
    d.i64(s.ionizations);
    d.i64(s.recombinations);
    d.i64(s.poisson_iterations);
    d.f64(s.lii);
    d.i64(s.rebalanced ? 1 : 0);
  }
  for (int r = 0; r < solver.runtime().size(); ++r)
    d.f64(solver.runtime().clock(r));
  d.f64(solver.runtime().total_time());
}

std::uint64_t run_digest(exchange::Strategy strategy, bool balance_enabled,
                         int kernel_threads = 1, bool traced = false,
                         bool audited = false, int sort_every = 0,
                         balance::CostModelKind cost_model =
                             balance::CostModelKind::kStatic,
                         balance::PolicyKind policy =
                             balance::PolicyKind::kThreshold,
                         bool telemetry = false) {
  ParallelConfig par;
  par.nranks = 6;
  par.strategy = strategy;
  par.balance.enabled = balance_enabled;
  par.balance.period = 3;
  par.balance.cost_model.kind = cost_model;
  par.balance.policy.kind = policy;
  par.kernel_threads = kernel_threads;
  obs::HealthAuditor auditor({obs::AuditSeverity::kAbort});
  obs::HostProfiler prof;
  SolverConfig cfg = tiny_config();
  cfg.sort_every = sort_every;
  CoupledSolver solver(cfg, par);
  trace::TraceRecorder rec(par.nranks);
  if (traced) solver.runtime().set_tracer(&rec);
  if (audited) {
    solver.set_auditor(&auditor);
    solver.set_host_profiler(&prof);
  }
  // Telemetry samples every step and keeps a flight recorder, but writes
  // nothing (empty paths) — the digest must not notice it exists.
  obs::TelemetryConfig tc;
  tc.metrics_interval = 1;
  obs::TelemetryHub hub(tc);
  if (telemetry) {
    hub.set_host_profiler(&prof);
    solver.set_telemetry(&hub);
  }
  solver.run(8);
  if (audited) {
    EXPECT_EQ(auditor.report().violations(), 0);
  }

  Fnv1a d;
  hash_run(d, solver);
  return d.value();
}

// Golden values harvested from the seed behavior of this repo. If a change
// is SUPPOSED to alter results (new physics, cost-model retune), rerun the
// test, verify the new numbers are intended, and update these constants in
// the same commit that explains why.
constexpr std::uint64_t kGoldenDcBalanced = 0xef94e5e11bc00cc4ULL;
constexpr std::uint64_t kGoldenDcUnbalanced = 0xf2d8975ddd0bec20ULL;
constexpr std::uint64_t kGoldenCcUnbalanced = 0x590b94314ef0aa30ULL;

TEST(Golden, DistributedWithRebalance) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

TEST(Golden, DistributedNoRebalance) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/false);
  EXPECT_EQ(got, kGoldenDcUnbalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

TEST(Golden, CentralizedNoRebalance) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kCentralized, /*balance=*/false);
  EXPECT_EQ(got, kGoldenCcUnbalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// Intra-rank kernel parallelism must hit the SAME golden value as the
// serial-kernel run — the knob is required to be invisible in every digest
// input (diagnostics and virtual clocks alike).
TEST(Golden, KernelThreadsFourMatchesSerialGolden) {
  const std::uint64_t got = run_digest(exchange::Strategy::kDistributed,
                                       /*balance=*/true, /*kernel_threads=*/4);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// Tracing (DESIGN.md §2e) claims pure observation: a trace-enabled run
// must hit the SAME golden value as the untraced run.
TEST(Golden, TraceEnabledMatchesSerialGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*kernel_threads=*/1, /*traced=*/true);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// Health audits + host profiling (DESIGN.md §2f) make the same claim:
// attaching both, at abort severity, must neither flag a violation nor
// move the digest off the golden value.
TEST(Golden, AuditsEnabledMatchSerialGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*kernel_threads=*/1, /*traced=*/false, /*audited=*/true);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// The telemetry hub (docs/observability.md §6) makes the same
// zero-perturbation claim as audits and traces: sampling every step into
// the series + flight recorder, with the host profiler attached, must not
// move the digest off the golden value.
TEST(Golden, TelemetryEnabledMatchesSerialGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*kernel_threads=*/1, /*traced=*/false, /*audited=*/true,
                 /*sort_every=*/0, balance::CostModelKind::kStatic,
                 balance::PolicyKind::kThreshold, /*telemetry=*/true);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// The periodic cell sort (DESIGN.md §2g) is pure memory-layout work: a run
// that sorts every step must hit the SAME golden value as the never-sorted
// run. This is the strongest form of the sort's determinism contract —
// stable permutation + cell-major canonical reindex + order-canonical
// deposit leave every digest input untouched.
TEST(Golden, SortEveryStepMatchesUnsortedGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*kernel_threads=*/1, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/1);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// An odd sort period composed with kernel threads — both knobs at once must
// still be invisible (sorting changes the store order the kernels chunk
// over, so this exercises chunk-boundary independence on sorted layouts).
TEST(Golden, SortEverySevenWithKernelThreadsMatchesGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*kernel_threads=*/4, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/7);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// Same claim on the centralized-exchange golden (different communication
// shape feeding the stores between sorts).
TEST(Golden, SortedCentralizedMatchesUnsortedGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kCentralized, /*balance=*/false,
                 /*kernel_threads=*/1, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/2);
  EXPECT_EQ(got, kGoldenCcUnbalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// ---- A golden that collides ------------------------------------------------
// tiny_config's runs accept no collision in their eight steps, and hash_run
// hashes counts only, so the goldens above cannot see the NTC path. This
// nozzle takes the dense-inlet workload's 3000x denser inflow, retuned to
// the same particle targets (fnum grows 3000x, so only the collision load
// changes): it accepts thousands of collisions in eight steps. Its digest
// adds every final particle's position, velocity, species and id bits in
// ascending-id order, so store layout cannot matter but any change to an
// NTC draw, decision or scatter does.

SolverConfig dense_config() {
  const Dataset d = make_dataset(1, 0.25);
  SolverConfig cfg = tiny_config(0.25);
  cfg.density_h *= 3000.0;
  cfg.set_target_particles(d.target_h, d.target_hplus);
  return cfg;
}

struct DenseRun {
  std::uint64_t digest = 0;
  std::int64_t collisions = 0;
  std::int64_t charge_exchanges = 0;
  std::int64_t exact_sigmas = 0;
};

DenseRun run_dense(int kernel_threads, int sort_every) {
  ParallelConfig par;
  par.nranks = 6;
  par.strategy = exchange::Strategy::kDistributed;
  par.balance.enabled = true;
  par.balance.period = 3;
  par.kernel_threads = kernel_threads;
  SolverConfig cfg = dense_config();
  cfg.sort_every = sort_every;
  CoupledSolver solver(cfg, par);
  solver.run(8);

  Fnv1a d;
  hash_run(d, solver);
  std::vector<dsmc::ParticleRecord> all;
  for (const dsmc::ParticleStore& store : solver.stores())
    for (std::size_t i = 0; i < store.size(); ++i)
      all.push_back(store.record(i));
  std::sort(all.begin(), all.end(),
            [](const dsmc::ParticleRecord& a, const dsmc::ParticleRecord& b) {
              return a.id < b.id;
            });
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end(),
                                 [](const dsmc::ParticleRecord& a,
                                    const dsmc::ParticleRecord& b) {
                                   return a.id == b.id;
                                 }) == all.end())
      << "particle ids must be unique for the id order to be canonical";
  for (const dsmc::ParticleRecord& p : all) {
    for (const double x : {p.position.x, p.position.y, p.position.z,
                           p.velocity.x, p.velocity.y, p.velocity.z})
      d.f64(x);
    d.i64(p.species);
    d.i64(p.id);
  }
  DenseRun out;
  out.digest = d.value();
  for (const StepDiagnostics& s : solver.history()) {
    out.collisions += s.collisions;
    out.charge_exchanges += s.charge_exchanges;
    out.exact_sigmas += s.exact_sigmas;
  }
  return out;
}

constexpr std::uint64_t kGoldenDense = 0xdbeb4801af895fb8ULL;

// The dense run's counters that no digest hashes, equal at every kernel
// lane count and sort cadence.
constexpr std::int64_t kDenseChargeExchanges = 894;
constexpr std::int64_t kDenseExactSigmas = 91;

void expect_dense_counters(const DenseRun& got) {
  EXPECT_GT(got.exact_sigmas, 0);
  EXPECT_LE(got.charge_exchanges, got.collisions);
  EXPECT_EQ(got.charge_exchanges, kDenseChargeExchanges);
  EXPECT_EQ(got.exact_sigmas, kDenseExactSigmas);
}

TEST(GoldenDense, DistributedWithRebalance) {
  const DenseRun got = run_dense(/*kernel_threads=*/1, /*sort_every=*/0);
  EXPECT_GT(got.collisions, 1000);
  EXPECT_EQ(got.digest, kGoldenDense)
      << "new digest: 0x" << std::hex << got.digest << "ULL";
  expect_dense_counters(got);
}

TEST(GoldenDense, FourKernelLanesMatch) {
  const DenseRun got = run_dense(/*kernel_threads=*/4, /*sort_every=*/0);
  EXPECT_EQ(got.digest, kGoldenDense)
      << "new digest: 0x" << std::hex << got.digest << "ULL";
  expect_dense_counters(got);
}

TEST(GoldenDense, SortEveryStepMatches) {
  const DenseRun got = run_dense(/*kernel_threads=*/1, /*sort_every=*/1);
  EXPECT_EQ(got.digest, kGoldenDense)
      << "new digest: 0x" << std::hex << got.digest << "ULL";
  expect_dense_counters(got);
}

// ---- Counters no digest covers ---------------------------------------------
// hash_run and fleet::RunDigest absorb neither the boundary exits of
// DSMC_Move and PIC_Move nor the ions PIC_Move's fine locate loses. These
// pin all three per step on the DC-with-rebalance run, at one and four
// kernel lanes. The run is longer than the digests' eight steps: no
// particle exits in the first twelve.

struct ExitCounters {
  std::uint64_t digest = 0;
  std::int64_t exited_dsmc = 0, exited_pic = 0, pic_lost = 0;
};

ExitCounters run_exit_counters(int kernel_threads) {
  ParallelConfig par;
  par.nranks = 6;
  par.strategy = exchange::Strategy::kDistributed;
  par.balance.enabled = true;
  par.balance.period = 3;
  par.kernel_threads = kernel_threads;
  CoupledSolver solver(tiny_config(), par);
  solver.run(24);
  ExitCounters out;
  Fnv1a d;
  for (const StepDiagnostics& s : solver.history()) {
    d.i64(s.exited_dsmc);
    d.i64(s.exited_pic);
    d.i64(s.pic_lost);
    out.exited_dsmc += s.exited_dsmc;
    out.exited_pic += s.exited_pic;
    out.pic_lost += s.pic_lost;
  }
  out.digest = d.value();
  return out;
}

constexpr std::uint64_t kGoldenExitCounters = 0xdcf3fcd7b81f0515ULL;

TEST(GoldenExitCounters, SerialKernels) {
  const ExitCounters got = run_exit_counters(/*kernel_threads=*/1);
  EXPECT_GT(got.exited_dsmc, 0);
  EXPECT_GT(got.exited_pic, 0);
  EXPECT_EQ(got.digest, kGoldenExitCounters)
      << "new digest: 0x" << std::hex << got.digest << "ULL";
}

TEST(GoldenExitCounters, FourKernelLanes) {
  const ExitCounters got = run_exit_counters(/*kernel_threads=*/4);
  EXPECT_GT(got.exited_dsmc, 0);
  EXPECT_GT(got.exited_pic, 0);
  EXPECT_EQ(got.digest, kGoldenExitCounters)
      << "new digest: 0x" << std::hex << got.digest << "ULL";
}

// ---- Timer cost model + look-ahead policy (DESIGN.md §2h) ------------------

// The timer-augmented run has its own golden: measured corrections feed the
// partition weights, so its trajectory legitimately differs from the static
// one — but it must still be one fixed, reproducible trajectory.
constexpr std::uint64_t kGoldenDcTimerLookahead = 0x95971dad00b61899ULL;

// Keeping --cost-model static (the default) must NOT move the original
// goldens — the static path bypasses the cost model entirely. That claim is
// pinned by the unchanged kGoldenDcBalanced constants above; this test pins
// the explicit-static spelling to the same value.
TEST(GoldenCostModel, ExplicitStaticMatchesOriginalGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*kernel_threads=*/1, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/0, balance::CostModelKind::kStatic,
                 balance::PolicyKind::kThreshold);
  EXPECT_EQ(got, kGoldenDcBalanced)
      << "new digest: 0x" << std::hex << got << "ULL";
}

TEST(GoldenCostModel, TimerLookaheadIsReproducible) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*kernel_threads=*/1, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/0, balance::CostModelKind::kTimer,
                 balance::PolicyKind::kLookahead);
  EXPECT_EQ(got, kGoldenDcTimerLookahead)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// The determinism contract across execution knobs, in golden form: kernel
// chunking and the periodic sort must be invisible to the timer-fed
// trajectory too (the corrections are pure virtual-time functions).
TEST(GoldenCostModel, TimerKernelThreadsMatchesTimerGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*kernel_threads=*/4, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/0, balance::CostModelKind::kTimer,
                 balance::PolicyKind::kLookahead);
  EXPECT_EQ(got, kGoldenDcTimerLookahead)
      << "new digest: 0x" << std::hex << got << "ULL";
}

TEST(GoldenCostModel, TimerSortedMatchesTimerGolden) {
  const std::uint64_t got =
      run_digest(exchange::Strategy::kDistributed, /*balance=*/true,
                 /*kernel_threads=*/2, /*traced=*/false, /*audited=*/false,
                 /*sort_every=*/2, balance::CostModelKind::kTimer,
                 balance::PolicyKind::kLookahead);
  EXPECT_EQ(got, kGoldenDcTimerLookahead)
      << "new digest: 0x" << std::hex << got << "ULL";
}

// ---- Redistribution paths: ensemble resizes and an NC rebalance -----------
// The goldens above rebalance only under DC. These pin the elastic
// ensemble's grow and shrink and a rebalance under the neighbor exchange,
// hashing the final owner map and active count as well, so a change to how
// the balancer migrates particles or installs a new decomposition shows up
// here.

struct Redistributed {
  std::uint64_t digest = 0;
  int active = 0;
  int rebalances = 0;   // redecompose calls: resizes + rebalances
  int resizes = 0;      // ensemble resizes
};

Redistributed run_redistribution(double particle_scale,
                                 const ParallelConfig& par, int steps) {
  CoupledSolver solver(tiny_config(particle_scale), par);
  solver.run(steps);
  Fnv1a d;
  hash_run(d, solver);
  for (const std::int32_t o : solver.owner()) d.i64(o);
  d.i64(solver.active_ranks());
  return {d.value(), solver.active_ranks(),
          solver.rebalance_stats().rebalances, solver.ensemble().resizes()};
}

ParallelConfig redistribution_parallel(int nranks) {
  ParallelConfig par;
  par.nranks = nranks;
  par.balance.period = 3;
  return par;
}

constexpr std::uint64_t kGoldenElasticGrow = 0x3c56468ee1469a45ULL;
constexpr std::uint64_t kGoldenElasticShrink = 0x1f296b225b6281d2ULL;
constexpr std::uint64_t kGoldenNeighborRebalance = 0xf6a22bf3ed6dbd52ULL;

TEST(GoldenRedistribution, ElasticGrow) {
  ParallelConfig par = redistribution_parallel(12);
  par.balance.enabled = false;
  par.balance.ensemble.kind = balance::EnsembleKind::kElastic;
  par.balance.ensemble.ranks_min = 2;
  par.balance.ensemble.initial = 2;
  const Redistributed got = run_redistribution(1.0, par, 12);
  EXPECT_EQ(got.active, 4);
  EXPECT_EQ(got.resizes, 1);
  EXPECT_EQ(got.digest, kGoldenElasticGrow)
      << "new digest: 0x" << std::hex << got.digest << "ULL";
}

TEST(GoldenRedistribution, ElasticShrinkWithRebalance) {
  ParallelConfig par = redistribution_parallel(12);
  par.balance.threshold = 1.01;
  par.balance.ensemble.kind = balance::EnsembleKind::kElastic;
  par.balance.ensemble.ranks_min = 4;
  const Redistributed got = run_redistribution(0.25, par, 12);
  EXPECT_EQ(got.active, 4);
  EXPECT_EQ(got.resizes, 2);
  EXPECT_EQ(got.rebalances, got.resizes + 1);
  EXPECT_EQ(got.digest, kGoldenElasticShrink)
      << "new digest: 0x" << std::hex << got.digest << "ULL";
}

TEST(GoldenRedistribution, NeighborExchangeRebalance) {
  ParallelConfig par = redistribution_parallel(6);
  par.strategy = exchange::Strategy::kNeighbor;
  par.balance.threshold = 1.01;
  const Redistributed got = run_redistribution(0.25, par, 9);
  EXPECT_EQ(got.active, 6);
  EXPECT_EQ(got.rebalances, 1);
  EXPECT_EQ(got.digest, kGoldenNeighborRebalance)
      << "new digest: 0x" << std::hex << got.digest << "ULL";
}

}  // namespace
}  // namespace dsmcpic::core
