// Determinism harness for the threaded execution backend (DESIGN.md §2c):
// kThreaded must be bit-identical to kSequential in every observable —
// virtual clocks, per-phase PhaseStats, particle counts per rank, step
// diagnostics, and the final potential. EXPECT_EQ on doubles throughout is
// deliberate: the guarantee is bitwise, not approximate.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/datasets.hpp"
#include "core/solver.hpp"

namespace dsmcpic::core {
namespace {

SolverConfig tiny_config() {
  Dataset d = make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

struct RunResult {
  std::vector<double> clocks;
  std::vector<obs::PhaseRecord> phases;
  std::vector<std::int64_t> particles_per_rank;
  std::vector<double> potential;
  std::vector<StepDiagnostics> history;
  std::vector<balance::PolicyDecision> decisions;
  double total_time = 0.0;
};

RunResult run_solver(par::ExecMode mode, int nranks, int threads,
                     exchange::Strategy strategy, bool balance_enabled,
                     int steps, int kernel_threads = 1, int sort_every = 0,
                     balance::CostModelKind cost_model =
                         balance::CostModelKind::kStatic,
                     balance::PolicyKind policy =
                         balance::PolicyKind::kThreshold,
                     SolverConfig cfg = tiny_config()) {
  ParallelConfig par;
  par.nranks = nranks;
  par.strategy = strategy;
  par.balance.enabled = balance_enabled;
  par.balance.period = 4;
  par.balance.cost_model.kind = cost_model;
  par.balance.policy.kind = policy;
  par.exec_mode = mode;
  par.exec_threads = threads;
  par.kernel_threads = kernel_threads;
  cfg.sort_every = sort_every;
  CoupledSolver solver(cfg, par);
  solver.run(steps);

  RunResult r;
  for (int i = 0; i < solver.runtime().size(); ++i)
    r.clocks.push_back(solver.runtime().clock(i));
  const RunSummary summary = solver.summary();
  r.phases = summary.phases;
  r.particles_per_rank = solver.particles_per_rank();
  r.potential = solver.potential();
  r.history = solver.history();
  r.decisions = summary.decisions;
  r.total_time = solver.runtime().total_time();
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.clocks, b.clocks);
  EXPECT_EQ(a.total_time, b.total_time);

  // The when-to-rebalance decision sequence is part of the contract: every
  // recorded decision, including the cost projections it was based on,
  // must be bitwise identical.
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    const balance::PolicyDecision& da = a.decisions[i];
    const balance::PolicyDecision& db = b.decisions[i];
    EXPECT_EQ(da.step, db.step);
    EXPECT_EQ(da.lii, db.lii) << "decision " << i;
    EXPECT_EQ(da.imbalance_per_step, db.imbalance_per_step) << "decision " << i;
    EXPECT_EQ(da.projected_imbalance_cost, db.projected_imbalance_cost)
        << "decision " << i;
    EXPECT_EQ(da.rebalance_cost_estimate, db.rebalance_cost_estimate)
        << "decision " << i;
    EXPECT_EQ(da.rebalance, db.rebalance) << "decision " << i;
  }

  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const obs::PhaseRecord& sa = a.phases[i];
    const obs::PhaseRecord& sb = b.phases[i];
    ASSERT_EQ(sa.name, sb.name);
    EXPECT_EQ(sa.busy_max, sb.busy_max) << sa.name;
    EXPECT_EQ(sa.busy_min, sb.busy_min) << sa.name;
    EXPECT_EQ(sa.busy_sum, sb.busy_sum) << sa.name;
    EXPECT_EQ(sa.transactions, sb.transactions) << sa.name;
    EXPECT_EQ(sa.bytes, sb.bytes) << sa.name;
  }

  EXPECT_EQ(a.particles_per_rank, b.particles_per_rank);
  EXPECT_EQ(a.potential, b.potential);

  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const StepDiagnostics& da = a.history[i];
    const StepDiagnostics& db = b.history[i];
    EXPECT_EQ(da.dsmc_step, db.dsmc_step);
    EXPECT_EQ(da.particles_per_rank, db.particles_per_rank);
    EXPECT_EQ(da.total_h, db.total_h) << "step " << i;
    EXPECT_EQ(da.total_hplus, db.total_hplus) << "step " << i;
    EXPECT_EQ(da.injected, db.injected) << "step " << i;
    EXPECT_EQ(da.migrated_dsmc, db.migrated_dsmc) << "step " << i;
    EXPECT_EQ(da.migrated_pic, db.migrated_pic) << "step " << i;
    EXPECT_EQ(da.collisions, db.collisions) << "step " << i;
    EXPECT_EQ(da.ionizations, db.ionizations) << "step " << i;
    EXPECT_EQ(da.recombinations, db.recombinations) << "step " << i;
    EXPECT_EQ(da.poisson_iterations, db.poisson_iterations) << "step " << i;
    EXPECT_EQ(da.lii, db.lii) << "step " << i;
    EXPECT_EQ(da.rebalanced, db.rebalanced) << "step " << i;
  }
}

// The acceptance criterion of the execution backend: 10 steps at 8 ranks,
// 4 worker lanes, rebalancing on — threaded must match sequential exactly.
TEST(Determinism, ThreadedMatchesSequentialBitwise) {
  const RunResult seq =
      run_solver(par::ExecMode::kSequential, 8, 0,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10);
  const RunResult thr =
      run_solver(par::ExecMode::kThreaded, 8, 4,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10);
  expect_identical(seq, thr);
}

// Two threaded runs with the same seed must also agree with each other
// (schedule independence, not just seq/threaded agreement).
TEST(Determinism, TwoThreadedRunsAgree) {
  const RunResult a =
      run_solver(par::ExecMode::kThreaded, 8, 4,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10);
  const RunResult b =
      run_solver(par::ExecMode::kThreaded, 8, 4,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10);
  expect_identical(a, b);
}

// The guarantee holds for the centralized exchange too (root-driven
// superstep bodies exercise a different communication shape), and is
// independent of the lane count.
TEST(Determinism, CentralizedExchangeAndOddLaneCount) {
  const RunResult seq =
      run_solver(par::ExecMode::kSequential, 6, 0,
                 exchange::Strategy::kCentralized, /*balance=*/false, 6);
  const RunResult thr3 =
      run_solver(par::ExecMode::kThreaded, 6, 3,
                 exchange::Strategy::kCentralized, /*balance=*/false, 6);
  const RunResult thr2 =
      run_solver(par::ExecMode::kThreaded, 6, 2,
                 exchange::Strategy::kCentralized, /*balance=*/false, 6);
  expect_identical(seq, thr3);
  expect_identical(thr3, thr2);
}

// Intra-rank kernel parallelism (DESIGN.md §2d): chunking move/collide/
// react/deposit over a kernel pool must be bit-identical to serial kernels
// in every observable, field for field.
TEST(KernelThreads, FourLanesMatchSerialBitwise) {
  const RunResult serial =
      run_solver(par::ExecMode::kSequential, 8, 0,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10,
                 /*kernel_threads=*/1);
  const RunResult kt4 =
      run_solver(par::ExecMode::kSequential, 8, 0,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10,
                 /*kernel_threads=*/4);
  expect_identical(serial, kt4);
}

// Both levels at once: threaded superstep dispatch on top of kernel chunking
// (rank bodies share one kernel pool; its batches serialize internally).
TEST(KernelThreads, ComposesWithThreadedExecMode) {
  const RunResult serial =
      run_solver(par::ExecMode::kSequential, 8, 0,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10);
  const RunResult both =
      run_solver(par::ExecMode::kThreaded, 8, 4,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10,
                 /*kernel_threads=*/2);
  expect_identical(serial, both);
}

// Lane-count independence: the chunk boundaries differ between 2 and 4
// lanes, so agreement shows the kernels are invariant under chunking, not
// merely schedule-lucky.
TEST(KernelThreads, LaneCountIndependence) {
  const RunResult kt2 =
      run_solver(par::ExecMode::kSequential, 6, 0,
                 exchange::Strategy::kCentralized, /*balance=*/false, 6,
                 /*kernel_threads=*/2);
  const RunResult kt4 =
      run_solver(par::ExecMode::kSequential, 6, 0,
                 exchange::Strategy::kCentralized, /*balance=*/false, 6,
                 /*kernel_threads=*/4);
  expect_identical(kt2, kt4);
}

// The periodic cell sort (DESIGN.md §2g) must be invisible in every
// observable: sorting every step, every 7 steps, or never yields
// field-identical runs. This exercises the whole invariance chain — stable
// sort, stable compactions, cell-major reindex ids, order-canonical
// deposit — over multiple exchanges and rebalances.
TEST(SortDeterminism, SortIntervalInvariance) {
  const RunResult never =
      run_solver(par::ExecMode::kSequential, 8, 0,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10,
                 /*kernel_threads=*/1, /*sort_every=*/0);
  const RunResult every =
      run_solver(par::ExecMode::kSequential, 8, 0,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10,
                 /*kernel_threads=*/1, /*sort_every=*/1);
  const RunResult seven =
      run_solver(par::ExecMode::kSequential, 8, 0,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10,
                 /*kernel_threads=*/1, /*sort_every=*/7);
  expect_identical(never, every);
  expect_identical(every, seven);
}

// Sorting composed with both parallelism levels: a threaded-exec,
// kernel-chunked, sorted run must match the serial never-sorted run.
TEST(SortDeterminism, SortComposesWithBothParallelismLevels) {
  const RunResult plain =
      run_solver(par::ExecMode::kSequential, 8, 0,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10);
  const RunResult sorted_parallel =
      run_solver(par::ExecMode::kThreaded, 8, 4,
                 exchange::Strategy::kDistributed, /*balance=*/true, 10,
                 /*kernel_threads=*/4, /*sort_every=*/3);
  expect_identical(plain, sorted_parallel);
}

// Kernel-lane independence on sorted layouts: the cell-major order changes
// which particles each chunk sees, so 2-vs-4-lane agreement on a sorted
// store is a distinct claim from the unsorted LaneCountIndependence above.
TEST(SortDeterminism, SortedLaneCountIndependence) {
  const RunResult kt2 =
      run_solver(par::ExecMode::kSequential, 6, 0,
                 exchange::Strategy::kCentralized, /*balance=*/false, 6,
                 /*kernel_threads=*/2, /*sort_every=*/1);
  const RunResult kt4 =
      run_solver(par::ExecMode::kSequential, 6, 0,
                 exchange::Strategy::kCentralized, /*balance=*/false, 6,
                 /*kernel_threads=*/4, /*sort_every=*/1);
  expect_identical(kt2, kt4);
}

// Colli_React reuses the index Reindex built and rebuilds it only after a
// sort (DESIGN.md §2g). The tiny configuration collides nothing, so a stale
// index would go unnoticed above; a 3000x denser inflow at the same
// particle count puts every step's NTC loop on the index, including the
// ones a sort has just rebuilt it for.
TEST(SortDeterminism, SortIntervalInvarianceWithCollisions) {
  Dataset d = make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  d.config.density_h *= 3000.0;
  d.config.set_target_particles(d.target_h, d.target_hplus);
  const auto run = [&d](int kernel_threads, int sort_every) {
    return run_solver(par::ExecMode::kSequential, 8, 0,
                      exchange::Strategy::kDistributed, /*balance=*/true, 10,
                      kernel_threads, sort_every,
                      balance::CostModelKind::kStatic,
                      balance::PolicyKind::kThreshold, d.config);
  };
  const RunResult never = run(1, 0);
  std::int64_t collisions = 0;
  for (const StepDiagnostics& s : never.history) collisions += s.collisions;
  EXPECT_GT(collisions, 0);
  expect_identical(never, run(1, 1));
  expect_identical(never, run(4, 3));
}

// ---- Timer cost model + look-ahead policy (DESIGN.md §2h) ------------------
// The cost model feeds measured virtual time back into the partition
// weights, so any nondeterminism anywhere in the accounting would be
// amplified into diverging decompositions. These runs must stay bitwise
// identical — including the recorded decision sequences — across exec
// modes, kernel lane counts, and sort intervals.

TEST(CostModelDeterminism, TimerThreadedMatchesSequentialBitwise) {
  const RunResult seq = run_solver(
      par::ExecMode::kSequential, 8, 0, exchange::Strategy::kDistributed,
      /*balance=*/true, 10, /*kernel_threads=*/1, /*sort_every=*/0,
      balance::CostModelKind::kTimer, balance::PolicyKind::kLookahead);
  const RunResult thr = run_solver(
      par::ExecMode::kThreaded, 8, 4, exchange::Strategy::kDistributed,
      /*balance=*/true, 10, /*kernel_threads=*/1, /*sort_every=*/0,
      balance::CostModelKind::kTimer, balance::PolicyKind::kLookahead);
  expect_identical(seq, thr);
  EXPECT_FALSE(seq.decisions.empty());
}

TEST(CostModelDeterminism, TimerKernelLaneAndSortInvariance) {
  const RunResult plain = run_solver(
      par::ExecMode::kSequential, 8, 0, exchange::Strategy::kDistributed,
      /*balance=*/true, 10, /*kernel_threads=*/1, /*sort_every=*/0,
      balance::CostModelKind::kTimer, balance::PolicyKind::kLookahead);
  const RunResult kt4_sorted = run_solver(
      par::ExecMode::kSequential, 8, 0, exchange::Strategy::kDistributed,
      /*balance=*/true, 10, /*kernel_threads=*/4, /*sort_every=*/3,
      balance::CostModelKind::kTimer, balance::PolicyKind::kLookahead);
  expect_identical(plain, kt4_sorted);
}

TEST(CostModelDeterminism, TimerRunsAreRepeatable) {
  // Two identical invocations: the decision sequence (and everything else)
  // must reproduce exactly — the policy consumes only virtual-time signals.
  const RunResult a = run_solver(
      par::ExecMode::kThreaded, 8, 4, exchange::Strategy::kDistributed,
      /*balance=*/true, 10, /*kernel_threads=*/2, /*sort_every=*/0,
      balance::CostModelKind::kTimer, balance::PolicyKind::kLookahead);
  const RunResult b = run_solver(
      par::ExecMode::kThreaded, 8, 4, exchange::Strategy::kDistributed,
      /*balance=*/true, 10, /*kernel_threads=*/2, /*sort_every=*/0,
      balance::CostModelKind::kTimer, balance::PolicyKind::kLookahead);
  expect_identical(a, b);
}

}  // namespace
}  // namespace dsmcpic::core
