// Tests for the tracing & metrics subsystem (DESIGN.md §2e): JSON escaping,
// critical-path analysis on a hand-built DAG, byte-identical trace exports
// across execution backends, the recording-never-perturbs guarantee, and
// the fig05-style acceptance runs (straggler attribution, wait shrinking
// after a rebalance).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "trace/chrome_writer.hpp"
#include "trace/critical_path.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic {
namespace {

// ---------------------------------------------------------------------------
// JSON emission primitives

TEST(ChromeWriter, EscapeJson) {
  EXPECT_EQ(trace::escape_json("plain"), "plain");
  EXPECT_EQ(trace::escape_json("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(trace::escape_json("tab\there"), "tab\\there");
  EXPECT_EQ(trace::escape_json("nl\nret\r"), "nl\\nret\\r");
  EXPECT_EQ(trace::escape_json(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
}

TEST(ChromeWriter, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -2.5, 0.1, 1e-300, 3.141592653589793}) {
    const std::string s = trace::format_double(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
  // Non-finite values would corrupt the JSON; they degrade to 0.
  EXPECT_EQ(trace::format_double(std::numeric_limits<double>::infinity()), "0");
}

// ---------------------------------------------------------------------------
// Critical path on a hand-built 3-rank DAG
//
//   rank0: A[0,10] ----\                       /-- D cost [15,16]
//   rank1: preB[0,2]    sync B (max 10, +1) -- C[11,15] -- sync D (max 15, +1)
//   rank2: (idle) -----/
//
// The bounding chain is A(rank0) -> B's collective cost -> C(rank1) ->
// D's collective cost; every wait is off-chain.

struct Dag {
  trace::TraceRecorder rec{3};
  int pa, pb, pc, pd;

  Dag() {
    pa = rec.intern_phase("A");
    pb = rec.intern_phase("B");
    pc = rec.intern_phase("C");
    pd = rec.intern_phase("D");
    const int move = rec.intern_key("move");
    rec.add_span({0, pa, trace::SpanKind::kCompute, 0.0, 10.0, 0,
                  {{move, 123.0}}});
    rec.add_span({1, pb, trace::SpanKind::kCompute, 0.0, 2.0, 0, {}});
    rec.add_sync({pb, 1, 10.0, 11.0, 0, {10.0, 2.0, 0.0}});
    rec.add_span({1, pc, trace::SpanKind::kCompute, 11.0, 15.0, 2, {}});
    rec.add_sync({pd, 3, 15.0, 16.0, 1, {11.0, 15.0, 11.0}});
  }
};

TEST(CriticalPath, HandBuiltDagChainAndAttribution) {
  Dag d;
  trace::CriticalPathAnalyzer cp(d.rec);
  const trace::CriticalPathResult r = cp.analyze();

  EXPECT_DOUBLE_EQ(r.end_time, 16.0);
  ASSERT_EQ(r.chain.size(), 4u);

  EXPECT_EQ(r.chain[0].rank, 0);
  EXPECT_EQ(r.chain[0].phase, d.pa);
  EXPECT_EQ(r.chain[0].kind, trace::SpanKind::kCompute);
  EXPECT_DOUBLE_EQ(r.chain[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(r.chain[0].t1, 10.0);

  EXPECT_EQ(r.chain[1].rank, 1);
  EXPECT_EQ(r.chain[1].phase, d.pb);
  EXPECT_EQ(r.chain[1].kind, trace::SpanKind::kSync);

  EXPECT_EQ(r.chain[2].rank, 1);
  EXPECT_EQ(r.chain[2].phase, d.pc);
  EXPECT_DOUBLE_EQ(r.chain[2].duration(), 4.0);

  EXPECT_EQ(r.chain[3].rank, 0);
  EXPECT_EQ(r.chain[3].phase, d.pd);
  EXPECT_EQ(r.chain[3].kind, trace::SpanKind::kSync);

  EXPECT_DOUBLE_EQ(r.path_compute, 14.0);
  EXPECT_DOUBLE_EQ(r.path_comm, 2.0);
  EXPECT_DOUBLE_EQ(r.untracked, 0.0);
  EXPECT_DOUBLE_EQ(r.compute_by_rank_phase.at({0, d.pa}), 10.0);
  EXPECT_DOUBLE_EQ(r.compute_by_rank_phase.at({1, d.pc}), 4.0);

  ASSERT_EQ(r.path_by_rank.size(), 3u);
  EXPECT_DOUBLE_EQ(r.path_by_rank[0], 11.0);
  EXPECT_DOUBLE_EQ(r.path_by_rank[1], 5.0);
  EXPECT_DOUBLE_EQ(r.path_by_rank[2], 0.0);

  // Waits: B makes rank1 wait 8 and rank2 wait 10; D makes ranks 0 and 2
  // wait 4 each. None of it is on the chain.
  EXPECT_DOUBLE_EQ(r.wait_by_rank[0], 4.0);
  EXPECT_DOUBLE_EQ(r.wait_by_rank[1], 8.0);
  EXPECT_DOUBLE_EQ(r.wait_by_rank[2], 14.0);
  EXPECT_DOUBLE_EQ(r.total_wait, 26.0);
  EXPECT_DOUBLE_EQ(r.wait_by_phase[d.pb], 18.0);
  EXPECT_DOUBLE_EQ(r.wait_by_phase[d.pd], 8.0);

  std::ostringstream report;
  cp.print(r, report);
  EXPECT_NE(report.str().find("dominant compute on the path: rank 0 in A"),
            std::string::npos)
      << report.str();
}

TEST(CriticalPath, WaitInWindowSplitsBySyncTime) {
  Dag d;
  trace::CriticalPathAnalyzer cp(d.rec);
  const std::vector<double> before = cp.wait_in_window(0.0, 12.0);
  EXPECT_DOUBLE_EQ(before[0], 0.0);
  EXPECT_DOUBLE_EQ(before[1], 8.0);
  EXPECT_DOUBLE_EQ(before[2], 10.0);
  const std::vector<double> after = cp.wait_in_window(12.0, 20.0);
  EXPECT_DOUBLE_EQ(after[0], 4.0);
  EXPECT_DOUBLE_EQ(after[1], 0.0);
  EXPECT_DOUBLE_EQ(after[2], 4.0);
}

// ---------------------------------------------------------------------------
// End-to-end recording on the coupled solver

core::SolverConfig tiny_config() {
  core::Dataset d = core::make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

core::ParallelConfig tiny_parallel(par::ExecMode mode, int threads,
                                   int kernel_threads, bool balance) {
  core::ParallelConfig par;
  par.nranks = 6;
  par.strategy = exchange::Strategy::kDistributed;
  par.balance.enabled = balance;
  par.balance.period = 4;
  par.exec_mode = mode;
  par.exec_threads = threads;
  par.kernel_threads = kernel_threads;
  return par;
}

struct TracedRun {
  std::string json;
  std::string csv;
  std::vector<double> clocks;
  double total_time = 0.0;
  std::vector<double> potential;
  std::vector<std::int64_t> particles_per_rank;
  std::vector<core::StepDiagnostics> history;
};

TracedRun run_traced(par::ExecMode mode, int threads, int kernel_threads,
                     bool attach_tracer = true, bool balance = true,
                     int steps = 8) {
  core::CoupledSolver solver(tiny_config(),
                             tiny_parallel(mode, threads, kernel_threads,
                                           balance));
  trace::TraceRecorder rec(6);
  if (attach_tracer) solver.runtime().set_tracer(&rec);
  solver.run(steps);

  TracedRun r;
  if (attach_tracer) {
    std::ostringstream json, csv;
    trace::write_chrome_trace(rec, json);
    rec.metrics().write_csv(csv);
    r.json = json.str();
    r.csv = csv.str();
  }
  for (int i = 0; i < solver.runtime().size(); ++i)
    r.clocks.push_back(solver.runtime().clock(i));
  r.total_time = solver.runtime().total_time();
  r.potential = solver.potential();
  r.particles_per_rank = solver.particles_per_rank();
  r.history = solver.history();
  return r;
}

// Identical trace BYTES — not merely equivalent events — for every
// execution backend: recording happens on the driver thread only.
TEST(TraceDeterminism, IdenticalBytesAcrossExecModes) {
  const TracedRun seq = run_traced(par::ExecMode::kSequential, 0, 1);
  const TracedRun thr = run_traced(par::ExecMode::kThreaded, 4, 1);
  const TracedRun kt4 = run_traced(par::ExecMode::kSequential, 0, 4);

  ASSERT_FALSE(seq.json.empty());
  EXPECT_EQ(seq.json, thr.json);
  EXPECT_EQ(seq.json, kt4.json);
  EXPECT_EQ(seq.csv, thr.csv);
  EXPECT_EQ(seq.csv, kt4.csv);
}

// Attaching a recorder must not move a single clock tick or particle.
TEST(TraceDeterminism, RecordingDoesNotPerturbTheRun) {
  const TracedRun with = run_traced(par::ExecMode::kSequential, 0, 1,
                                    /*attach_tracer=*/true);
  const TracedRun without = run_traced(par::ExecMode::kSequential, 0, 1,
                                       /*attach_tracer=*/false);
  EXPECT_EQ(with.clocks, without.clocks);
  EXPECT_EQ(with.total_time, without.total_time);
  EXPECT_EQ(with.potential, without.potential);
  EXPECT_EQ(with.particles_per_rank, without.particles_per_rank);
  ASSERT_EQ(with.history.size(), without.history.size());
  for (std::size_t i = 0; i < with.history.size(); ++i) {
    EXPECT_EQ(with.history[i].total_h, without.history[i].total_h);
    EXPECT_EQ(with.history[i].lii, without.history[i].lii);
    EXPECT_EQ(with.history[i].rebalanced, without.history[i].rebalanced);
  }
}

// The export has one named lane per rank plus spans, flows, and counters.
TEST(TraceExport, ContainsLanesFlowsAndCounters) {
  const TracedRun r = run_traced(par::ExecMode::kSequential, 0, 1);
  for (int rank = 0; rank < 6; ++rank) {
    const std::string lane = "\"rank " + std::to_string(rank) + "\"";
    EXPECT_NE(r.json.find(lane), std::string::npos) << lane;
  }
  EXPECT_NE(r.json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(r.json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(r.json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(r.json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_EQ(r.csv.substr(0, r.csv.find('\n')),
            "step,counter,rank,value,virtual_time");
  EXPECT_NE(r.csv.find("particles_owned"), std::string::npos);
  EXPECT_NE(r.csv.find("lii"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fig. 5-style acceptance: on an imbalanced run the analyzer pins the
// dominant path compute on the overloaded rank's particle phases, and with
// the balancer on, per-step wait shrinks after the rebalance point.

// Dataset 2 is the paper's Fig. 5 scenario: the inlet-side rank ends up
// holding nearly all particles. 4 ranks, axial decomposition.
core::SolverConfig imbalanced_config() {
  core::Dataset d = core::make_dataset(2, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

core::ParallelConfig imbalanced_parallel(bool balance) {
  core::ParallelConfig par;
  par.nranks = 4;
  par.strategy = exchange::Strategy::kDistributed;
  par.balance.enabled = balance;
  par.balance.period = 4;
  // The scaled-down run's lii stays near 1.05 in 10 steps; lower the paper's
  // 2.0 trigger so a rebalance actually happens inside the test budget.
  par.balance.threshold = 1.02;
  return par;
}

TEST(CriticalPath, ImbalancedRunBlamesTheOverloadedRank) {
  core::CoupledSolver solver(imbalanced_config(), imbalanced_parallel(false));
  trace::TraceRecorder rec(4);
  solver.runtime().set_tracer(&rec);
  solver.run(10);

  const std::vector<std::int64_t> parts = solver.particles_per_rank();
  const int overloaded = static_cast<int>(
      std::max_element(parts.begin(), parts.end()) - parts.begin());
  ASSERT_GT(parts[overloaded], 0);

  trace::CriticalPathAnalyzer cp(rec);
  const trace::CriticalPathResult r = cp.analyze();
  ASSERT_FALSE(r.compute_by_rank_phase.empty());
  const auto top = std::max_element(
      r.compute_by_rank_phase.begin(), r.compute_by_rank_phase.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_EQ(top->first.first, overloaded);

  // The overloaded rank's DSMC_Move spans sit on the path, and dominate
  // every other rank's share of that phase.
  const int move = [&] {
    const auto& names = rec.phase_names();
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == "DSMC_Move") return static_cast<int>(i);
    return -1;
  }();
  ASSERT_GE(move, 0);
  const auto it = r.compute_by_rank_phase.find({overloaded, move});
  ASSERT_NE(it, r.compute_by_rank_phase.end());
  EXPECT_GT(it->second, 0.0);
  for (int rank = 0; rank < 4; ++rank) {
    if (rank == overloaded) continue;
    const auto other = r.compute_by_rank_phase.find({rank, move});
    if (other != r.compute_by_rank_phase.end()) {
      EXPECT_LT(other->second, it->second) << "rank " << rank;
    }
  }

  // Virtual time is bounded by the chain: compute + comm + untracked on
  // the path reconstructs end-to-end time exactly.
  EXPECT_NEAR(r.path_compute + r.path_comm + r.untracked, r.end_time,
              1e-6 * r.end_time);
}

// The rebalance takes the overloaded rank off the hook: before it, most
// wait time across the machine is blamed on the overloaded rank (it is the
// argmax_rank the other ranks idle for at nearly every sync); afterwards
// that blame share collapses. Absolute wait keeps growing with the particle
// population, so blame share — not raw wait — is the clean signal.
TEST(CriticalPath, RebalanceShiftsWaitBlameOffTheOverloadedRank) {
  core::CoupledSolver solver(imbalanced_config(), imbalanced_parallel(true));
  trace::TraceRecorder rec(4);
  solver.runtime().set_tracer(&rec);
  solver.run(10);

  // The solver marks every accepted rebalance with an instant.
  double t_reb = -1.0;
  for (const trace::Instant& i : rec.instants())
    if (i.name.rfind("rebalance", 0) == 0) {
      t_reb = i.t;
      break;
    }
  ASSERT_GE(t_reb, 0.0) << "no rebalance happened in 10 steps";
  ASSERT_GT(rec.end_time(), t_reb);

  // "Overloaded" means before the rebalance moved its particles away, so
  // read it from the step diagnostics preceding the rebalanced step.
  const std::vector<core::StepDiagnostics>& hist0 = solver.history();
  const auto first_reb = std::find_if(hist0.begin(), hist0.end(),
                                      [](const core::StepDiagnostics& d) {
                                        return d.rebalanced;
                                      });
  ASSERT_NE(first_reb, hist0.end());
  ASSERT_NE(first_reb, hist0.begin());
  const std::vector<std::int64_t>& parts = (first_reb - 1)->particles_per_rank;
  const int overloaded = static_cast<int>(
      std::max_element(parts.begin(), parts.end()) - parts.begin());

  double before_all = 0.0, before_blamed = 0.0;
  double after_all = 0.0, after_blamed = 0.0;
  for (const trace::SyncRec& s : rec.syncs()) {
    double w = 0.0;
    for (int r = 0; r < 4; ++r) w += s.t_max - s.arrive[r];
    if (w <= 0.0) continue;
    const bool blamed = s.argmax_rank == overloaded;
    if (s.t_max < t_reb) {
      before_all += w;
      if (blamed) before_blamed += w;
    } else {
      after_all += w;
      if (blamed) after_blamed += w;
    }
  }
  ASSERT_GT(before_all, 0.0);
  ASSERT_GT(after_all, 0.0);
  const double before_share = before_blamed / before_all;
  const double after_share = after_blamed / after_all;
  EXPECT_GT(before_share, 0.5);
  EXPECT_LT(after_share, 0.5 * before_share);

  // Same story through wait_in_window: pre-rebalance the overloaded rank
  // is the one NOT waiting — every other rank out-waits it.
  trace::CriticalPathAnalyzer cp(rec);
  const std::vector<double> before = cp.wait_in_window(0.0, t_reb);
  for (int r = 0; r < 4; ++r) {
    if (r != overloaded) {
      EXPECT_GT(before[r], before[overloaded]) << r;
    }
  }

  // And the recorded lii counter drops at the step after the rebalance.
  ASSERT_NE(first_reb + 1, hist0.end());
  EXPECT_LT((first_reb + 1)->lii, first_reb->lii);
}

}  // namespace
}  // namespace dsmcpic
