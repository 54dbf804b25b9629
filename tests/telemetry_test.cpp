// Tests for the live telemetry bus (docs/observability.md §6): the
// deterministic 2:1 series downsampling, the flight recorder's postmortem
// dumps (byte-identical across execution knobs, triggered by fault trips,
// auditor aborts and fleet parks), the atomic Prometheus/JSON exposition,
// and — the load-bearing claim — that attaching a TelemetryHub perturbs
// neither solver digests nor run_report.json bytes. Golden pins hold the
// bytes of every per-run observability file fixed across commits, and the
// restore tests hold the per-step exchange volume across checkpoints.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "fleet/report.hpp"
#include "fleet/runner.hpp"
#include "obs/health_auditor.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "support/error.hpp"
#include "trace/chrome_writer.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::core {
namespace {

// ---- TelemetrySeries --------------------------------------------------------

TEST(TelemetrySeries, DownsamplesTwoToOneDeterministically) {
  obs::TelemetrySeries s(8);
  for (int step = 0; step < 100; ++step)
    s.push(step, static_cast<double>(step));
  // stride doubles at every fill: 1 -> 2 -> 4 -> 8 -> 16. The retained set
  // is a pure function of (capacity, steps pushed).
  EXPECT_EQ(s.stride(), 16);
  std::vector<std::int64_t> steps;
  for (const obs::TelemetrySeries::Point& p : s.points()) {
    steps.push_back(p.step);
    EXPECT_EQ(p.value, static_cast<double>(p.step));
  }
  EXPECT_EQ(steps, (std::vector<std::int64_t>{0, 16, 32, 48, 64, 80, 96}));
}

TEST(TelemetrySeries, NeverExceedsCapacity) {
  obs::TelemetrySeries s(4);
  for (int step = 0; step < 1000; ++step) s.push(step, 1.0);
  EXPECT_LT(s.points().size(), 4u);
  EXPECT_GE(s.points().size(), 2u);
}

TEST(TelemetryHub, RejectsNonPositiveKnobs) {
  obs::TelemetryConfig bad_interval;
  bad_interval.metrics_interval = 0;
  EXPECT_THROW(obs::TelemetryHub{bad_interval}, Error);
  obs::TelemetryConfig bad_recorder;
  bad_recorder.flight_recorder = 0;
  EXPECT_THROW(obs::TelemetryHub{bad_recorder}, Error);
  obs::TelemetryConfig bad_capacity;
  bad_capacity.series_capacity = 1;
  EXPECT_THROW(obs::TelemetryHub{bad_capacity}, Error);
}

// ---- end-to-end helpers -----------------------------------------------------

SolverConfig tiny_config() {
  Dataset d = make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

struct Knobs {
  par::ExecMode mode = par::ExecMode::kSequential;
  int exec_threads = 0;
  int kernel_threads = 1;
  int sort_every = 8;
};

std::uint64_t history_digest(const CoupledSolver& solver) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const StepDiagnostics& s : solver.history()) {
    mix(static_cast<std::uint64_t>(s.dsmc_step));
    for (const std::int64_t p : s.particles_per_rank)
      mix(static_cast<std::uint64_t>(p));
    mix(static_cast<std::uint64_t>(s.injected));
    mix(static_cast<std::uint64_t>(s.migrated_dsmc));
    mix(static_cast<std::uint64_t>(s.collisions));
    mix(static_cast<std::uint64_t>(s.poisson_iterations));
    mix(std::bit_cast<std::uint64_t>(s.lii));
    mix(s.rebalanced ? 1u : 0u);
  }
  for (int r = 0; r < solver.runtime().size(); ++r)
    mix(std::bit_cast<std::uint64_t>(solver.runtime().clock(r)));
  mix(std::bit_cast<std::uint64_t>(solver.runtime().total_time()));
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Runs the tiny scenario with a fault injected and a telemetry hub whose
/// postmortem lands in `dir`; returns the postmortem bytes.
std::string faulted_postmortem(FaultInjection fault, const Knobs& k,
                               const std::string& dir) {
  std::filesystem::create_directories(dir);
  SolverConfig cfg = tiny_config();
  cfg.fault = fault;
  cfg.sort_every = k.sort_every;
  ParallelConfig par;
  par.nranks = 6;
  par.balance.enabled = true;
  par.balance.period = 3;
  // Aggressive trigger so kSkewRebalanceCost (which only fires on an
  // actual rebalance) trips within the step budget.
  par.balance.threshold = 1.01;
  par.exec_mode = k.mode;
  par.exec_threads = k.exec_threads;
  par.kernel_threads = k.kernel_threads;
  obs::TelemetryConfig tc;
  tc.metrics_interval = 4;
  tc.flight_recorder = 4;
  tc.postmortem_path = dir + "/postmortem.json";
  tc.run_label = "telemetry_test";
  obs::TelemetryHub hub(tc);
  CoupledSolver solver(cfg, par);
  solver.set_telemetry(&hub);
  solver.run(14);
  EXPECT_TRUE(hub.postmortem_written())
      << "fault never tripped a postmortem";
  return slurp(tc.postmortem_path);
}

// ---- zero perturbation ------------------------------------------------------

TEST(TelemetryPerturbation, DigestsAndReportBytesAreIdenticalWithHub) {
  const auto run = [](bool with_hub, std::string* report_bytes) {
    SolverConfig cfg = tiny_config();
    ParallelConfig par;
    par.nranks = 6;
    par.balance.enabled = true;
    par.balance.period = 3;
    obs::TelemetryConfig tc;
    tc.metrics_interval = 1;
    tc.flight_recorder = 8;
    obs::TelemetryHub hub(tc);
    CoupledSolver solver(cfg, par);
    if (with_hub) solver.set_telemetry(&hub);
    solver.run(8);
    if (with_hub) {
      EXPECT_EQ(hub.samples_seen(), 8);
      EXPECT_EQ(hub.flight().size(), 8u);
    }
    // No host profiler attached: the report is then a pure function of the
    // deterministic run and must be BYTE-identical with the hub attached.
    obs::RunReport rep;
    fleet::ReportMeta meta;
    meta.bench = "telemetry_test";
    meta.case_name = "tiny";
    meta.seed = cfg.seed;
    meta.steps = 8;
    fleet::fill_run_report(rep, solver, solver.summary(), solver.history(),
                           meta);
    std::ostringstream os;
    obs::write_run_report(os, rep);
    *report_bytes = os.str();
    return history_digest(solver);
  };
  std::string plain_report, hub_report;
  const std::uint64_t plain = run(false, &plain_report);
  const std::uint64_t with_hub = run(true, &hub_report);
  EXPECT_EQ(with_hub, plain);
  EXPECT_EQ(hub_report, plain_report);
}

// ---- postmortem byte-identity across execution knobs ------------------------

class PostmortemFaults : public ::testing::TestWithParam<FaultInjection> {};

TEST_P(PostmortemFaults, BytesIdenticalAcrossExecKnobs) {
  const FaultInjection fault = GetParam();
  const std::string base = ::testing::TempDir() + "telemetry_pm_" +
                           std::to_string(static_cast<int>(fault));
  const std::string a = faulted_postmortem(
      fault, Knobs{par::ExecMode::kSequential, 0, 1, 8}, base + "_a");
  const std::string b = faulted_postmortem(
      fault, Knobs{par::ExecMode::kThreaded, 4, 4, 3}, base + "_b");
  const std::string c = faulted_postmortem(
      fault, Knobs{par::ExecMode::kSequential, 0, 2, 0}, base + "_c");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "postmortem depends on exec mode / kernel threads";
  EXPECT_EQ(a, c) << "postmortem depends on sort_every";
  EXPECT_NE(a.find(obs::kPostmortemSchema), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllFaults, PostmortemFaults,
                         ::testing::Values(FaultInjection::kDropParticle,
                                           FaultInjection::kSkewDeposit,
                                           FaultInjection::kSkewRebalanceCost));

TEST(Postmortem, AuditorAbortDumpsFlightRecorder) {
  const std::string dir = ::testing::TempDir() + "telemetry_abort";
  std::filesystem::create_directories(dir);
  SolverConfig cfg = tiny_config();
  cfg.fault = FaultInjection::kDropParticle;
  ParallelConfig par;
  par.nranks = 6;
  par.balance.enabled = true;
  par.balance.period = 3;
  obs::HealthAuditor auditor({obs::AuditSeverity::kAbort});
  obs::TelemetryConfig tc;
  tc.postmortem_path = dir + "/postmortem.json";
  obs::TelemetryHub hub(tc);
  CoupledSolver solver(cfg, par);
  solver.set_auditor(&auditor);
  solver.set_telemetry(&hub);
  EXPECT_THROW(solver.run(6), Error);
  EXPECT_TRUE(hub.postmortem_written());
  const std::string bytes = slurp(tc.postmortem_path);
  EXPECT_NE(bytes.find("\"reason\": \"abort\""), std::string::npos) << bytes;
}

TEST(Postmortem, FirstTriggerWins) {
  const std::string dir = ::testing::TempDir() + "telemetry_first";
  std::filesystem::create_directories(dir);
  obs::TelemetryConfig tc;
  tc.postmortem_path = dir + "/postmortem.json";
  obs::TelemetryHub hub(tc);
  hub.dump_postmortem("abort");
  hub.dump_postmortem("park");  // must NOT overwrite the abort dump
  const std::string bytes = slurp(tc.postmortem_path);
  EXPECT_NE(bytes.find("\"reason\": \"abort\""), std::string::npos);
  EXPECT_EQ(bytes.find("\"reason\": \"park\""), std::string::npos);
}

// ---- exposition -------------------------------------------------------------

TEST(Exposition, PublishesPromAndJsonAtomically) {
  const std::string dir = ::testing::TempDir() + "telemetry_expo";
  std::filesystem::create_directories(dir);
  SolverConfig cfg = tiny_config();
  ParallelConfig par;
  par.nranks = 6;
  par.balance.enabled = true;
  par.balance.period = 3;
  obs::TelemetryConfig tc;
  tc.metrics_interval = 3;
  tc.metrics_prom_path = dir + "/metrics.prom";
  tc.metrics_json_path = dir + "/metrics.json";
  tc.run_label = "expo/\"case0\"";  // exercises label escaping
  obs::TelemetryHub hub(tc);
  CoupledSolver solver(cfg, par);
  solver.set_telemetry(&hub);
  solver.run(7);
  EXPECT_GE(hub.publishes(), 2);  // steps 3 and 6 crossed the interval
  // No .tmp staging file may survive a publish.
  EXPECT_FALSE(std::filesystem::exists(dir + "/metrics.prom.tmp"));
  const std::string prom = slurp(tc.metrics_prom_path);
  EXPECT_NE(prom.find("# HELP dsmcpic_particles "), std::string::npos);
  EXPECT_NE(prom.find("# TYPE dsmcpic_particles gauge"), std::string::npos);
  EXPECT_NE(prom.find("run=\"expo/\\\"case0\\\"\""), std::string::npos)
      << prom.substr(0, 400);
  const std::string json = slurp(tc.metrics_json_path);
  EXPECT_NE(json.find(obs::kMetricsSchema), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
}

// ---- golden artifact bytes --------------------------------------------------
//
// FNV-1a-64 pins of every deterministic per-run file the observability sinks
// write for the tiny scenario (run report with count-mode audits, fault
// postmortem, trace JSON + metrics CSV, metrics exposition). The other tests
// compare these bytes within one build; these constants hold them fixed
// across commits, so a refactor of the sinks cannot drift a byte unnoticed.

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

ParallelConfig rebalancing_parallel() {
  ParallelConfig par;
  par.nranks = 6;
  par.balance.enabled = true;
  par.balance.period = 3;
  par.balance.threshold = 1.01;  // rebalances within the step budget
  return par;
}

TEST(GoldenArtifacts, RunReportWithCountAudits) {
  const SolverConfig cfg = tiny_config();
  obs::HealthAuditor auditor({obs::AuditSeverity::kCountOnly});
  CoupledSolver solver(cfg, rebalancing_parallel());
  solver.set_auditor(&auditor);
  solver.run(9);
  ASSERT_GT(solver.rebalance_stats().rebalances, 0);
  obs::RunReport rep;
  fleet::ReportMeta meta;
  meta.bench = "telemetry_test";
  meta.case_name = "tiny";
  meta.seed = cfg.seed;
  meta.steps = 9;
  meta.audit = "count";
  fleet::fill_run_report(rep, solver, solver.summary(), solver.history(),
                         meta);
  rep.audit = &auditor.report();
  std::ostringstream os;
  obs::write_run_report(os, rep);
  EXPECT_EQ(fnv1a64(os.str()), 0x4d6da2ca38965b99ULL) << os.str();
}

TEST(GoldenArtifacts, SkewDepositPostmortem) {
  const std::string bytes = faulted_postmortem(
      FaultInjection::kSkewDeposit, Knobs{},
      ::testing::TempDir() + "telemetry_golden_pm");
  EXPECT_EQ(fnv1a64(bytes), 0x10bb669fd716d188ULL) << bytes;
}

TEST(GoldenArtifacts, TraceJsonAndMetricsCsv) {
  CoupledSolver solver(tiny_config(), rebalancing_parallel());
  trace::TraceRecorder rec(6);
  solver.runtime().set_tracer(&rec);
  solver.run(9);
  ASSERT_GT(solver.rebalance_stats().rebalances, 0);
  std::ostringstream json, csv;
  trace::write_chrome_trace(rec, json);
  rec.metrics().write_csv(csv);
  EXPECT_EQ(fnv1a64(json.str()), 0x3c40de35eb2bd08eULL);
  EXPECT_EQ(fnv1a64(csv.str()), 0x7c7bfce0a8d704b7ULL) << csv.str();
}

TEST(GoldenArtifacts, MetricsExposition) {
  obs::HealthAuditor auditor({obs::AuditSeverity::kCountOnly});
  obs::TelemetryConfig tc;
  tc.series_capacity = 4;  // exercises the 2:1 downsampling
  tc.run_label = "golden";
  obs::TelemetryHub hub(tc);
  CoupledSolver solver(tiny_config(), rebalancing_parallel());
  solver.set_auditor(&auditor);
  solver.set_telemetry(&hub);
  solver.run(9);
  std::ostringstream prom, json;
  hub.write_prometheus(prom);
  hub.write_json_snapshot(json);
  EXPECT_EQ(fnv1a64(prom.str()), 0x3530972b5fa11a6cULL) << prom.str();
  EXPECT_EQ(fnv1a64(json.str()), 0x8680d40d9d0968d9ULL) << json.str();
}

// ---- checkpoint restore -----------------------------------------------------

/// What the sinks saw of the last steps: the postmortem's records array
/// (header stripped — samples_seen counts every step the hub ingested) and
/// the trace's bytes_migrated samples of the last `steps` steps.
struct RestoreView {
  std::string records;
  std::vector<std::int64_t> trace_steps;
  std::vector<double> bytes_migrated;
};

RestoreView restore_view(const obs::TelemetryHub& hub,
                         const trace::TraceRecorder& rec, int steps) {
  RestoreView v;
  std::ostringstream os;
  hub.write_postmortem(os, "probe");
  const std::string pm = os.str();
  const std::size_t at = pm.find("\"records\"");
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) v.records = pm.substr(at);
  const trace::MetricsRegistry& m = rec.metrics();
  for (const trace::CounterSample& s : m.samples())
    if (m.name_of(s.key) == "bytes_migrated") {
      v.trace_steps.push_back(s.step);
      v.bytes_migrated.push_back(s.value);
    }
  const std::size_t keep = static_cast<std::size_t>(steps);
  EXPECT_GE(v.bytes_migrated.size(), keep);
  v.trace_steps.erase(v.trace_steps.begin(), v.trace_steps.end() - keep);
  v.bytes_migrated.erase(v.bytes_migrated.begin(),
                         v.bytes_migrated.end() - keep);
  return v;
}

// The per-step exchange volume (telemetry exchange_bytes/messages series and
// totals, postmortem records, trace bytes_migrated) must not depend on how
// the solver reached a step: a fresh solver restored from a checkpoint (every
// fleet lease after the first) and a solver restored back into its own past
// (the step benchmark's replays) both report what the uninterrupted run did.
TEST(TelemetryRestore, RecordsMatchUninterruptedRun) {
  constexpr int kSave = 5, kEnd = 10, kTail = kEnd - kSave;
  const std::string ckpt = ::testing::TempDir() + "telemetry_restore.ckpt";
  const SolverConfig cfg = tiny_config();
  ParallelConfig par;
  par.nranks = 6;
  par.balance.enabled = true;
  par.balance.period = 3;
  obs::TelemetryConfig tc;
  tc.flight_recorder = kTail;

  obs::TelemetryHub ref_hub(tc);
  trace::TraceRecorder ref_rec(6);
  CoupledSolver ref(cfg, par);
  ref.set_telemetry(&ref_hub);
  ref.runtime().set_tracer(&ref_rec);
  ref.run(kSave);
  ref.save_checkpoint(ckpt);
  ref.run(kTail);
  const RestoreView want = restore_view(ref_hub, ref_rec, kTail);
  ASSERT_EQ(want.trace_steps.front(), kSave);

  {
    SCOPED_TRACE("fresh solver restored");
    obs::TelemetryHub hub(tc);
    trace::TraceRecorder rec(6);
    CoupledSolver solver(cfg, par);
    solver.set_telemetry(&hub);
    solver.runtime().set_tracer(&rec);
    solver.restore_checkpoint(ckpt);
    solver.run(kTail);
    const RestoreView got = restore_view(hub, rec, kTail);
    EXPECT_EQ(got.trace_steps, want.trace_steps);
    EXPECT_EQ(got.bytes_migrated, want.bytes_migrated);
    EXPECT_EQ(got.records, want.records);
  }
  {
    SCOPED_TRACE("same solver restored into its past");
    obs::TelemetryHub hub(tc);
    trace::TraceRecorder rec(6);
    CoupledSolver solver(cfg, par);
    solver.set_telemetry(&hub);
    solver.runtime().set_tracer(&rec);
    solver.run(kSave + 3);
    solver.restore_checkpoint(ckpt);
    solver.run(kTail);
    const RestoreView got = restore_view(hub, rec, kTail);
    EXPECT_EQ(got.trace_steps, want.trace_steps);
    EXPECT_EQ(got.bytes_migrated, want.bytes_migrated);
    EXPECT_EQ(got.records, want.records);
  }
  std::filesystem::remove(ckpt);
}

// ---- fleet integration ------------------------------------------------------

TEST(FleetTelemetry, ParkedRunLeavesPostmortemAndFleetMetrics) {
  const std::string dir = ::testing::TempDir() + "telemetry_fleet";
  std::filesystem::remove_all(dir);
  fleet::FleetOptions fo;
  fo.slots = 2;
  fo.results_dir = dir;
  fo.lease_steps = 2;
  fo.telemetry = true;
  fo.metrics_interval = 1;
  fleet::FleetRunner runner(fo);
  fleet::FleetJob a;
  a.scenario = "nozzle";
  a.steps = 4;
  a.park_at = 2;
  fleet::FleetJob b;
  b.scenario = "nozzle";
  b.steps = 4;
  b.seed = 43;
  runner.add(a);
  runner.add(b);
  const std::vector<fleet::FleetRunResult> results = runner.run_all();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].state, fleet::RunState::kParked);
  EXPECT_EQ(results[1].state, fleet::RunState::kDone);

  const std::string pm = slurp(dir + "/run000-nozzle/postmortem.json");
  EXPECT_NE(pm.find("\"reason\": \"park\""), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(dir + "/run000-nozzle/metrics.prom"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/run001-nozzle/metrics.json"));

  const std::string fleet_prom = slurp(dir + "/fleet_metrics.prom");
  EXPECT_NE(fleet_prom.find("dsmcpic_fleet_runs_parked 1"),
            std::string::npos);
  EXPECT_NE(fleet_prom.find("run=\"run001-nozzle\""), std::string::npos);
  const std::string summary = slurp(dir + "/fleet_summary.json");
  EXPECT_NE(summary.find("\"pending\": 0"), std::string::npos);
  EXPECT_NE(summary.find("\"parked\": 1"), std::string::npos);
}

}  // namespace
}  // namespace dsmcpic::core
