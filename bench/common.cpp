#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>

#include "fleet/report.hpp"
#include "obs/health_auditor.hpp"
#include "obs/host_profiler.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "support/error.hpp"
#include "trace/chrome_writer.hpp"
#include "trace/critical_path.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::bench {

par::MachineProfile BenchOptions::profile() const {
  if (machine == "tianhe2") return par::MachineProfile::tianhe2();
  if (machine == "bscc") return par::MachineProfile::bscc();
  if (machine == "tianhe3") return par::MachineProfile::tianhe3();
  DSMCPIC_CHECK_USAGE(false, "unknown machine '" << machine
                                                 << "' (tianhe2|bscc|tianhe3)");
  return par::MachineProfile::tianhe2();
}

CommonFlags::CommonFlags(Cli& cli, std::string bench_name,
                         const std::string& default_ranks, int default_steps)
    : bench_name_(std::move(bench_name)) {
  ranks_ = cli.add_string("ranks", default_ranks,
                          "comma-separated virtual rank counts to sweep");
  steps_ = cli.add_int("steps", default_steps, "DSMC steps per run");
  particles_ = cli.add_double(
      "particles", 1.0, "particle-target multiplier (1.0 = library default)");
  machine_ = cli.add_string("machine", "tianhe2",
                            "machine profile: tianhe2 | bscc | tianhe3");
  seed_ = cli.add_int("seed", 42, "base RNG seed");
  exec_mode_ = cli.add_string(
      "exec-mode", "seq",
      "superstep execution backend: seq | threaded (bit-identical results)");
  threads_ = cli.add_int(
      "threads", 0, "worker lanes for --exec-mode threaded (0 = all cores)");
  kernel_threads_ = cli.add_int(
      "kernel-threads", 1,
      "intra-rank kernel lanes (1 = serial; bit-identical results)");
  sort_every_ = cli.add_int(
      "sort-every", 8,
      "cell-sort the particle stores every N DSMC steps "
      "(0 = never; bit-identical results)");
  trace_ = cli.add_string(
      "trace", "",
      "write a Chrome/Perfetto trace JSON of each case to this path "
      "(plus .metrics.csv and a critical-path report on stderr)");
  report_ = cli.add_string(
      "report", "",
      "write a machine-readable run_report.json of each case to this path "
      "(case N > 0 gets .caseN inserted; includes host-profiler timings)");
  audit_ = cli.add_string(
      "audit", "off",
      "per-step health audits: off | warn | abort | count "
      "(never perturbs results)");
  cost_model_ = cli.add_string(
      "cost-model", "static",
      "balancer weight model: static (pure Eq. 7) | timer");
  policy_ = cli.add_string(
      "policy", "threshold",
      "when-to-rebalance policy: threshold | lookahead");
  horizon_ = cli.add_int(
      "horizon", 20,
      "look-ahead horizon in DSMC steps for --policy lookahead "
      "(0 falls back to the threshold trigger)");
  ensemble_ = cli.add_string(
      "ensemble", "fixed",
      "rank ensemble: fixed | elastic (resizes the active rank set "
      "within --ranks-min/--ranks-max from observed load)");
  ranks_min_ = cli.add_int(
      "ranks-min", 1, "smallest active rank count for --ensemble elastic");
  ranks_max_ = cli.add_int(
      "ranks-max", 0,
      "largest active rank count for --ensemble elastic (0 = nominal)");
  ranks_initial_ = cli.add_int(
      "ranks-initial", 0,
      "active rank count at init (0 = all; honored for --ensemble fixed "
      "too, giving a fixed reduced ensemble on a larger nominal machine)");
  metrics_dir_ = cli.add_string(
      "metrics-dir", "",
      "publish live telemetry into this directory: metrics.prom + "
      "metrics.json every --metrics-interval steps, postmortem.json on "
      "abort/fault (case N > 0 gets .caseN inserted; never perturbs "
      "results)");
  metrics_interval_ = cli.add_int(
      "metrics-interval", 10,
      "republish metrics.prom/metrics.json every K DSMC steps (>= 1)");
  flight_recorder_ = cli.add_int(
      "flight-recorder", 32,
      "flight-recorder depth: last N superstep records kept for "
      "postmortem.json (>= 1)");
}

BenchOptions CommonFlags::finish() const {
  BenchOptions o;
  o.ranks = parse_rank_list(*ranks_);
  o.steps = int_flag("steps", *steps_, 1);
  o.particle_scale = *particles_;
  DSMCPIC_CHECK_USAGE(std::isfinite(o.particle_scale) && o.particle_scale > 0.0,
                      "--particles must be finite and > 0");
  o.machine = *machine_;
  o.seed = static_cast<std::uint64_t>(*seed_);
  o.exec_mode = par::parse_exec_mode(*exec_mode_);
  o.exec_threads = int_flag("threads", *threads_);
  o.kernel_threads = int_flag("kernel-threads", *kernel_threads_);
  o.sort_every = int_flag("sort-every", *sort_every_, 0);
  o.trace_path = *trace_;
  o.bench_name = bench_name_;
  o.report_path = *report_;
  o.audit = *audit_;
  if (o.audit != "off") obs::parse_audit_severity(o.audit);  // validate early
  o.cost_model = *cost_model_;
  balance::parse_cost_model(o.cost_model);  // validate early
  o.policy = *policy_;
  balance::parse_policy(o.policy);
  o.horizon = int_flag("horizon", *horizon_, 0);
  o.ensemble = *ensemble_;
  balance::parse_ensemble(o.ensemble);  // validate early
  o.ranks_min = int_flag("ranks-min", *ranks_min_, 1);
  o.ranks_max = int_flag("ranks-max", *ranks_max_, 0);
  o.ranks_initial = int_flag("ranks-initial", *ranks_initial_, 0);
  o.metrics_dir = *metrics_dir_;
  o.metrics_interval = int_flag("metrics-interval", *metrics_interval_, 1);
  o.flight_recorder = int_flag("flight-recorder", *flight_recorder_, 1);
  return o;
}

FleetFlags::FleetFlags(Cli& cli) {
  slots_ = cli.add_int("fleet-slots", 4,
                       "concurrent runs (one thread-pool slot each)");
  runs_ = cli.add_int("fleet-runs", 8,
                      "total runs to execute (round-robin over scenarios)");
  scenarios_ = cli.add_string(
      "fleet-scenarios", "",
      "comma-separated scenario names (empty = the whole corpus: "
      "nozzle,reentry,twin-plume,pulsed-inlet)");
  lease_ = cli.add_int(
      "fleet-lease", 0,
      "preemption granularity: max DSMC steps per slot lease before the run "
      "is checkpointed and requeued (0 = run to completion)");
  park_ = cli.add_int(
      "fleet-park", 0,
      "park the first run at this DSMC step (checkpointed, slot freed, "
      "left resumable) to exercise the in-progress fleet summary shape; "
      "0 = off, requires --results-dir");
  results_dir_ = cli.add_string(
      "results-dir", "",
      "per-run output root (<dir>/<run_id>/run_report.json + digest.txt, "
      "plus <dir>/fleet_summary.json); required for --fleet-lease");
  out_ = cli.add_string("out", "",
                        "write fleet throughput lanes as JSON to this path");
}

FleetBenchOptions FleetFlags::finish() const {
  FleetBenchOptions o;
  o.slots = int_flag("fleet-slots", *slots_, 1);
  o.runs = int_flag("fleet-runs", *runs_, 1);
  o.scenarios = *scenarios_;
  o.lease = int_flag("fleet-lease", *lease_, 0);
  o.park = int_flag("fleet-park", *park_, 0);
  o.results_dir = *results_dir_;
  o.out = *out_;
  DSMCPIC_CHECK_USAGE(o.lease == 0 || !o.results_dir.empty(),
                      "--fleet-lease requires --results-dir");
  DSMCPIC_CHECK_USAGE(o.park == 0 || !o.results_dir.empty(),
                      "--fleet-park requires --results-dir");
  return o;
}

bool parse_or_usage(Cli& cli, int argc, const char* const* argv) {
  try {
    if (!cli.parse(argc, argv)) return false;
    DSMCPIC_CHECK_USAGE(cli.positional().empty(),
                        "unexpected argument '" << cli.positional().front()
                                                << "'\n" << cli.help_text());
    return true;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

int int_flag(const std::string& name, std::int64_t value, int lo) {
  constexpr int kMax = std::numeric_limits<int>::max();
  DSMCPIC_CHECK_USAGE(value >= lo && value <= kMax,
                      "--" << name << " must be >= " << lo << " and <= " << kMax
                           << ", got " << value);
  return static_cast<int>(value);
}

std::vector<int> parse_rank_list(const std::string& csv,
                                 const std::string& flag) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::int64_t v = parse_int(flag, item);
    DSMCPIC_CHECK_USAGE(v >= 1 && v <= std::numeric_limits<int>::max(),
                        "flag --" << flag << ": '" << item
                                  << "' is not in [1, 2^31 - 1]");
    out.push_back(static_cast<int>(v));
  }
  DSMCPIC_CHECK_USAGE(!out.empty(), "empty rank list");
  return out;
}

std::vector<std::string> parse_scenarios(const std::string& csv,
                                         const fleet::ScenarioCorpus& corpus) {
  std::vector<std::string> names;
  if (csv.empty()) {
    for (const fleet::Scenario& sc : corpus.all()) names.push_back(sc.name);
    return names;
  }
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    if (!corpus.find(item)) {
      std::string known;
      for (const fleet::Scenario& sc : corpus.all()) known += " " + sc.name;
      throw UsageError("--fleet-scenarios: unknown scenario '" + item +
                       "' (corpus:" + known + ")");
    }
    names.push_back(item);
  }
  DSMCPIC_CHECK_USAGE(!names.empty(), "empty --fleet-scenarios list");
  return names;
}

core::ParallelConfig make_parallel(const core::Dataset& ds, int nranks,
                                   exchange::Strategy strategy,
                                   bool balance_enabled,
                                   const BenchOptions& opt) {
  core::ParallelConfig par;
  par.nranks = nranks;
  par.profile = opt.profile();
  par.strategy = strategy;
  par.balance.enabled = balance_enabled;
  // Paper defaults (Sec. VII-B): Threshold 2.0, R = pic_substeps, W_cell 1.
  // T is "automatically chosen during a pilot study" in the paper (20 on
  // their setup); our scaled run grows its population faster, and the same
  // pilot sweep (bench_fig12_T_sweep) picks T = 10.
  par.balance.threshold = 2.0;
  par.balance.period = 10;
  par.balance.weight_ratio = ds.config.pic_substeps;
  par.balance.cell_weight = 1.0;
  par.balance.cost_model.kind = balance::parse_cost_model(opt.cost_model);
  par.balance.policy.kind = balance::parse_policy(opt.policy);
  par.balance.policy.horizon = opt.horizon;
  par.balance.ensemble.kind = balance::parse_ensemble(opt.ensemble);
  par.balance.ensemble.ranks_min = opt.ranks_min;
  par.balance.ensemble.ranks_max = opt.ranks_max;
  par.balance.ensemble.initial = opt.ranks_initial;
  par.particle_scale = ds.paper_particle_scale;
  par.grid_scale = ds.paper_grid_scale;
  par.exec_mode = opt.exec_mode;
  par.exec_threads = opt.exec_threads;
  par.kernel_threads = opt.kernel_threads;
  return par;
}

std::string trace_case_path(const std::string& base, int index) {
  if (index == 0) return base;
  const std::string insert = ".case" + std::to_string(index);
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return base + insert;
  return base.substr(0, dot) + insert + base.substr(dot);
}

CaseResult run_case(const core::Dataset& ds, const core::ParallelConfig& par,
                    const BenchOptions& opt) {
  // One output file per case: the process-wide counter disambiguates the
  // multiple run_case() calls a bench makes (sweep points, LB on/off).
  // Shared by --trace and --report so their .caseN suffixes line up.
  static int case_counter = 0;
  const int case_index = case_counter++;

  core::SolverConfig cfg = ds.config;
  cfg.seed = opt.seed;
  cfg.sort_every = opt.sort_every;
  cfg.poisson.rel_tol = 1e-5;  // KSP-like default tolerance
  cfg.poisson.max_iterations = 200;

  // Observers outlive the solver (declared first), so dangling detach on
  // scope exit is impossible.
  std::unique_ptr<obs::HealthAuditor> auditor;
  if (opt.audit != "off")
    auditor = std::make_unique<obs::HealthAuditor>(
        obs::AuditConfig{obs::parse_audit_severity(opt.audit)});
  std::unique_ptr<obs::HostProfiler> prof;
  if (!opt.report_path.empty()) prof = std::make_unique<obs::HostProfiler>();

  std::unique_ptr<obs::TelemetryHub> hub;
  if (!opt.metrics_dir.empty()) {
    std::filesystem::create_directories(opt.metrics_dir);
    obs::TelemetryConfig tc;
    tc.metrics_interval = opt.metrics_interval;
    tc.flight_recorder = opt.flight_recorder;
    tc.metrics_prom_path =
        trace_case_path(opt.metrics_dir + "/metrics.prom", case_index);
    tc.metrics_json_path =
        trace_case_path(opt.metrics_dir + "/metrics.json", case_index);
    tc.postmortem_path =
        trace_case_path(opt.metrics_dir + "/postmortem.json", case_index);
    tc.run_label = opt.bench_name + "/case" + std::to_string(case_index);
    hub = std::make_unique<obs::TelemetryHub>(tc);
  }

  core::CoupledSolver solver(cfg, par);
  solver.set_auditor(auditor.get());
  solver.set_host_profiler(prof.get());
  if (hub) {
    hub->set_host_profiler(prof.get());
    solver.set_telemetry(hub.get());
  }

  std::unique_ptr<trace::TraceRecorder> rec;
  if (!opt.trace_path.empty()) {
    rec = std::make_unique<trace::TraceRecorder>(par.nranks);
    solver.runtime().set_tracer(rec.get());
  }

  solver.run(opt.steps);

  // Final snapshot so a run shorter than the interval still leaves
  // complete metrics files behind.
  if (hub) hub->publish();

  if (rec) {
    solver.runtime().set_tracer(nullptr);
    write_case_trace(*rec, trace_case_path(opt.trace_path, case_index));
  }

  CaseResult r;
  r.summary = solver.summary();
  r.history = solver.history();
  r.total_time = r.summary.total_time;

  if (auditor && auditor->report().violations() > 0)
    std::fprintf(stderr, "audit: %lld violation(s) in %lld checks\n",
                 static_cast<long long>(auditor->report().violations()),
                 static_cast<long long>(auditor->report().checks()));

  if (!opt.report_path.empty()) {
    obs::RunReport rep;
    fleet::ReportMeta meta;
    meta.bench = opt.bench_name;
    std::ostringstream cs;
    cs << "ranks=" << par.nranks << " strategy="
       << exchange::strategy_name(par.strategy) << " balance="
       << (par.balance.enabled ? "on" : "off");
    meta.case_name = cs.str();
    meta.machine = opt.machine;
    meta.seed = opt.seed;
    meta.steps = opt.steps;
    meta.audit = opt.audit;
    fleet::fill_run_report(rep, solver, r.summary, r.history, meta);
    rep.audit = auditor ? &auditor->report() : nullptr;
    rep.profiler = prof.get();
    const std::string rpath = trace_case_path(opt.report_path, case_index);
    obs::write_run_report_file(rpath, rep);
    std::fprintf(stderr, "run report: %s\n", rpath.c_str());
  }
  return r;
}

void write_case_trace(const trace::TraceRecorder& rec, const std::string& path) {
  trace::write_chrome_trace(rec, path);
  rec.metrics().write_csv(path + ".metrics.csv");
  std::fprintf(stderr, "trace: %s (+.metrics.csv), %zu spans, %zu messages\n",
               path.c_str(), rec.spans().size(), rec.messages().size());
  trace::CriticalPathAnalyzer cp(rec);
  std::ostringstream report;
  cp.print(cp.analyze(), report);
  std::fputs(report.str().c_str(), stderr);
}

}  // namespace dsmcpic::bench
