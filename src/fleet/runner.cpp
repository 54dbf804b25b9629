#include "fleet/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>

#include "fleet/report.hpp"
#include "obs/telemetry.hpp"
#include "support/error.hpp"
#include "support/serialize.hpp"
#include "support/thread_pool.hpp"
#include "trace/json_writer.hpp"

namespace dsmcpic::fleet {

namespace {

constexpr const char* kLeaseSchema = "dsmcpic.fleet.lease.v1";
constexpr const char* kSummarySchema = "dsmcpic.fleet_summary.v1";

std::string hex_digest(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char* state_name(RunState s) {
  switch (s) {
    case RunState::kPending: return "pending";
    case RunState::kParked: return "parked";
    case RunState::kDone: return "done";
  }
  return "?";
}

}  // namespace

struct FleetRunner::JobState {
  FleetJob job;
  const Scenario* scenario = nullptr;
  std::string run_id;
  std::string dir;  // per-run output dir ("" = memory-only run)
  int steps_total = 0;
  int ranks = 0;
  RunState state = RunState::kPending;
  bool has_checkpoint = false;

  int steps_done = 0;
  int leases = 0;
  RunDigest digest;                // streaming golden digest
  obs::StepTotals carried;         // step totals of completed leases
  double wall_ms = 0.0;

  // Valid once state == kDone.
  std::uint64_t final_digest = 0;
  std::int64_t final_particles = 0;
  double virtual_seconds = 0.0;
};

FleetRunner::FleetRunner(FleetOptions opt, std::shared_ptr<SharedAssets> assets)
    : opts_(std::move(opt)),
      assets_(assets ? std::move(assets) : std::make_shared<SharedAssets>()) {
  DSMCPIC_CHECK_MSG(opts_.slots >= 1, "fleet needs at least one slot");
  DSMCPIC_CHECK_MSG(opts_.lease_steps >= 0, "lease steps must be >= 0");
  DSMCPIC_CHECK_MSG(opts_.lease_steps == 0 || !opts_.results_dir.empty(),
                    "preemption (lease steps) requires a results dir for "
                    "checkpoints");
  if (!opts_.results_dir.empty())
    std::filesystem::create_directories(opts_.results_dir);
}

FleetRunner::~FleetRunner() = default;

std::string FleetRunner::add(const FleetJob& job) {
  const Scenario& sc = corpus_.by_name(job.scenario);
  DSMCPIC_CHECK_MSG(job.park_at == 0 || !opts_.results_dir.empty(),
                    "park_at requires a results dir for checkpoints");
  auto js = std::make_unique<JobState>();
  js->job = job;
  js->scenario = &sc;
  js->steps_total = job.steps > 0 ? job.steps : sc.default_steps;
  js->ranks = job.ranks > 0 ? job.ranks : sc.default_ranks;
  char buf[64];
  std::snprintf(buf, sizeof buf, "run%03d-%s",
                static_cast<int>(jobs_.size()), sc.name.c_str());
  js->run_id = buf;
  if (!opts_.results_dir.empty()) {
    js->dir = opts_.results_dir + "/" + js->run_id;
    std::filesystem::create_directories(js->dir);
  }
  jobs_.push_back(std::move(js));
  return jobs_.back()->run_id;
}

std::string FleetRunner::add_resume(const std::string& run_dir) {
  std::string dir = run_dir;
  while (!dir.empty() && dir.back() == '/') dir.pop_back();
  std::ifstream is(dir + "/lease.bin", std::ios::binary);
  DSMCPIC_CHECK_MSG(is.good(), "cannot open " << dir << "/lease.bin");
  const std::string schema = io::read_string(is);
  DSMCPIC_CHECK_MSG(schema == kLeaseSchema,
                    "unexpected lease schema '" << schema << "'");
  auto js = std::make_unique<JobState>();
  js->run_id = io::read_string(is);
  js->job.scenario = io::read_string(is);
  js->job.seed = io::read_pod<std::uint64_t>(is);
  // Each count must fit its int unchanged, and a lease exists only for a
  // started, unfinished run.
  const auto read_count = [&](const char* field, std::int64_t lo,
                              std::int64_t hi) {
    const auto v = io::read_pod<std::int64_t>(is);
    DSMCPIC_CHECK_MSG(v >= lo && v <= hi, dir << "/lease.bin: " << field
                                              << " " << v << " outside ["
                                              << lo << ", " << hi << "]");
    return static_cast<int>(v);
  };
  constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
  js->ranks = read_count("ranks", 1, kMaxInt);
  js->steps_total = read_count("steps_total", 2, kMaxInt);
  js->steps_done = read_count("steps_done", 1, js->steps_total - 1);
  js->leases = read_count("leases", 1, kMaxInt);
  js->digest.set_state(io::read_pod<std::uint64_t>(is));
  js->carried.injected = io::read_pod<std::int64_t>(is);
  js->carried.migrated_dsmc = io::read_pod<std::int64_t>(is);
  js->carried.migrated_pic = io::read_pod<std::int64_t>(is);
  js->carried.collisions = io::read_pod<std::int64_t>(is);
  js->carried.ionizations = io::read_pod<std::int64_t>(is);
  js->carried.recombinations = io::read_pod<std::int64_t>(is);
  js->carried.rebalances = io::read_pod<std::int64_t>(is);
  DSMCPIC_CHECK_MSG(is.good(), "truncated " << dir << "/lease.bin");
  js->scenario = &corpus_.by_name(js->job.scenario);
  js->dir = dir;
  js->has_checkpoint = true;
  // The park already happened; the resumed run goes to completion.
  js->job.park_at = 0;
  jobs_.push_back(std::move(js));
  return jobs_.back()->run_id;
}

void FleetRunner::write_sidecar(const JobState& js) const {
  std::ofstream os(js.dir + "/lease.bin",
                   std::ios::binary | std::ios::trunc);
  DSMCPIC_CHECK_MSG(os.good(), "cannot write " << js.dir << "/lease.bin");
  io::write_string(os, kLeaseSchema);
  io::write_string(os, js.run_id);
  io::write_string(os, js.job.scenario);
  io::write_pod(os, js.job.seed);
  io::write_pod(os, static_cast<std::int64_t>(js.ranks));
  io::write_pod(os, static_cast<std::int64_t>(js.steps_total));
  io::write_pod(os, static_cast<std::int64_t>(js.steps_done));
  io::write_pod(os, static_cast<std::int64_t>(js.leases));
  io::write_pod(os, js.digest.value());
  io::write_pod(os, js.carried.injected);
  io::write_pod(os, js.carried.migrated_dsmc);
  io::write_pod(os, js.carried.migrated_pic);
  io::write_pod(os, js.carried.collisions);
  io::write_pod(os, js.carried.ionizations);
  io::write_pod(os, js.carried.recombinations);
  io::write_pod(os, js.carried.rebalances);
  DSMCPIC_CHECK_MSG(os.good(), "write failed: " << js.dir << "/lease.bin");
}

void FleetRunner::run_lease(JobState& js) {
  const auto t0 = std::chrono::steady_clock::now();

  core::SolverConfig cfg = js.scenario->config;
  cfg.seed = js.job.seed;
  cfg.sort_every = opts_.sort_every;
  core::ParallelConfig par = canonical_parallel(js.ranks);
  par.profile = assets_->machine(opts_.machine);
  par.kernel_threads = opts_.kernel_threads;
  // The hub outlives the solver (the solver holds a raw pointer to it).
  std::unique_ptr<obs::TelemetryHub> hub;
  if (opts_.telemetry && !js.dir.empty()) {
    obs::TelemetryConfig tc;
    tc.metrics_interval = opts_.metrics_interval;
    tc.flight_recorder = opts_.flight_recorder;
    tc.metrics_prom_path = js.dir + "/metrics.prom";
    tc.metrics_json_path = js.dir + "/metrics.json";
    tc.postmortem_path = js.dir + "/postmortem.json";
    tc.run_label = js.run_id;
    hub = std::make_unique<obs::TelemetryHub>(tc);
  }
  // A resumed lease builds its solver from the checkpoint: no initial
  // partition or field solve that the restore would overwrite.
  auto geom = assets_->geometry(js.scenario->config.nozzle);
  const auto solver =
      js.has_checkpoint
          ? std::make_unique<core::CoupledSolver>(cfg, par, std::move(geom),
                                                  js.dir + "/checkpoint.bin")
          : std::make_unique<core::CoupledSolver>(cfg, par, std::move(geom));
  if (hub) solver->set_telemetry(hub.get());

  int limit = js.steps_total;
  if (js.job.park_at > js.steps_done && js.job.park_at < limit)
    limit = js.job.park_at;
  if (opts_.lease_steps > 0)
    limit = std::min(limit, js.steps_done + opts_.lease_steps);

  while (js.steps_done < limit) {
    solver->step();
    ++js.steps_done;
  }
  // history() covers exactly this lease (a resumed solver starts empty), so
  // the streaming digest continues where the parked half stopped.
  for (const core::StepDiagnostics& d : solver->history()) js.digest.absorb(d);
  ++js.leases;

  if (js.steps_done >= js.steps_total) {
    finish_run(js, *solver);
    js.state = RunState::kDone;
  } else {
    DSMCPIC_CHECK_MSG(!js.dir.empty(),
                      "preempting a run requires a results dir");
    for (const core::StepDiagnostics& d : solver->history()) js.carried.add(d);
    solver->save_checkpoint(js.dir + "/checkpoint.bin");
    write_sidecar(js);
    js.has_checkpoint = true;
    js.state = (js.job.park_at > 0 && js.steps_done == js.job.park_at)
                   ? RunState::kParked
                   : RunState::kPending;
  }
  if (hub) {
    // A park is the fleet's planned "crash": leave the black box behind so
    // the operator can inspect what the run was doing at the park point.
    if (js.state == RunState::kParked) hub->dump_postmortem("park");
    hub->publish();  // final snapshot for this lease
  }
  js.wall_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
}

void FleetRunner::finish_run(JobState& js, core::CoupledSolver& solver) {
  js.digest.absorb_final(solver.runtime());
  js.final_digest = js.digest.value();
  const core::RunSummary summary = solver.summary();
  js.virtual_seconds = summary.total_time;
  js.final_particles = summary.final_particles;
  if (js.dir.empty()) return;

  obs::RunReport rep;
  rep.steps = js.carried;  // totals of the leases before this one
  ReportMeta meta;
  meta.bench = "fleet";
  meta.case_name = js.run_id + " scenario=" + js.scenario->name;
  meta.machine = opts_.machine;
  meta.seed = js.job.seed;
  meta.steps = js.steps_total;
  fill_run_report(rep, solver, summary, solver.history(), meta);
  obs::write_run_report_file(js.dir + "/run_report.json", rep);

  std::ofstream os(js.dir + "/digest.txt", std::ios::binary | std::ios::trunc);
  DSMCPIC_CHECK_MSG(os.good(), "cannot write " << js.dir << "/digest.txt");
  os << hex_digest(js.final_digest) << " " << js.scenario->name
     << " steps=" << js.steps_total << "\n";

  // A completed run must not look resumable: drop the park-time sidecars.
  std::error_code ec;
  std::filesystem::remove(js.dir + "/checkpoint.bin", ec);
  std::filesystem::remove(js.dir + "/lease.bin", ec);
}

FleetRunResult FleetRunner::make_result(const JobState& js) {
  FleetRunResult r;
  r.run_id = js.run_id;
  r.scenario = js.scenario->name;
  r.state = js.state;
  r.steps_done = js.steps_done;
  r.steps_total = js.steps_total;
  r.leases = js.leases;
  r.digest = js.final_digest;
  r.final_particles = js.final_particles;
  r.virtual_seconds = js.virtual_seconds;
  r.wall_ms = js.wall_ms;
  return r;
}

void FleetRunner::publish_progress(std::size_t idx) {
  if (opts_.results_dir.empty()) return;
  std::lock_guard<std::mutex> lock(publish_mu_);
  progress_[idx] = make_result(*jobs_[idx]);
  write_fleet_summary(progress_);
  write_fleet_metrics(progress_);
}

std::vector<FleetRunResult> FleetRunner::run_all() {
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<std::size_t> queue;
  for (std::size_t i = 0; i < jobs_.size(); ++i)
    if (jobs_[i]->state == RunState::kPending) queue.push_back(i);

  // Seed the live progress snapshot (resumed jobs already carry steps).
  progress_.clear();
  progress_.reserve(jobs_.size());
  for (const auto& js : jobs_) progress_.push_back(make_result(*js));

  support::ThreadPool pool(opts_.slots);
  while (!queue.empty()) {
    std::vector<std::size_t> requeue;
    std::mutex mu;
    pool.parallel_for(static_cast<int>(queue.size()), [&](int i) {
      const std::size_t idx = queue[static_cast<std::size_t>(i)];
      JobState& js = *jobs_[idx];
      run_lease(js);
      // Republish the fleet files after EVERY lease, not only at the end:
      // killing the process mid-fleet leaves a valid partial summary.
      publish_progress(idx);
      if (js.state == RunState::kPending) {
        std::lock_guard<std::mutex> lock(mu);
        requeue.push_back(idx);
      }
    });
    // Deterministic round order no matter which slot finished first.
    std::sort(requeue.begin(), requeue.end());
    queue = std::move(requeue);
  }

  stats_ = FleetStats{};
  stats_.slots = opts_.slots;
  stats_.runs_total = static_cast<std::int64_t>(jobs_.size());
  stats_.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  std::vector<FleetRunResult> results;
  results.reserve(jobs_.size());
  for (const auto& js : jobs_) {
    results.push_back(make_result(*js));
    stats_.busy_ms += js->wall_ms;
    stats_.runs_done += js->state == RunState::kDone ? 1 : 0;
    stats_.runs_parked += js->state == RunState::kParked ? 1 : 0;
  }
  if (stats_.wall_ms > 0.0) {
    stats_.slot_utilization =
        stats_.busy_ms / (static_cast<double>(opts_.slots) * stats_.wall_ms);
    stats_.runs_per_sec =
        static_cast<double>(stats_.runs_done) / (stats_.wall_ms / 1000.0);
  }
  stats_.cache = assets_->stats();

  if (!opts_.results_dir.empty()) {
    // Final publication with the end-to-end slot stats filled in. The lock
    // is free by now (all leases drained), taken only for form.
    std::lock_guard<std::mutex> lock(publish_mu_);
    progress_ = results;
    write_fleet_summary(results);
    write_fleet_metrics(results);
  }
  return results;
}

void FleetRunner::write_fleet_summary(
    const std::vector<FleetRunResult>& results) const {
  // Totals come from the per-run snapshot, not stats_ — mid-fleet
  // publications happen before stats_ exists. "pending" counts both
  // untouched runs and preempted runs awaiting their next lease.
  std::int64_t done = 0, parked = 0;
  for (const FleetRunResult& r : results) {
    done += r.state == RunState::kDone ? 1 : 0;
    parked += r.state == RunState::kParked ? 1 : 0;
  }
  std::ostringstream os;
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kSummarySchema);
  w.kv("slots", opts_.slots);
  w.kv("lease_steps", opts_.lease_steps);
  w.kv("machine", opts_.machine);
  w.key("runs");
  w.begin_array();
  for (const FleetRunResult& r : results) {
    w.begin_object();
    w.kv("run_id", r.run_id);
    w.kv("scenario", r.scenario);
    w.kv("state", state_name(r.state));
    w.kv("steps_done", r.steps_done);
    w.kv("steps_total", r.steps_total);
    w.kv("leases", r.leases);
    w.kv("digest", r.state == RunState::kDone ? hex_digest(r.digest) : "");
    w.kv("final_particles", r.final_particles);
    w.kv("virtual_seconds", r.virtual_seconds);
    w.kv("wall_ms", r.wall_ms);
    w.end_object();
  }
  w.end_array();
  w.key("totals");
  w.begin_object();
  w.kv("runs", static_cast<std::int64_t>(results.size()));
  w.kv("done", done);
  w.kv("parked", parked);
  w.kv("pending",
       static_cast<std::int64_t>(results.size()) - done - parked);
  w.end_object();
  w.key("slot_stats");
  w.begin_object();
  w.kv("wall_ms", stats_.wall_ms);
  w.kv("busy_ms", stats_.busy_ms);
  w.kv("slot_utilization", stats_.slot_utilization);
  w.kv("runs_per_sec", stats_.runs_per_sec);
  w.end_object();
  w.key("shared_cache");
  w.begin_object();
  w.kv("geometry_hits", stats_.cache.geometry_hits);
  w.kv("geometry_misses", stats_.cache.geometry_misses);
  w.kv("machine_hits", stats_.cache.machine_hits);
  w.kv("machine_misses", stats_.cache.machine_misses);
  w.end_object();
  w.end_object();
  w.finish();
  os << "\n";
  obs::atomic_write_file(opts_.results_dir + "/fleet_summary.json", os.str());
}

void FleetRunner::write_fleet_metrics(
    const std::vector<FleetRunResult>& results) const {
  std::int64_t done = 0, parked = 0;
  for (const FleetRunResult& r : results) {
    done += r.state == RunState::kDone ? 1 : 0;
    parked += r.state == RunState::kParked ? 1 : 0;
  }
  const auto runs = static_cast<std::int64_t>(results.size());
  std::ostringstream os;
  const auto gauge = [&os](const char* name, const char* help) {
    return obs::PromFamily(os, "", name, "gauge", help);
  };
  gauge("dsmcpic_fleet_slots", "Configured concurrent solver slots.")
      .sample(opts_.slots);
  gauge("dsmcpic_fleet_runs", "Queued runs in this fleet.")
      .sample(static_cast<double>(runs));
  gauge("dsmcpic_fleet_runs_done", "Runs completed so far.")
      .sample(static_cast<double>(done));
  gauge("dsmcpic_fleet_runs_parked", "Runs parked at their park point.")
      .sample(static_cast<double>(parked));
  gauge("dsmcpic_fleet_runs_pending", "Runs waiting for their next lease.")
      .sample(static_cast<double>(runs - done - parked));

  const auto labels = [](const FleetRunResult& r) {
    return obs::label("run", r.run_id) + "," +
           obs::label("scenario", r.scenario) + "," +
           obs::label("state", state_name(r.state));
  };
  {
    obs::PromFamily f =
        gauge("dsmcpic_fleet_run_steps_done", "DSMC steps completed per run.");
    for (const FleetRunResult& r : results) f.sample(r.steps_done, labels(r));
  }
  {
    obs::PromFamily f =
        gauge("dsmcpic_fleet_run_steps_total", "DSMC step budget per run.");
    for (const FleetRunResult& r : results) f.sample(r.steps_total, labels(r));
  }
  {
    obs::PromFamily f =
        gauge("dsmcpic_fleet_run_leases", "Leases consumed per run.");
    for (const FleetRunResult& r : results) f.sample(r.leases, labels(r));
  }
  {
    obs::PromFamily f = gauge("dsmcpic_fleet_run_particles",
                              "Final particle count per completed run.");
    for (const FleetRunResult& r : results)
      f.sample(static_cast<double>(r.final_particles), labels(r));
  }
  {
    obs::PromFamily f = gauge("dsmcpic_fleet_run_virtual_seconds",
                              "End-to-end virtual time per completed run.");
    for (const FleetRunResult& r : results)
      f.sample(r.virtual_seconds, labels(r));
  }
  obs::atomic_write_file(opts_.results_dir + "/fleet_metrics.prom", os.str());
}

}  // namespace dsmcpic::fleet
