// Fleet-service throughput bench (DESIGN.md §2j): N independent scenario
// runs served from one process on --fleet-slots thread-pool slots, sharing
// immutable geometry + machine profiles through the SharedAssets registry.
// Reports runs/sec, slot utilization, and shared-cache hit stats; with
// --out the lanes land in a JSON consumable by
// scripts/check_bench_regression.py --require-lanes. With --results-dir,
// every run streams its run_report.json + golden digest into its own
// subdirectory (validated by scripts/check_report.sh), and --fleet-lease
// exercises the preemption/resume path under load.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/runner.hpp"
#include "trace/json_writer.hpp"

using namespace dsmcpic;
using bench::BenchOptions;

int main(int argc, char** argv) {
  Cli cli(
      "Simulation-fleet service — many concurrent solver runs in one "
      "process, shared immutable assets, checkpoint-based preempt/resume");
  bench::CommonFlags common(cli, "bench_fleet", "6", 8);
  bench::FleetFlags fleet_flags(cli);
  if (!bench::parse_or_usage(cli, argc, argv)) return 0;
  BenchOptions opt = bench::finish_or_usage([&] { return common.finish(); });
  bench::FleetBenchOptions fopt = bench::finish_or_usage([&] { return fleet_flags.finish(); });

  fleet::FleetOptions fo;
  fo.slots = fopt.slots;
  fo.results_dir = fopt.results_dir;
  fo.lease_steps = fopt.lease;
  fo.machine = opt.machine;
  fo.kernel_threads = opt.kernel_threads;
  fo.sort_every = opt.sort_every;
  // Per-run telemetry rides on the per-run dirs; --metrics-dir requests it
  // (the directory itself is the fleet results dir, so only the cadence
  // knobs carry over).
  fo.telemetry = !opt.metrics_dir.empty();
  fo.metrics_interval = opt.metrics_interval;
  fo.flight_recorder = opt.flight_recorder;
  fleet::FleetRunner runner(fo);

  const std::vector<std::string> names = bench::finish_or_usage(
      [&] { return bench::parse_scenarios(fopt.scenarios, runner.corpus()); });
  for (int i = 0; i < fopt.runs; ++i) {
    fleet::FleetJob job;
    job.scenario = names[static_cast<std::size_t>(i) % names.size()];
    job.steps = opt.steps;
    job.ranks = opt.ranks.front();
    job.seed = opt.seed + static_cast<std::uint64_t>(i);
    if (i == 0) job.park_at = fopt.park;  // --fleet-park: park the first run
    runner.add(job);
  }

  std::printf("fleet: %d runs over %zu scenario(s), %d slots, lease=%d, "
              "machine=%s\n\n",
              fopt.runs, names.size(), fopt.slots, fopt.lease,
              opt.machine.c_str());

  const std::vector<fleet::FleetRunResult> results = runner.run_all();
  const fleet::FleetStats& st = runner.stats();

  Table t("fleet runs (" + std::to_string(fopt.slots) + " slots)");
  t.header({"run", "scenario", "steps", "leases", "digest", "particles",
            "virtual_s", "wall_ms"});
  for (const fleet::FleetRunResult& r : results) {
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(r.digest));
    t.row({r.run_id, r.scenario, std::to_string(r.steps_done),
           std::to_string(r.leases), digest,
           std::to_string(r.final_particles), Table::num(r.virtual_seconds, 1),
           Table::num(r.wall_ms, 0)});
  }
  t.print();

  const double hit_rate =
      st.cache.geometry_hits + st.cache.geometry_misses > 0
          ? static_cast<double>(st.cache.geometry_hits) /
                static_cast<double>(st.cache.geometry_hits +
                                    st.cache.geometry_misses)
          : 0.0;
  std::printf("\nthroughput: %.2f runs/sec, slot utilization %.1f%% "
              "(%d slots, wall %.0f ms, busy %.0f ms)\n",
              st.runs_per_sec, 100.0 * st.slot_utilization, st.slots,
              st.wall_ms, st.busy_ms);
  std::printf("shared cache: geometry %lld hit / %lld miss (%.1f%% hits), "
              "machine %lld hit / %lld miss\n",
              static_cast<long long>(st.cache.geometry_hits),
              static_cast<long long>(st.cache.geometry_misses),
              100.0 * hit_rate,
              static_cast<long long>(st.cache.machine_hits),
              static_cast<long long>(st.cache.machine_misses));

  if (!fopt.out.empty()) {
    std::ofstream os(fopt.out, std::ios::binary | std::ios::trunc);
    if (!os.good()) {
      std::fprintf(stderr, "cannot open %s\n", fopt.out.c_str());
      return 1;
    }
    trace::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "dsmcpic.bench_fleet.v1");
    w.kv("bench", "bench_fleet");
    w.key("fleet");
    w.begin_object();
    w.kv("slots", fopt.slots);
    w.kv("runs", fopt.runs);
    w.kv("steps", opt.steps);
    w.kv("ranks", opt.ranks.front());
    w.kv("lease_steps", fopt.lease);
    w.kv("machine", opt.machine);
    w.key("scenarios");
    w.begin_array();
    for (const std::string& n : names) w.value(n);
    w.end_array();
    w.end_object();
    w.key("lanes");
    w.begin_object();
    w.key("runs_per_sec");
    w.begin_object();
    w.kv("value", st.runs_per_sec);
    w.kv("runs_done", st.runs_done);
    w.kv("wall_ms", st.wall_ms);
    w.end_object();
    w.key("slot_utilization");
    w.begin_object();
    w.kv("value", st.slot_utilization);
    w.kv("busy_ms", st.busy_ms);
    w.kv("slots", st.slots);
    w.end_object();
    w.key("geometry_cache");
    w.begin_object();
    w.kv("hits", st.cache.geometry_hits);
    w.kv("misses", st.cache.geometry_misses);
    w.kv("hit_rate", hit_rate);
    w.end_object();
    w.key("machine_cache");
    w.begin_object();
    w.kv("hits", st.cache.machine_hits);
    w.kv("misses", st.cache.machine_misses);
    w.end_object();
    w.end_object();
    w.end_object();
    w.finish();
    os << "\n";
    std::fprintf(stderr, "lanes JSON: %s\n", fopt.out.c_str());
  }
  return 0;
}
