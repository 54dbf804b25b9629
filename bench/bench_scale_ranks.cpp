// O(10^4)-rank scaling of the virtual runtime (DESIGN.md §2i). Three
// questions, three lane groups:
//
//  1. sweep  — does a superstep's HOST cost stay tractable as the virtual
//     rank count grows to 4096? Sweeps --ranks with the sparse neighbor
//     exchange (NC) on the Tianhe-3 profile and reports wall-clock
//     milliseconds per superstep (the driver-loop overhead the pooling +
//     O(active) dispatch work targets; virtual seconds are unaffected).
//  2. sparse — a 4096-rank NOMINAL machine running a 512-rank ACTIVE
//     ensemble (--ranks-initial semantics) must cost close to a plain
//     512-rank machine per superstep: parked ranks are skipped by
//     dispatch, so the nominal size should price in at ~zero.
//  3. elastic — on an overhead-dominated (high-imbalance) configuration,
//     --ensemble elastic should park ranks and reduce the summed busy
//     virtual seconds (node-seconds) vs the fixed dense ensemble.
//
// With --out the lanes land in a JSON consumable by
// scripts/check_bench_regression.py --require-lanes.

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "trace/json_writer.hpp"

using namespace dsmcpic;
using bench::BenchOptions;

namespace {

struct TimedCase {
  bench::CaseResult result;
  double wall_ms = 0.0;
  double wall_ms_per_superstep = 0.0;
};

TimedCase run_timed(const core::Dataset& ds, const core::ParallelConfig& par,
                    const BenchOptions& opt) {
  TimedCase t;
  const auto t0 = std::chrono::steady_clock::now();
  t.result = bench::run_case(ds, par, opt);
  const auto t1 = std::chrono::steady_clock::now();
  t.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (t.result.summary.supersteps > 0)
    t.wall_ms_per_superstep =
        t.wall_ms / static_cast<double>(t.result.summary.supersteps);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "Virtual-runtime rank scaling — NC sweep to 4096 ranks, parked-rank "
      "overhead, and elastic vs fixed ensembles (Tianhe-3 profile)");
  bench::CommonFlags common(cli, "bench_scale_ranks", "512,1024,2048,4096", 3);
  const std::string* strategy_flag = cli.add_string(
      "strategy", "nc", "exchange strategy for the sweep: cc | dc | hc | nc");
  const std::int64_t* sparse_active = cli.add_int(
      "sparse-active", 512,
      "active rank count for the sparse lane (nominal = largest sweep "
      "point)");
  const std::int64_t* imb_ranks = cli.add_int(
      "imb-ranks", 256,
      "nominal rank count of the overhead-dominated elastic-vs-fixed lanes");
  const std::int64_t* imb_steps = cli.add_int(
      "imb-steps", 30, "DSMC steps of the elastic-vs-fixed lanes");
  const std::string* out =
      cli.add_string("out", "", "write the lane timings as JSON to this path");
  if (!bench::parse_or_usage(cli, argc, argv)) return 0;
  BenchOptions opt = bench::finish_or_usage([&] { return common.finish(); });
  const auto [active, inr, imb_nsteps] = bench::finish_or_usage([&] {
    return std::tuple{bench::int_flag("sparse-active", *sparse_active),
                      bench::int_flag("imb-ranks", *imb_ranks),
                      bench::int_flag("imb-steps", *imb_steps)};
  });
  if (opt.machine == "tianhe2") opt.machine = "tianhe3";  // paper's target

  const exchange::Strategy strategy = exchange::parse_strategy(
      [&] {
        std::string s = *strategy_flag;
        for (char& c : s) c = static_cast<char>(std::toupper(c));
        return s;
      }());

  // A 12000-cell coarse grid so even 4096 parts average ~3 cells per rank.
  core::Dataset ds = core::make_dataset(2, opt.particle_scale);
  ds.config.nozzle.radial_divisions = 10;
  ds.config.nozzle.axial_divisions = 20;

  std::printf("scale sweep: %lld coarse cells, machine=%s, strategy=%s, "
              "%d steps\n\n",
              static_cast<long long>(ds.config.nozzle.expected_tets()),
              opt.machine.c_str(), exchange::strategy_name(strategy),
              opt.steps);

  // ---- lane group 1: the rank sweep --------------------------------------
  struct SweepPoint {
    int ranks = 0;
    TimedCase t;
  };
  std::vector<SweepPoint> sweep;
  for (const int nranks : opt.ranks) {
    // The KM matching is O(n^3) and the dense handshake O(n^2): both are
    // exactly what this bench is NOT measuring, so balancing stays off.
    auto par = bench::make_parallel(ds, nranks, strategy,
                                    /*balance_enabled=*/false, opt);
    SweepPoint p;
    p.ranks = nranks;
    p.t = run_timed(ds, par, opt);
    sweep.push_back(p);
    std::fprintf(stderr, "  done ranks=%-5d wall=%.0fms (%.3f ms/superstep)\n",
                 nranks, p.t.wall_ms, p.t.wall_ms_per_superstep);
  }

  // ---- lane group 2: parked ranks must be ~free --------------------------
  const int nominal = opt.ranks.back();
  TimedCase dense, sparse;
  {
    auto par = bench::make_parallel(ds, active, strategy, false, opt);
    dense = run_timed(ds, par, opt);
  }
  {
    BenchOptions sopt = opt;
    sopt.ranks_initial = active;  // fixed reduced ensemble
    auto par = bench::make_parallel(ds, nominal, strategy, false, sopt);
    sparse = run_timed(ds, par, opt);
  }
  const double wall_ratio =
      dense.wall_ms_per_superstep > 0.0
          ? sparse.wall_ms_per_superstep / dense.wall_ms_per_superstep
          : 0.0;
  std::printf("parked-rank overhead: %d nominal / %d active = %.3f "
              "ms/superstep vs %d dense = %.3f ms/superstep (ratio %.2fx)\n",
              nominal, active, sparse.wall_ms_per_superstep, active,
              dense.wall_ms_per_superstep, wall_ratio);

  // ---- lane group 3: elastic vs fixed when overhead dominates ------------
  // Few particles per rank on a mid-size machine: synchronization swamps
  // compute, so the elastic policy should park ranks hard.
  BenchOptions iopt = opt;
  iopt.steps = imb_nsteps;
  TimedCase fixed, elastic;
  {
    auto par = bench::make_parallel(ds, inr, strategy, false, iopt);
    fixed = run_timed(ds, par, iopt);
  }
  {
    BenchOptions eopt = iopt;
    eopt.ensemble = "elastic";
    eopt.ranks_min = 8;
    auto par = bench::make_parallel(ds, inr, strategy, false, eopt);
    elastic = run_timed(ds, par, eopt);
  }
  const double fixed_sum = fixed.result.summary.busy_sum_total();
  const double elastic_sum = elastic.result.summary.busy_sum_total();
  int resizes = 0;
  for (const auto& d : elastic.result.summary.ensemble_decisions)
    resizes += d.resized ? 1 : 0;
  std::printf("elastic vs fixed @ %d ranks, %d steps: summed busy %.1f s vs "
              "%.1f s (%.1f%% saved), final active %d, %d resize(s)\n",
              inr, iopt.steps, elastic_sum, fixed_sum,
              100.0 * (fixed_sum - elastic_sum) / fixed_sum,
              elastic.result.summary.active_ranks, resizes);

  Table t("rank sweep — host cost per superstep (" +
          std::string(exchange::strategy_name(strategy)) + ", balance off)");
  t.header({"ranks", "supersteps", "wall_ms", "ms/superstep", "virtual_s"});
  for (const SweepPoint& p : sweep)
    t.row({std::to_string(p.ranks),
           std::to_string(p.t.result.summary.supersteps),
           Table::num(p.t.wall_ms, 0), Table::num(p.t.wall_ms_per_superstep, 3),
           Table::num(p.t.result.total_time, 1)});
  t.print();

  if (!out->empty()) {
    std::ofstream os(*out, std::ios::binary | std::ios::trunc);
    if (!os.good()) {
      std::fprintf(stderr, "cannot open %s\n", out->c_str());
      return 1;
    }
    trace::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "dsmcpic.bench_scale_ranks.v1");
    w.kv("bench", "bench_scale_ranks");
    w.key("mesh");
    w.begin_object();
    w.kv("dataset", 2);
    w.kv("coarse_tets", ds.config.nozzle.expected_tets());
    w.kv("steps", opt.steps);
    w.kv("strategy", exchange::strategy_name(strategy));
    w.kv("machine", opt.machine);
    w.end_object();
    w.kv("particles", sweep.front().t.result.summary.final_particles);
    w.key("sweep");
    w.begin_array();
    for (const SweepPoint& p : sweep) {
      w.begin_object();
      w.kv("ranks", p.ranks);
      w.kv("supersteps", p.t.result.summary.supersteps);
      w.kv("wall_ms", p.t.wall_ms);
      w.kv("wall_ms_per_superstep", p.t.wall_ms_per_superstep);
      w.kv("total_virtual_s", p.t.result.total_time);
      w.end_object();
    }
    w.end_array();
    w.key("lanes");
    w.begin_object();
    auto lane = [&](const std::string& name, const TimedCase& c) {
      w.key(name);
      w.begin_object();
      w.kv("wall_ms", c.wall_ms);
      w.kv("wall_ms_per_superstep", c.wall_ms_per_superstep);
      w.kv("total_virtual_s", c.result.total_time);
      w.kv("summed_busy_virtual_s", c.result.summary.busy_sum_total());
      w.kv("active_final", c.result.summary.active_ranks);
      w.end_object();
    };
    lane("sweep_" + std::to_string(nominal), sweep.back().t);
    lane("dense_" + std::to_string(active), dense);
    lane("sparse_" + std::to_string(nominal) + "_active_" +
             std::to_string(active),
         sparse);
    lane("fixed_highimb", fixed);
    lane("elastic_highimb", elastic);
    w.end_object();
    w.kv("sparse_vs_dense_wall_ratio", wall_ratio);
    w.kv("elastic_saving_vs_fixed",
         fixed_sum > 0.0 ? (fixed_sum - elastic_sum) / fixed_sum : 0.0);
    w.end_object();
    w.finish();
    os << "\n";
    std::fprintf(stderr, "lanes JSON: %s\n", out->c_str());
  }
  return 0;
}
