// Wall-clock microbenchmark for the intra-rank kernels (move, collide,
// deposit) at serial vs 2 vs 4 kernel lanes. The sorted_* lanes rerun
// serial/kt2/kt4 on a cell-major (cell-sorted) copy of the same
// population, isolating the traversal-locality win of the periodic cell
// sort (DESIGN.md §2g) from the win of chunking. Unlike the
// paper-reproduction benches this one reports REAL milliseconds, not
// virtual seconds — the kernel lanes are invisible to the cost model by
// design (docs/cost_model.md).
//
// Writes BENCH_kernels.json (see scripts/bench_kernels.sh).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "dsmc/collide.hpp"
#include "obs/host_profiler.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "dsmc/mover.hpp"
#include "dsmc/particles.hpp"
#include "dsmc/species.hpp"
#include "mesh/nozzle.hpp"
#include "mesh/refine.hpp"
#include "pic/deposit.hpp"
#include "pic/fine_grid.hpp"
#include "support/cli.hpp"
#include "support/kernel_exec.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace dsmcpic;

namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Times fn() `reps` times and returns the fastest run (least noisy on a
/// shared machine); fn is run once untimed as warmup.
template <class F>
double best_of(int reps, F&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    fn();
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

/// Seeds a reproducible population: particles scattered uniformly over the
/// cells at interior barycentric points, half H / half H+, thermal spread
/// plus an axial drift large enough that a move step crosses several cells
/// (so ray_exit_face dominates, as it does in the real solver).
dsmc::ParticleStore make_population(const mesh::TetMesh& mesh,
                                    const dsmc::SpeciesTable& table,
                                    std::int64_t n) {
  dsmc::ParticleStore store;
  store.reserve(static_cast<std::size_t>(n));
  Rng rng(0xbe9cULL);
  const double vth = std::sqrt(dsmc::constants::kBoltzmann * 300.0 /
                               table[dsmc::kSpeciesH].mass);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t cell =
        static_cast<std::int32_t>(i % mesh.num_tets());
    const auto& tet = mesh.tet(cell);
    // Random interior point: normalized positive barycentric weights.
    double w[4], sum = 0.0;
    for (double& x : w) sum += (x = 0.05 + rng.uniform());
    Vec3 pos{0, 0, 0};
    for (int k = 0; k < 4; ++k) pos = pos + mesh.node(tet[k]) * (w[k] / sum);
    dsmc::ParticleRecord p;
    p.position = pos;
    p.velocity = Vec3{rng.normal() * vth, rng.normal() * vth,
                      rng.normal() * vth + 2.0 * vth};
    p.id = i;
    p.species = (i % 2 == 0) ? dsmc::kSpeciesH : dsmc::kSpeciesHPlus;
    p.cell = cell;
    store.add(p);
  }
  return store;
}

struct KernelTimes {
  double serial = 0.0;  // no lanes
  double kt2 = 0.0;
  double kt4 = 0.0;
  double sorted_serial = 0.0;  // cell-sorted population, no lanes
  double sorted_kt2 = 0.0;
  double sorted_kt4 = 0.0;
};

void emit(std::FILE* f, const char* name, const KernelTimes& t,
          bool trailing_comma) {
  std::fprintf(f,
               "    \"%s\": {\n"
               "      \"serial_cached_ms\": %.3f,\n"
               "      \"kt2_ms\": %.3f,\n"
               "      \"kt4_ms\": %.3f,\n"
               "      \"sorted_serial_ms\": %.3f,\n"
               "      \"sorted_kt2_ms\": %.3f,\n"
               "      \"sorted_kt4_ms\": %.3f,\n"
               "      \"speedup_sort_only\": %.3f,\n"
               "      \"speedup_kt4_vs_serial_cached\": %.3f\n"
               "    }%s\n",
               name, t.serial, t.kt2, t.kt4, t.sorted_serial, t.sorted_kt2,
               t.sorted_kt4, t.serial / t.sorted_serial, t.serial / t.kt4,
               trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "Intra-rank kernel microbenchmark: move / collide / deposit wall-clock "
      "at {serial, 2 lanes, 4 lanes}, scattered and cell-sorted");
  const auto* radial = cli.add_int("radial", 6, "nozzle radial divisions");
  const auto* axial = cli.add_int("axial", 14, "nozzle axial divisions");
  const auto* nparticles =
      cli.add_int("particles", 200000, "population size");
  const auto* reps = cli.add_int("reps", 5, "timed repetitions (best-of)");
  const auto* out =
      cli.add_string("out", "BENCH_kernels.json", "output JSON path");
  const auto* report = cli.add_string(
      "report", "",
      "also write a run_report.json (host-profile section carries the "
      "per-lane kernel timings)");
  if (!bench::parse_or_usage(cli, argc, argv)) return 0;
  const auto [nradial, naxial, nreps] = bench::finish_or_usage([&] {
    return std::tuple{bench::int_flag("radial", *radial),
                      bench::int_flag("axial", *axial),
                      bench::int_flag("reps", *reps)};
  });

  mesh::NozzleSpec spec;
  spec.radial_divisions = nradial;
  spec.axial_divisions = naxial;
  const mesh::TetMesh coarse = mesh::make_cylinder_nozzle(spec);
  const mesh::RefinedMesh refined =
      mesh::red_refine(coarse, nozzle_classifier(spec));
  pic::FineGrid grid(coarse, refined);

  const dsmc::SpeciesTable table = dsmc::SpeciesTable::hydrogen(2e11, 2e11);
  const dsmc::ParticleStore base =
      make_population(coarse, table, *nparticles);
  std::printf("mesh: %d coarse tets, %d fine tets; %zu particles; reps=%d\n",
              coarse.num_tets(), refined.mesh.num_tets(), base.size(), nreps);

  // dt sized so the drift crosses a few coarse cells per step: the walk
  // (ray_exit_face per crossing) dominates, as in the production move phase.
  const double vth = std::sqrt(dsmc::constants::kBoltzmann * 300.0 /
                               table[dsmc::kSpeciesH].mass);
  const double dt_move = 1.5 * (spec.length / spec.axial_divisions) /
                         (2.0 * vth);
  const double dt_collide = 4e-6;

  // The scattered population above is the collide/deposit worst case: walking
  // a cell's particle list strides the whole store. The sorted lanes time the
  // same kernels on the cell-major layout the solver's periodic sort
  // (--sort-every) maintains; within-cell order is identical, so collide
  // follows the identical trajectory and times the same workload.
  dsmc::ParticleStore sorted_base = base;
  {
    dsmc::SortScratch sort_scr;
    sorted_base.sort_by_cell(coarse.num_tets(), sort_scr);
  }

  const dsmc::Mover mover(coarse, table, dsmc::MoverConfig{});
  support::KernelExec exec2(2), exec4(4);
  struct Lane {
    const char* name;
    const support::KernelExec* exec;
    const dsmc::ParticleStore* pop;
  };
  const Lane lanes[] = {{"serial", nullptr, &base},
                        {"kt2", &exec2, &base},
                        {"kt4", &exec4, &base},
                        {"sorted_serial", nullptr, &sorted_base},
                        {"sorted_kt2", &exec2, &sorted_base},
                        {"sorted_kt4", &exec4, &sorted_base}};
  constexpr int kNumLanes = 6;

  KernelTimes move_t, collide_t, deposit_t;
  const auto slot = [](KernelTimes& t, int i) -> double& {
    switch (i) {
      case 0: return t.serial;
      case 1: return t.kt2;
      case 2: return t.kt4;
      case 3: return t.sorted_serial;
      case 4: return t.sorted_kt2;
    }
    return t.sorted_kt4;
  };

  // --- move ---------------------------------------------------------------
  for (int i = 0; i < kNumLanes; ++i) {
    dsmc::ParticleStore store = *lanes[i].pop;
    std::vector<std::uint8_t> removed(store.size(), 0);
    std::int64_t walk = 0;
    slot(move_t, i) = best_of(nreps, [&] {
      store = *lanes[i].pop;
      std::fill(removed.begin(), removed.end(), 0);
      const dsmc::MoveStats s = mover.move_all(
          store, dt_move, /*step=*/0, removed, dsmc::MoveFilter::kAll,
          lanes[i].exec);
      walk = s.walk_steps;
    });
    std::printf("  move     %-16s %8.2f ms  (%lld face crossings)\n",
                lanes[i].name, slot(move_t, i), static_cast<long long>(walk));
  }

  // --- collide ------------------------------------------------------------
  std::vector<std::int32_t> all_cells(
      static_cast<std::size_t>(coarse.num_tets()));
  std::iota(all_cells.begin(), all_cells.end(), 0);
  for (int i = 0; i < kNumLanes; ++i) {
    dsmc::CollideScratch scratch;
    dsmc::CellIndex index;
    std::int64_t collisions = 0;
    double best = 1e300;
    for (int r = 0; r < nreps + 1; ++r) {
      // Fresh store + kernel per run (untimed): the adaptive majorants and
      // the velocity updates must follow the identical trajectory in every
      // lane config, or the configs would time different workloads.
      dsmc::ParticleStore store = *lanes[i].pop;
      dsmc::CollisionKernel kernel(coarse, table, dsmc::CollisionConfig{});
      index.rebuild(store, coarse.num_tets());
      const double t0 = now_ms();
      const dsmc::CollisionStats s = kernel.collide_cells(
          store, index, all_cells, dt_collide, /*step=*/0, lanes[i].exec,
          &scratch);
      if (r > 0) best = std::min(best, now_ms() - t0);  // r==0 is warmup
      collisions = s.collisions;
    }
    slot(collide_t, i) = best;
    std::printf("  collide  %-16s %8.2f ms  (%lld collisions)\n",
                lanes[i].name, slot(collide_t, i),
                static_cast<long long>(collisions));
  }

  // --- deposit ------------------------------------------------------------
  std::vector<std::int32_t> sorted_nodes(
      static_cast<std::size_t>(refined.mesh.num_nodes()));
  std::iota(sorted_nodes.begin(), sorted_nodes.end(), 0);
  std::vector<double> node_charge(sorted_nodes.size(), 0.0);
  const std::vector<std::uint8_t> none(base.size(), 0);
  for (int i = 0; i < kNumLanes; ++i) {
    pic::DepositScratch scratch;
    std::int64_t deposited = 0;
    slot(deposit_t, i) = best_of(nreps, [&] {
      std::fill(node_charge.begin(), node_charge.end(), 0.0);
      const pic::DepositStats s =
          pic::deposit_charge(*lanes[i].pop, grid, table, sorted_nodes, none,
                              node_charge, lanes[i].exec, &scratch);
      deposited = s.deposited;
    });
    std::printf("  deposit  %-16s %8.2f ms  (%lld deposited)\n",
                lanes[i].name, slot(deposit_t, i),
                static_cast<long long>(deposited));
  }

  // --- telemetry overhead ---------------------------------------------------
  // Times a real mini-solver step loop with and without a TelemetryHub
  // attached (sampling every step, publishing metrics.prom + metrics.json
  // at the default cadence (every 10 steps) into a scratch dir). The telemetry contract in
  // docs/observability.md §6 budgets < 2% wall-time overhead.
  double steps_plain = 1e300, steps_telemetry = 1e300;
  {
    core::Dataset ds = core::make_dataset(1, /*particle_scale=*/1.0);
    ds.config.nozzle.radial_divisions = 4;
    ds.config.nozzle.axial_divisions = 8;
    core::ParallelConfig par;
    par.nranks = 4;
    par.balance.enabled = true;
    par.balance.period = 3;
    const std::string tdir =
        (std::filesystem::temp_directory_path() / "bench_kernels_telemetry")
            .string();
    std::filesystem::create_directories(tdir);
    const int tsteps = 12;
    for (int r = 0; r < nreps + 1; ++r) {
      for (int with_hub = 0; with_hub < 2; ++with_hub) {
        obs::TelemetryConfig tc;
        tc.metrics_interval = 10;
        tc.metrics_prom_path = tdir + "/metrics.prom";
        tc.metrics_json_path = tdir + "/metrics.json";
        tc.run_label = "bench_kernels";
        obs::TelemetryHub hub(tc);
        core::CoupledSolver solver(ds.config, par);
        if (with_hub) solver.set_telemetry(&hub);
        const double t0 = now_ms();
        solver.run(tsteps);
        const double dt = now_ms() - t0;
        if (r > 0) {  // r==0 is warmup
          double& best = with_hub ? steps_telemetry : steps_plain;
          best = std::min(best, dt);
        }
      }
    }
    std::printf("  telemetry %-15s %8.2f ms\n", "steps_plain", steps_plain);
    std::printf("  telemetry %-15s %8.2f ms  (%+.2f%% overhead)\n",
                "steps_telemetry", steps_telemetry,
                100.0 * (steps_telemetry - steps_plain) / steps_plain);
  }

  std::FILE* f = std::fopen(out->c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out->c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_kernels\",\n"
               "  \"note\": \"wall-clock ms, best of %d reps; "
               "speedups are vs the serial lane\",\n"
               "  \"mesh\": {\"coarse_tets\": %d, \"fine_tets\": %d},\n"
               "  \"layout\": \"soa\",\n"
               "  \"particles\": %zu,\n"
               "  \"kernels\": {\n",
               nreps, coarse.num_tets(), refined.mesh.num_tets(),
               base.size());
  emit(f, "move", move_t, true);
  emit(f, "collide", collide_t, true);
  emit(f, "deposit", deposit_t, true);
  std::fprintf(f,
               "    \"telemetry\": {\n"
               "      \"steps_plain_ms\": %.3f,\n"
               "      \"steps_telemetry_ms\": %.3f,\n"
               "      \"overhead_pct\": %.3f\n"
               "    }\n",
               steps_plain, steps_telemetry,
               100.0 * (steps_telemetry - steps_plain) / steps_plain);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);

  if (!report->empty()) {
    obs::HostProfiler prof;
    struct { const char* kernel; KernelTimes* t; } rows[] = {
        {"move", &move_t}, {"collide", &collide_t}, {"deposit", &deposit_t}};
    for (const auto& row : rows) {
      for (int i = 0; i < kNumLanes; ++i)
        prof.record(std::string(row.kernel) + "/" + lanes[i].name,
                    slot(*row.t, i));
    }
    obs::RunReport rep;
    rep.config.bench = "bench_kernels";
    std::ostringstream cs;
    cs << "radial=" << *radial << " axial=" << *axial
       << " particles=" << *nparticles << " reps=" << nreps;
    rep.config.case_name = cs.str();
    rep.config.ranks = 1;
    rep.config.machine = "host";
    rep.config.kernel_threads = 4;
    rep.config.audit_severity = "off";
    rep.profiler = &prof;
    obs::write_run_report_file(*report, rep);
    std::printf("run report: %s\n", report->c_str());
  }

  std::printf("\nmove sorted kt4 vs serial:    %.2fx\n",
              move_t.serial / move_t.sorted_kt4);
  std::printf("collide sorted kt4 vs serial: %.2fx\n",
              collide_t.serial / collide_t.sorted_kt4);
  std::printf("deposit sorted kt4 vs serial: %.2fx  -> %s\n",
              deposit_t.serial / deposit_t.sorted_kt4, out->c_str());
  return 0;
}
