// Example: long-running simulation with checkpoint/restart and the balance
// auto-tuner.
//   1. Auto-tune (T, Threshold) with short pilot runs (the paper's
//      "sampling script" approach).
//   2. Run the first half of the simulation and write a checkpoint.
//   3. Resume a fresh solver from the checkpoint and finish — the result is
//      identical to an uninterrupted run.

#include <cstdio>
#include <filesystem>

#include "core/autotune.hpp"
#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "obs/telemetry.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace dsmcpic;

int main(int argc, char** argv) {
  Cli cli("Checkpoint/restart + auto-tuning demo");
  const auto* steps = cli.add_int("steps", 40, "total DSMC steps");
  const auto* ranks = cli.add_int("ranks", 4, "virtual ranks");
  const auto* ckpt = cli.add_string("checkpoint", "demo.ckpt",
                                    "checkpoint file path");
  if (!cli.parse(argc, argv)) return 0;

  const core::Dataset ds = core::make_dataset(1);
  core::ParallelConfig par;
  par.nranks = static_cast<int>(*ranks);

  // 1. Auto-tune the balancer on short pilots.
  core::AutotuneOptions topt;
  topt.pilot_steps = 10;
  const core::AutotuneResult tuned =
      core::autotune_balance(ds.config, par, topt);
  Table t("Auto-tuning pilots (virtual seconds)");
  t.header({"T", "Threshold", "pilot time", "rebalances"});
  for (const auto& trial : tuned.trials)
    t.row({std::to_string(trial.period), Table::num(trial.threshold, 1),
           Table::num(trial.total_time, 2), std::to_string(trial.rebalances)});
  t.print();
  std::printf("selected T=%d Threshold=%.1f\n\n", tuned.best_period,
              tuned.best_threshold);
  par.balance.period = tuned.best_period;
  par.balance.threshold = tuned.best_threshold;

  // 2. First half + checkpoint, with a telemetry hub for inspection: its
  //    metrics.json holds per-step series (phase_busy_max/<phase>, lii,
  //    exchange_bytes, ...) of the run up to the checkpoint.
  const int half = static_cast<int>(*steps) / 2;
  {
    obs::TelemetryConfig tc;
    tc.metrics_prom_path = "demo_metrics.prom";
    tc.metrics_json_path = "demo_metrics.json";
    obs::TelemetryHub hub(tc);
    core::CoupledSolver solver(ds.config, par);
    solver.set_telemetry(&hub);
    solver.run(half);
    solver.save_checkpoint(*ckpt);
    hub.publish();
    std::printf("checkpointed at step %d -> %s (%lld particles); telemetry "
                "in demo_metrics.json / demo_metrics.prom\n",
                solver.current_step(), ckpt->c_str(),
                static_cast<long long>(solver.total_particles()));
  }

  // 3. Build a fresh solver straight from the checkpoint and finish the run
  //    (nullptr: the solver builds its own meshes).
  core::CoupledSolver resumed(ds.config, par, nullptr, *ckpt);
  resumed.run(static_cast<int>(*steps) - half);

  // Reference: the same run without interruption.
  core::CoupledSolver reference(ds.config, par);
  reference.run(static_cast<int>(*steps));

  std::printf(
      "resumed run:   %lld particles, %.3f virtual s\n"
      "uninterrupted: %lld particles, %.3f virtual s\n"
      "bit-identical: %s\n",
      static_cast<long long>(resumed.total_particles()),
      resumed.runtime().total_time(),
      static_cast<long long>(reference.total_particles()),
      reference.runtime().total_time(),
      (resumed.total_particles() == reference.total_particles() &&
       resumed.runtime().total_time() == reference.runtime().total_time())
          ? "YES"
          : "NO");
  std::filesystem::remove(*ckpt);
  return 0;
}
