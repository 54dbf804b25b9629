// Quickstart: run the coupled DSMC/PIC solver on a small plasma-plume case
// with 4 virtual ranks and the dynamic load balancer enabled, printing
// per-step diagnostics and the final phase breakdown.
//
//   ./quickstart [--ranks 4] [--steps 20] [--strategy dc|cc] [--no-balance]

#include <cstdio>
#include <iostream>

#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace dsmcpic;

int main(int argc, char** argv) {
  Cli cli("Quickstart for the coupled DSMC/PIC solver");
  const auto* ranks = cli.add_int("ranks", 4, "number of virtual ranks");
  const auto* steps = cli.add_int("steps", 20, "DSMC steps to run");
  const auto* dataset = cli.add_int("dataset", 1, "paper dataset id (1..6)");
  const auto* period = cli.add_int("period", 5, "load-balance period T");
  const auto* strategy =
      cli.add_string("strategy", "dc", "communication strategy: dc or cc");
  const auto* no_balance =
      cli.add_flag("no-balance", false, "disable the dynamic load balancer");
  if (!cli.parse(argc, argv)) return 0;

  core::Dataset ds = core::make_dataset(static_cast<int>(*dataset));
  core::ParallelConfig par;
  par.nranks = static_cast<int>(*ranks);
  par.strategy = (*strategy == "cc") ? exchange::Strategy::kCentralized
                                     : exchange::Strategy::kDistributed;
  par.balance.enabled = !*no_balance;
  par.balance.period = static_cast<int>(*period);
  par.particle_scale = ds.paper_particle_scale;
  par.grid_scale = ds.paper_grid_scale;

  std::printf("Coupled DSMC/PIC quickstart: %s, %d ranks, %s strategy, LB %s\n",
              ds.name.c_str(), par.nranks,
              exchange::strategy_name(par.strategy),
              par.balance.enabled ? "on" : "off");

  core::CoupledSolver solver(ds.config, par);
  std::printf("grid: %d coarse cells, %d fine cells, %d fine nodes\n",
              solver.coarse_grid().num_tets(),
              solver.fine_grid().fine().num_tets(),
              solver.fine_grid().fine().num_nodes());

  for (int s = 0; s < *steps; ++s) {
    const core::StepDiagnostics d = solver.step();
    std::printf(
        "step %3d  H=%8lld  H+=%6lld  inj=%6lld  migrated=%6lld  coll=%6lld  "
        "poisson_it=%3d  lii=%6.2f%s\n",
        d.dsmc_step, static_cast<long long>(d.total_h),
        static_cast<long long>(d.total_hplus),
        static_cast<long long>(d.injected),
        static_cast<long long>(d.migrated_dsmc + d.migrated_pic),
        static_cast<long long>(d.collisions), d.poisson_iterations, d.lii,
        d.rebalanced ? "  [rebalanced]" : "");
    if ((s + 1) % 10 == 0)
      std::printf("          cumulative virtual time: %.1f s\n",
                  solver.runtime().total_time());
  }

  const core::RunSummary sum = solver.summary();
  Table t("Phase breakdown (virtual seconds, max over ranks)");
  t.header({"phase", "busy_max", "busy_min", "transactions"});
  for (const auto& p : sum.phases)
    t.row({p.name, Table::num(p.busy_max, 3), Table::num(p.busy_min, 3),
           std::to_string(p.transactions)});
  t.print();
  std::printf("total virtual time: %.3f s, final particles: %lld\n",
              sum.total_time, static_cast<long long>(sum.final_particles));
  return 0;
}
