#include "fleet/report.hpp"

#include "balance/rebalancer.hpp"
#include "exchange/exchange.hpp"
#include "par/runtime.hpp"

namespace dsmcpic::fleet {

void fill_run_report(obs::RunReport& rep, const core::CoupledSolver& solver,
                     const core::RunSummary& summary,
                     std::span<const core::StepDiagnostics> history,
                     const ReportMeta& meta) {
  const core::ParallelConfig& par = solver.parallel_config();
  rep.config.bench = meta.bench;
  rep.config.case_name = meta.case_name;
  rep.config.ranks = par.nranks;
  rep.config.steps = meta.steps;
  rep.config.machine = meta.machine;
  rep.config.seed = meta.seed;
  rep.config.exec_mode = par::exec_mode_name(par.exec_mode);
  rep.config.exec_threads = par.exec_threads;
  rep.config.kernel_threads = par.kernel_threads;
  rep.config.sort_every = solver.config().sort_every;
  rep.config.strategy = exchange::strategy_name(par.strategy);
  rep.config.balance = par.balance.enabled;
  rep.config.audit_severity = meta.audit;
  rep.config.cost_model = balance::cost_model_name(par.balance.cost_model.kind);
  rep.config.policy = balance::policy_name(par.balance.policy.kind);
  rep.config.horizon = par.balance.policy.horizon;
  rep.ensemble.kind = balance::ensemble_name(par.balance.ensemble.kind);
  rep.ensemble.ranks_min = solver.ensemble().config().ranks_min;
  rep.ensemble.ranks_max = solver.ensemble().config().ranks_max;
  rep.ensemble.active_initial = solver.ensemble().initial_active();
  rep.ensemble.active_final = solver.active_ranks();
  rep.ensemble.resizes = solver.ensemble().resizes();
  rep.total_virtual_time = summary.total_time;
  rep.phases = summary.phases;
  rep.final_particles = summary.final_particles;
  for (const core::StepDiagnostics& d : history) rep.steps.add(d);
  rep.rebalance_decisions = summary.decisions;
}

}  // namespace dsmcpic::fleet
