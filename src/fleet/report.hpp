#pragma once
// One shared run_report.json assembler. The per-bench wiring that used to
// live inline in bench/common.cpp run_case() — config echo, ensemble
// summary, virtual-time phases, step totals, rebalance decisions — is the
// same wiring every fleet run needs, so it lives here once and both the
// bench harness and the FleetRunner call it.

#include <cstdint>
#include <span>
#include <string>

#include "core/solver.hpp"
#include "obs/run_report.hpp"

namespace dsmcpic::fleet {

/// Identity strings a report caller supplies (everything else is read off
/// the solver and its summary).
struct ReportMeta {
  std::string bench;           // emitting binary, e.g. "bench_fig05" / "fleet"
  std::string case_name;       // human-readable case id within the bench
  std::string machine = "tianhe2";
  std::uint64_t seed = 42;
  int steps = 0;               // DSMC steps of the WHOLE run
  std::string audit = "off";   // audit severity echo ("off" = no auditor)
};

/// Fills `rep` from a finished solver: config echo, ensemble section,
/// virtual-time totals + phases, final particles, step totals, and every
/// rebalance decision. `history`'s step totals are ADDED onto whatever
/// rep.steps already holds — zeros for a plain bench case; the carried
/// pre-park totals for a fleet run resumed from a checkpoint (whose history
/// covers only the final lease). The audit/profiler pointers are left
/// untouched for the caller to attach.
void fill_run_report(obs::RunReport& rep, const core::CoupledSolver& solver,
                     const core::RunSummary& summary,
                     std::span<const core::StepDiagnostics> history,
                     const ReportMeta& meta);

}  // namespace dsmcpic::fleet
