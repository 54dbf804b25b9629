#pragma once
// Machine-readable end-of-run report (DESIGN.md §2f). Every bench case can
// emit one `run_report.json` capturing what the run was (config echo), what
// the cost model said (virtual-time summary per phase), what the physics
// did (step totals), whether the books balanced (health-audit tallies) and
// where the host spent real milliseconds (host profile). scripts/
// check_report.sh validates the shape; scripts/check_bench_regression.py
// gates the kernel timings.
//
// The struct is plain values so this module stays below core in the layer
// graph: the bench harness (or any caller) copies the numbers out of
// core::RunSummary and the step history into the PhaseRecord /
// DecisionRecord / StepTotals types of obs/step_record.hpp; obs never
// includes core headers. Serialization uses trace::JsonWriter, so
// identical inputs produce identical bytes (the host-profile milliseconds
// are wall-clock and naturally vary; the document *structure* never does).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/health_auditor.hpp"
#include "obs/host_profiler.hpp"
#include "obs/step_record.hpp"

namespace dsmcpic::obs {

inline constexpr const char* kRunReportSchema = "dsmcpic.run_report.v1";

/// Echo of the case configuration (strings pre-rendered by the caller).
struct RunReportConfig {
  std::string bench;       // bench binary name, e.g. "bench_strategies"
  std::string case_name;   // human-readable case id within the bench
  int ranks = 0;
  int steps = 0;
  std::string machine;
  std::uint64_t seed = 0;
  std::string exec_mode;
  int exec_threads = 0;
  int kernel_threads = 0;
  int sort_every = 0;  // periodic cell-sort interval (0 = never)
  std::string strategy;
  bool balance = false;
  std::string audit_severity;  // "off" when no auditor was attached
  std::string cost_model;      // "static" | "timer"
  std::string policy;          // "threshold" | "lookahead"
  int horizon = 0;             // look-ahead horizon H (steps)
};

/// Elastic rank ensemble summary (DESIGN.md §2i). `ranks` in the config
/// above stays the NOMINAL machine size; this section says how much of it
/// was actually dispatched. active_final == ranks and resizes == 0 on the
/// fixed dense path.
struct RunReportEnsemble {
  std::string kind = "fixed";  // "fixed" | "elastic"
  int ranks_min = 0;
  int ranks_max = 0;
  int active_initial = 0;
  int active_final = 0;
  int resizes = 0;
};

struct RunReport {
  RunReportConfig config;
  RunReportEnsemble ensemble;
  double total_virtual_time = 0.0;
  std::vector<PhaseRecord> phases;
  std::int64_t final_particles = 0;
  /// Whole-run physics totals; the report prints all but exited/pic_lost.
  StepTotals steps;
  /// Every policy decision made during the run (empty when balancing was
  /// off). Deterministic: virtual-time inputs only.
  std::vector<DecisionRecord> rebalance_decisions;
  /// Optional sections; null pointer renders as {"enabled": false}.
  const AuditReport* audit = nullptr;
  const HostProfiler* profiler = nullptr;
};

void write_run_report(std::ostream& os, const RunReport& report);
/// Writes (overwrites) `path`; throws dsmcpic::Error on I/O failure.
void write_run_report_file(const std::string& path, const RunReport& report);

}  // namespace dsmcpic::obs
