#pragma once
// One record per DSMC step (DESIGN.md §2f). At the end of every step
// CoupledSolver copies the values it already computed into one plain
// StepRecord — built once, and only while a trace recorder or telemetry hub
// is attached — and every observability sink reads that record and nothing
// else: the trace counter tracks and rebalance instants
// (record_trace_counters below), and the TelemetryHub's series, totals,
// flight recorder and exposition. The end-of-run report, core::RunSummary,
// the rebalance policy's decision log and the fleet's lease carry share its
// PhaseRecord / DecisionRecord / StepTotals types.
//
// Plain values, so obs stays below core and balance in the layer graph. The
// per-step exchange volume is the difference to a snapshot taken at the
// start of the same step, so it is right after a checkpoint restore too.

#include <cstdint>
#include <string>
#include <vector>

namespace dsmcpic::trace {
class JsonWriter;
class TraceRecorder;
}

namespace dsmcpic::obs {

/// Per-DSMC-step diagnostics (drives Fig. 5 / Fig. 9-style outputs).
struct StepDiagnostics {
  int dsmc_step = 0;
  std::vector<std::int64_t> particles_per_rank;
  std::int64_t total_h = 0;
  std::int64_t total_hplus = 0;
  std::int64_t injected = 0;
  std::int64_t migrated_dsmc = 0;
  std::int64_t migrated_pic = 0;
  std::int64_t collisions = 0;
  std::int64_t ionizations = 0;
  std::int64_t recombinations = 0;
  std::int64_t exited_dsmc = 0;  // neutrals removed through inlet/outlet
  std::int64_t exited_pic = 0;   // charged particles removed at boundaries
  std::int64_t pic_lost = 0;     // charged particles the fine locate lost
  int poisson_iterations = 0;  // last PIC substep
  double lii = 0.0;            // load imbalance indicator this step
  bool rebalanced = false;
};

/// Cumulative virtual-time accounting of one runtime phase (plain copy of
/// par::PhaseStats plus its name).
struct PhaseRecord {
  std::string name;
  double busy_max = 0.0;
  double busy_min = 0.0;
  double busy_sum = 0.0;
  std::uint64_t transactions = 0;
  double bytes = 0.0;
};

/// One periodic when-to-rebalance decision; the policy records it
/// (balance::PolicyDecision is an alias) and the sinks read it as is.
struct DecisionRecord {
  int step = 0;
  double lii = 0.0;
  /// EWMA of the per-step imbalance cost (max - mean rank compute time).
  double imbalance_per_step = 0.0;
  /// Branch A: projected cumulative imbalance cost over the horizon.
  double projected_imbalance_cost = 0.0;
  /// Branch B: the learned cost of a rebalance event.
  double rebalance_cost_estimate = 0.0;
  bool rebalance = false;
};

/// Physics totals summed over steps.
struct StepTotals {
  std::int64_t injected = 0;
  std::int64_t migrated_dsmc = 0;
  std::int64_t migrated_pic = 0;
  std::int64_t collisions = 0;
  std::int64_t ionizations = 0;
  std::int64_t recombinations = 0;
  std::int64_t exited = 0;  // exited_dsmc + exited_pic
  std::int64_t pic_lost = 0;
  std::int64_t rebalances = 0;

  void add(const StepDiagnostics& d);
};

/// Everything the sinks read about one completed DSMC step. All fields
/// except pool_* derive from deterministic virtual state, so they are
/// bit-identical across execution backends.
struct StepRecord {
  StepDiagnostics diag;
  std::uint64_t supersteps = 0;  // runtime supersteps executed so far
  double virtual_time = 0.0;     // end-to-end virtual seconds so far
  int active_ranks = 0;
  std::int64_t particles = 0;  // alive at step end

  // ---- runtime accounting -------------------------------------------------
  std::vector<PhaseRecord> phases;  // cumulative, every phase run so far
  double exchange_bytes = 0.0;           // migration bytes this step
  std::uint64_t exchange_messages = 0;   // migration messages this step
  std::uint64_t pool_acquires = 0;  // PayloadPool counters (cumulative)
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_recycles = 0;

  // ---- balancer state -----------------------------------------------------
  /// Cost-model per-rank correction factors over the active set (1.0
  /// everywhere on the static model).
  double cost_scale_min = 1.0;
  double cost_scale_max = 1.0;
  double cost_scale_mean = 1.0;
  /// Policy decisions recorded at this step (usually empty or one).
  std::vector<DecisionRecord> decisions;

  // ---- audit tallies (cumulative; zero without an auditor) ----------------
  std::int64_t audit_checks = 0;
  std::int64_t audit_violations = 0;

  // ---- per nominal rank, for the trace counter tracks ---------------------
  std::vector<std::int64_t> cells_owned;
  std::vector<double> rank_clocks;  // virtual clock at step end
};

/// Writes `phases` / `decisions` as a JSON array of objects — the shape
/// run_report.json and postmortem.json share.
void write_phases(trace::JsonWriter& w, const std::vector<PhaseRecord>& phases);
void write_decisions(trace::JsonWriter& w,
                     const std::vector<DecisionRecord>& decisions);

/// Feeds the recorder's per-step counters (particles/cells owned per rank,
/// lii, migration counts and bytes) and marks a rebalance as an instant.
void record_trace_counters(trace::TraceRecorder& tr, const StepRecord& rec);

}  // namespace dsmcpic::obs
