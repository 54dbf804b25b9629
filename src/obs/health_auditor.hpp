#pragma once
// In-run invariant auditing for the coupled solver (DESIGN.md §2f). A run
// can be deterministic and still *wrong*: a leaked particle, an unbalanced
// charge deposit or an undrained mailbox only surfaces later as a diverged
// golden digest with no hint of where the books broke. The HealthAuditor
// watches the step loop live:
//
//   * particle books — owned + in-flight + absorbed + injected balance
//     across every step (begin + injected + spawned - dropped == end);
//   * exchange conservation — every migration preserves the live particle
//     count, and everything it drops was explicitly flagged beforehand
//     (move exits, locate losses, recombined ions);
//   * charge balance — total deposited node charge equals the summed
//     charge of the live charged particles it was scattered from;
//   * Poisson residual — the distributed CG's relative residual is finite
//     and within bound;
//   * ownership partition — every coarse cell is owned by exactly one
//     valid rank and appears in exactly its owner's cell list (checked
//     every step, so a botched rebalance is caught the step it happens);
//   * mailboxes drained — the BSP runtime holds no undelivered message at
//     step end;
//   * rebalance cost — the rebalance policy's recorded migration-cost
//     estimate stays within a factor of the measured rebalance span
//     (post-rebalance ownership being an exact partition is covered by the
//     ownership invariant, which runs every step).
//
// The auditor is pure observation: hooks receive values the solver already
// computed (or recomputes read-only), never mutate solver state, and never
// draw randomness — golden digests and trace bytes are bit-identical with
// audits on or off (tests/obs_test.cpp, tests/golden_test.cpp).
//
// Violations are routed by severity: kWarnOnly writes one stderr line per
// violation, "[audit] step N: <invariant> violated: <detail>", in a single
// write; kAbort throws dsmcpic::Error; kCountOnly only tallies. All
// severities tally, and the tallies land in run_report.json.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dsmcpic::obs {

enum class Invariant {
  kParticleBooks = 0,
  kExchangeConservation,
  kChargeBalance,
  kPoissonResidual,
  kOwnership,
  kMailboxDrained,
  kRebalanceCost,
};
inline constexpr int kNumInvariants = 7;

/// Stable snake_case names used in violation texts and run_report.json.
const char* invariant_name(Invariant inv);

enum class AuditSeverity { kWarnOnly, kAbort, kCountOnly };

/// Parses "warn" / "abort" / "count" (throws on anything else).
AuditSeverity parse_audit_severity(const std::string& name);

/// The one setting a run chooses (`--audit`). The charge tolerance (1e-9
/// relative), the unconverged-Poisson bound (1e-3) and the rebalance-cost
/// factor (16x) are constants in health_auditor.cpp.
struct AuditConfig {
  AuditSeverity severity = AuditSeverity::kWarnOnly;
};

struct InvariantTally {
  std::int64_t checks = 0;
  std::int64_t violations = 0;
};

struct AuditReport {
  std::array<InvariantTally, kNumInvariants> by_invariant{};
  /// First violation in step order, for the log-free post-mortem.
  std::string first_violation;
  int first_violation_step = -1;

  std::int64_t checks() const;
  std::int64_t violations() const;
};

class HealthAuditor {
 public:
  explicit HealthAuditor(AuditConfig cfg = {});

  const AuditConfig& config() const { return cfg_; }
  const AuditReport& report() const { return report_; }

  // ---- step ledger (driver thread, called by CoupledSolver) --------------
  void begin_step(int step, std::int64_t alive);
  void on_injected(std::int64_t n) { injected_ += n; }
  /// Ionization spawns appended to the stores this step.
  void on_spawned(std::int64_t n) { spawned_ += n; }
  /// Particles flagged for removal (move exits, PIC locate losses,
  /// recombined ions) — the expected drop count of the next exchange.
  void on_flagged(std::int64_t n) { flagged_ += n; }
  /// Books of one exchange: store totals before/after, the stats' dropped
  /// count. Checks conservation and that drops == flags, then consumes the
  /// flag pool.
  void check_exchange(const char* phase, std::int64_t total_before,
                      std::int64_t dropped, std::int64_t total_after);
  /// Closes the step: particle ledger + mailbox drain.
  void end_step(std::int64_t alive, std::int64_t undelivered_messages);

  // ---- field-side invariants ---------------------------------------------
  void check_charge(double particle_charge, double deposited_charge);
  void check_poisson(int iterations, double residual, double rel_tol,
                     bool converged);
  /// `owner` maps each coarse cell to a rank; `rank_cells[r]` lists rank
  /// r's cells. Verifies the partition is exact over the `nranks` ACTIVE
  /// ranks; `rank_cells` may be longer (nominal size) as long as every
  /// parked list beyond the active prefix is empty.
  void check_ownership(std::span<const std::int32_t> owner, int nranks,
                       const std::vector<std::vector<std::int32_t>>& rank_cells);
  /// After a rebalance: the policy's learned cost estimate vs the measured
  /// virtual-time span of the event (redecompose + migration + rebuild).
  /// Call only once the policy has at least one prior measurement — the
  /// first event is by definition unestimated.
  void check_rebalance_cost(double estimated, double measured);

 private:
  /// Tallies, writes to stderr or throws per cfg_.severity.
  void check(Invariant inv, bool ok, const std::string& detail);

  AuditConfig cfg_;
  AuditReport report_;

  int step_ = -1;
  std::int64_t step_begin_alive_ = 0;
  std::int64_t injected_ = 0;
  std::int64_t spawned_ = 0;
  std::int64_t flagged_ = 0;        // awaiting the next exchange
  std::int64_t dropped_total_ = 0;  // consumed flags, step to date
};

}  // namespace dsmcpic::obs
