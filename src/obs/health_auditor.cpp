#include "obs/health_auditor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/error.hpp"

namespace dsmcpic::obs {

namespace {

/// Relative tolerance for the charge balance (the deposit's serial scatter
/// order differs from the audit's particle-order resum).
constexpr double kChargeRelTol = 1e-9;
/// Residual bound applied when the CG did NOT converge (a converged solve
/// is checked against its own rel_tol).
constexpr double kPoissonResidualBound = 1e-3;
/// The policy's rebalance-cost estimate must lie within this factor of the
/// measured rebalance span (either direction). Generous by design: the
/// estimate is an EWMA of *past* rebalances and migration volume varies
/// between events; the invariant catches estimates that are off by orders
/// of magnitude (a broken feedback loop), not EWMA lag.
constexpr double kRebalanceCostFactor = 16.0;

}  // namespace

const char* invariant_name(Invariant inv) {
  switch (inv) {
    case Invariant::kParticleBooks:
      return "particle_books";
    case Invariant::kExchangeConservation:
      return "exchange_conservation";
    case Invariant::kChargeBalance:
      return "charge_balance";
    case Invariant::kPoissonResidual:
      return "poisson_residual";
    case Invariant::kOwnership:
      return "ownership";
    case Invariant::kMailboxDrained:
      return "mailbox_drained";
    case Invariant::kRebalanceCost:
      return "rebalance_cost";
  }
  return "unknown";
}

AuditSeverity parse_audit_severity(const std::string& name) {
  if (name == "warn") return AuditSeverity::kWarnOnly;
  if (name == "abort") return AuditSeverity::kAbort;
  if (name == "count") return AuditSeverity::kCountOnly;
  throw UsageError("unknown audit severity '" + name +
                   "' (expected warn|abort|count)");
}

std::int64_t AuditReport::checks() const {
  std::int64_t n = 0;
  for (const auto& t : by_invariant) n += t.checks;
  return n;
}

std::int64_t AuditReport::violations() const {
  std::int64_t n = 0;
  for (const auto& t : by_invariant) n += t.violations;
  return n;
}

HealthAuditor::HealthAuditor(AuditConfig cfg) : cfg_(cfg) {}

void HealthAuditor::check(Invariant inv, bool ok, const std::string& detail) {
  auto& tally = report_.by_invariant[static_cast<std::size_t>(inv)];
  ++tally.checks;
  if (ok) return;
  ++tally.violations;
  std::ostringstream os;
  os << "step " << step_ << ": " << invariant_name(inv) << " violated: "
     << detail;
  const std::string msg = os.str();
  if (report_.first_violation.empty()) {
    report_.first_violation = msg;
    report_.first_violation_step = step_;
  }
  switch (cfg_.severity) {
    case AuditSeverity::kWarnOnly: {
      // One write per line, so violations from concurrent runs never
      // interleave fragments.
      const std::string line = "[audit] " + msg + "\n";
      std::fwrite(line.data(), 1, line.size(), stderr);
      break;
    }
    case AuditSeverity::kAbort:
      throw Error("audit: " + msg);
    case AuditSeverity::kCountOnly:
      break;
  }
}

void HealthAuditor::begin_step(int step, std::int64_t alive) {
  step_ = step;
  step_begin_alive_ = alive;
  injected_ = 0;
  spawned_ = 0;
  flagged_ = 0;
  dropped_total_ = 0;
}

void HealthAuditor::check_exchange(const char* phase, std::int64_t total_before,
                                   std::int64_t dropped,
                                   std::int64_t total_after) {
  check(Invariant::kExchangeConservation,
        total_after == total_before - dropped && dropped == flagged_,
        [&] {
          std::ostringstream os;
          os << phase << " exchange: before=" << total_before
             << " dropped=" << dropped << " after=" << total_after
             << " expected_drops(flagged)=" << flagged_;
          return os.str();
        }());
  dropped_total_ += dropped;
  flagged_ = 0;  // the exchange consumed (compacted away) all flags
}

void HealthAuditor::end_step(std::int64_t alive,
                             std::int64_t undelivered_messages) {
  const std::int64_t expected =
      step_begin_alive_ + injected_ + spawned_ - dropped_total_;
  check(Invariant::kParticleBooks, alive == expected, [&] {
    std::ostringstream os;
    os << "begin=" << step_begin_alive_ << " +injected=" << injected_
       << " +spawned=" << spawned_ << " -dropped=" << dropped_total_
       << " => expected " << expected << " alive, found " << alive;
    return os.str();
  }());
  check(Invariant::kMailboxDrained, undelivered_messages == 0, [&] {
    std::ostringstream os;
    os << undelivered_messages << " undelivered message(s) in the runtime";
    return os.str();
  }());
}

void HealthAuditor::check_charge(double particle_charge,
                                 double deposited_charge) {
  const double scale =
      std::max({std::abs(particle_charge), std::abs(deposited_charge), 1e-300});
  const double rel = std::abs(particle_charge - deposited_charge) / scale;
  check(Invariant::kChargeBalance,
        std::isfinite(deposited_charge) && rel <= kChargeRelTol, [&] {
          std::ostringstream os;
          os.precision(17);
          os << "deposited=" << deposited_charge
             << " vs particle=" << particle_charge << " (rel err " << rel
             << ", tol " << kChargeRelTol << ")";
          return os.str();
        }());
}

void HealthAuditor::check_poisson(int iterations, double residual,
                                  double rel_tol, bool converged) {
  const double bound = converged ? rel_tol : kPoissonResidualBound;
  check(Invariant::kPoissonResidual,
        std::isfinite(residual) && residual <= bound, [&] {
          std::ostringstream os;
          os.precision(17);
          os << "cg " << (converged ? "converged" : "NOT converged") << " after "
             << iterations << " iterations, residual " << residual
             << " exceeds bound " << bound;
          return os.str();
        }());
}

void HealthAuditor::check_ownership(
    std::span<const std::int32_t> owner, int nranks,
    const std::vector<std::vector<std::int32_t>>& rank_cells) {
  // Under an elastic ensemble rank_cells keeps its NOMINAL size while
  // `nranks` is the active count: the lists beyond the active prefix must
  // be empty (parked ranks own nothing).
  bool ok = static_cast<int>(rank_cells.size()) >= nranks;
  std::string detail;
  for (std::size_t r = static_cast<std::size_t>(nranks);
       ok && r < rank_cells.size(); ++r) {
    if (!rank_cells[r].empty()) {
      std::ostringstream os;
      os << "parked rank " << r << " still lists " << rank_cells[r].size()
         << " cell(s)";
      detail = os.str();
      ok = false;
    }
  }
  // seen[c] counts appearances of cell c across all rank lists.
  std::vector<std::int32_t> seen(owner.size(), 0);
  for (std::size_t r = 0; ok && r < rank_cells.size(); ++r) {
    for (const std::int32_t c : rank_cells[r]) {
      if (c < 0 || static_cast<std::size_t>(c) >= owner.size() ||
          owner[c] != static_cast<std::int32_t>(r)) {
        std::ostringstream os;
        os << "cell " << c << " listed by rank " << r << " but owner is "
           << (c >= 0 && static_cast<std::size_t>(c) < owner.size()
                   ? owner[c]
                   : -1);
        detail = os.str();
        ok = false;
        break;
      }
      ++seen[static_cast<std::size_t>(c)];
    }
  }
  for (std::size_t c = 0; ok && c < owner.size(); ++c) {
    if (owner[c] < 0 || owner[c] >= nranks || seen[c] != 1) {
      std::ostringstream os;
      os << "cell " << c << " owned by rank " << owner[c] << " appears "
         << seen[c] << " time(s) in the rank cell lists";
      detail = os.str();
      ok = false;
    }
  }
  check(Invariant::kOwnership, ok, detail);
}

void HealthAuditor::check_rebalance_cost(double estimated, double measured) {
  // Either direction: a wildly over-estimating policy never rebalances, a
  // wildly under-estimating one thrashes. Both are feedback-loop breaks.
  const double f = kRebalanceCostFactor;
  const bool ok = std::isfinite(estimated) && std::isfinite(measured) &&
                  estimated >= 0.0 && measured >= 0.0 &&
                  estimated <= f * measured && measured <= f * estimated;
  check(Invariant::kRebalanceCost, ok, [&] {
    std::ostringstream os;
    os.precision(17);
    os << "policy estimated " << estimated << " vs measured " << measured
       << " (allowed factor " << f << ")";
    return os.str();
  }());
}

}  // namespace dsmcpic::obs
