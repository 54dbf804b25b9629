#pragma once
// When-to-rebalance policies (DESIGN.md §2h).
//
// The paper triggers Algorithm 1 whenever the load-imbalance indicator
// exceeds a fixed Threshold at a fixed period T — cheap, but blind to what
// a rebalance *costs* (repartition + KM + particle migration) and to where
// the imbalance is *heading*. Following ljmpi's framing of load-balancing
// schedules as a shortest-path search over rebalance/no-rebalance
// sequences, the look-ahead policy makes each periodic check a rolling
// two-branch shortest-path decision:
//
//   branch A (keep going):   sum over the horizon H of the projected
//                            *recoverable* per-step imbalance cost (EWMA
//                            level + trend extrapolation of max-mean rank
//                            cost, less the learned post-rebalance
//                            residual — a rebalance cannot remove the
//                            imbalance a fresh partition still has);
//   branch B (rebalance):    the learned cost of a rebalance event
//                            (EWMA of measured repartition + migration
//                            virtual time), after which imbalance drops
//                            back to the residual.
//
// Rebalance iff branch A is the longer path. The fixed-threshold trigger
// remains available as the baseline (and as the H = 0 degenerate case:
// with no look-ahead there is no projection to weigh, so the policy falls
// back to the threshold comparison).
//
// Every input is virtual time (never wall clock), so decision sequences
// are deterministic and reproducible run-to-run and across exec modes.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/step_record.hpp"

namespace dsmcpic::balance {

enum class PolicyKind { kThreshold, kLookahead };

const char* policy_name(PolicyKind k);
/// Parses "threshold" / "lookahead" (throws on anything else).
PolicyKind parse_policy(const std::string& name);

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kThreshold;
  /// Look-ahead horizon in DSMC steps for kLookahead.
  int horizon = 20;
};

/// One periodic decision, recorded for run_report.json and the benches;
/// defined with the step record that carries it.
using PolicyDecision = obs::DecisionRecord;

class RebalancePolicy {
 public:
  RebalancePolicy() = default;
  /// `threshold` is the lii trigger of kThreshold and of the H = 0 fallback
  /// (RebalanceConfig::threshold). `nranks` (0 = unknown) widens the learned
  /// residual above 64 ranks: there each rank owns few cells, so the sampled
  /// post-rebalance residual is optimistic and branch A over-buys
  /// rebalances (seen at >= 96 ranks in the fig13 sweep). The widening is
  /// exactly 1.0x at <= 64 ranks, so the golden configs are untouched.
  RebalancePolicy(PolicyConfig cfg, double threshold, int nranks = 0);

  const PolicyConfig& config() const { return cfg_; }

  /// Per-step observation: each rank's imbalance-relevant virtual-time
  /// cost for this step (total busy minus migration and Poisson, the same
  /// signal Eq. 6 is built from). Updates the imbalance level and trend.
  void observe_step(std::span<const double> rank_step_cost);

  /// Feedback after a rebalance actually ran: its measured virtual-time
  /// cost (repartition + KM + migration + rebuild). Updates the cost
  /// estimate and resets the imbalance level/trend — the load landscape
  /// changed discontinuously, so the policy re-learns it.
  void observe_rebalance(double measured_cost);

  /// The periodic decision (call at period boundaries only). Appends to
  /// decisions() and returns the verdict.
  PolicyDecision decide(int step, double lii);

  const std::vector<PolicyDecision>& decisions() const { return decisions_; }
  /// Rebalance-cost estimate branch B currently uses: the EWMA of the
  /// measured costs, 0 before the first measurement.
  double rebalance_cost_estimate() const { return cost_estimate_; }
  /// EWMA of the per-step imbalance cost (0 until observed).
  double imbalance_per_step() const { return imb_level_; }
  /// Learned residual imbalance of a fresh partition (0 until a rebalance
  /// has been observed and the following step sampled).
  double residual_imbalance() const { return residual_; }
  /// Number of measured rebalance events fed back so far.
  int rebalances_observed() const { return rebalances_observed_; }

  // Checkpoint support (state must survive restart bit-for-bit).
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  PolicyConfig cfg_;
  double threshold_ = 0.0;
  int nranks_ = 0;
  double imb_level_ = 0.0;  // EWMA of per-step (max - mean) cost
  double imb_trend_ = 0.0;  // EWMA of its per-step delta
  double prev_imb_ = 0.0;
  bool has_observation_ = false;
  double residual_ = 0.0;        // EWMA of post-rebalance imbalance
  bool awaiting_residual_ = false;  // sample the next observe_step
  int residual_samples_ = 0;
  double cost_estimate_ = 0.0;  // EWMA of measured rebalance costs
  int rebalances_observed_ = 0;
  std::vector<PolicyDecision> decisions_;
};

}  // namespace dsmcpic::balance
