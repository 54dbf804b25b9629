#include "balance/policy.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/serialize.hpp"

namespace dsmcpic::balance {

namespace {

/// EWMA weight of the newest imbalance-cost / rebalance-cost sample.
constexpr double kEwmaAlpha = 0.3;
/// Per-octave weight of the rank-count residual margin above 64 ranks
/// (see the RebalancePolicy constructor).
constexpr double kResidualMargin = 0.25;

}  // namespace

const char* policy_name(PolicyKind k) {
  switch (k) {
    case PolicyKind::kThreshold: return "threshold";
    case PolicyKind::kLookahead: return "lookahead";
  }
  return "?";
}

PolicyKind parse_policy(const std::string& name) {
  if (name == "threshold") return PolicyKind::kThreshold;
  if (name == "lookahead") return PolicyKind::kLookahead;
  throw UsageError("unknown rebalance policy '" + name +
                   "' (expected threshold|lookahead)");
}

RebalancePolicy::RebalancePolicy(PolicyConfig cfg, double threshold,
                                 int nranks)
    : cfg_(cfg), threshold_(threshold), nranks_(nranks) {
  DSMCPIC_CHECK_MSG(cfg_.horizon >= 0, "policy horizon must be >= 0");
  DSMCPIC_CHECK_MSG(nranks_ >= 0, "policy nranks must be >= 0");
}

void RebalancePolicy::observe_step(std::span<const double> rank_step_cost) {
  DSMCPIC_CHECK(!rank_step_cost.empty());
  double mx = rank_step_cost[0], sum = 0.0;
  for (const double c : rank_step_cost) {
    mx = std::max(mx, c);
    sum += c;
  }
  // Virtual seconds the step loses to imbalance: the slowest rank's cost
  // over the mean. Balanced -> 0.
  const double imb =
      std::max(0.0, mx - sum / static_cast<double>(rank_step_cost.size()));
  if (awaiting_residual_) {
    // First step on the fresh partition: this is the imbalance a rebalance
    // buys, i.e. what branch A can never recover below.
    residual_ = residual_samples_ == 0
                    ? imb
                    : (1.0 - kEwmaAlpha) * residual_ + kEwmaAlpha * imb;
    ++residual_samples_;
    awaiting_residual_ = false;
  }
  if (!has_observation_) {
    imb_level_ = imb;
    imb_trend_ = 0.0;
    has_observation_ = true;
  } else {
    imb_trend_ =
        (1.0 - kEwmaAlpha) * imb_trend_ + kEwmaAlpha * (imb - prev_imb_);
    imb_level_ = (1.0 - kEwmaAlpha) * imb_level_ + kEwmaAlpha * imb;
  }
  prev_imb_ = imb;
}

void RebalancePolicy::observe_rebalance(double measured_cost) {
  DSMCPIC_CHECK_MSG(measured_cost >= 0.0, "rebalance cost must be >= 0");
  cost_estimate_ = rebalances_observed_ == 0
                       ? measured_cost
                       : (1.0 - kEwmaAlpha) * cost_estimate_ +
                             kEwmaAlpha * measured_cost;
  ++rebalances_observed_;
  // The decomposition just changed: yesterday's imbalance level and trend
  // describe a partition that no longer exists. Re-learn from scratch.
  imb_level_ = 0.0;
  imb_trend_ = 0.0;
  prev_imb_ = 0.0;
  has_observation_ = false;
  awaiting_residual_ = true;
}

PolicyDecision RebalancePolicy::decide(int step, double lii) {
  PolicyDecision d;
  d.step = step;
  d.lii = lii;
  d.imbalance_per_step = imb_level_;
  d.rebalance_cost_estimate = rebalance_cost_estimate();

  // Branch A: the *recoverable* cost of staying imbalanced for the next
  // `horizon` steps — the EWMA level extrapolated along its trend, less
  // the learned post-rebalance residual (a rebalance cannot do better
  // than a fresh partition does), clamped at zero per step. Above 64 ranks
  // the residual is widened (see the constructor).
  const double rank_margin =
      nranks_ > 64
          ? 1.0 + kResidualMargin *
                      std::log2(static_cast<double>(nranks_) / 64.0)
          : 1.0;
  const double residual = residual_ * rank_margin;
  double projected = 0.0;
  for (int k = 1; k <= cfg_.horizon; ++k)
    projected += std::max(
        0.0, imb_level_ + static_cast<double>(k) * imb_trend_ - residual);
  d.projected_imbalance_cost = projected;

  if (cfg_.kind == PolicyKind::kThreshold || cfg_.horizon == 0) {
    // The paper's fixed trigger; also the H = 0 degenerate case of the
    // look-ahead (nothing to project over).
    d.rebalance = lii > threshold_;
  } else {
    d.rebalance = has_observation_ && projected > 0.0 &&
                  projected > d.rebalance_cost_estimate;
  }
  decisions_.push_back(d);
  return d;
}

void RebalancePolicy::save(std::ostream& os) const {
  io::write_pod(os, imb_level_);
  io::write_pod(os, imb_trend_);
  io::write_pod(os, prev_imb_);
  io::write_pod(os, has_observation_);
  io::write_pod(os, residual_);
  io::write_pod(os, awaiting_residual_);
  io::write_pod(os, residual_samples_);
  io::write_pod(os, cost_estimate_);
  io::write_pod(os, rebalances_observed_);
  // Field by field: a raw record would carry its padding bytes.
  io::write_pod<std::uint64_t>(os, decisions_.size());
  for (const PolicyDecision& d : decisions_) {
    io::write_pod(os, d.step);
    io::write_pod(os, d.lii);
    io::write_pod(os, d.imbalance_per_step);
    io::write_pod(os, d.projected_imbalance_cost);
    io::write_pod(os, d.rebalance_cost_estimate);
    io::write_pod(os, d.rebalance);
  }
}

void RebalancePolicy::load(std::istream& is) {
  imb_level_ = io::read_pod<double>(is);
  imb_trend_ = io::read_pod<double>(is);
  prev_imb_ = io::read_pod<double>(is);
  has_observation_ = io::read_bool(is);
  residual_ = io::read_pod<double>(is);
  awaiting_residual_ = io::read_bool(is);
  residual_samples_ = io::read_pod<int>(is);
  cost_estimate_ = io::read_pod<double>(is);
  rebalances_observed_ = io::read_pod<int>(is);
  const auto n = io::read_pod<std::uint64_t>(is);
  decisions_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    PolicyDecision d;
    d.step = io::read_pod<int>(is);
    d.lii = io::read_pod<double>(is);
    d.imbalance_per_step = io::read_pod<double>(is);
    d.projected_imbalance_cost = io::read_pod<double>(is);
    d.rebalance_cost_estimate = io::read_pod<double>(is);
    d.rebalance = io::read_bool(is);
    decisions_.push_back(d);
  }
}

}  // namespace dsmcpic::balance
