// Unit battery for the timer-augmented cost model and the when-to-rebalance
// policies (DESIGN.md §2h). These tests pin the decision layer in isolation
// from the solver: EWMA convergence of the per-rank corrections, recovery of
// per-cell weights from synthetic timings, the correction clamp, the
// threshold/look-ahead equivalences, and the checkpoint roundtrips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "balance/cost_model.hpp"
#include "balance/policy.hpp"
#include "support/error.hpp"

namespace dsmcpic::balance {
namespace {

// ---- CostModel --------------------------------------------------------------

TEST(CostModel, ParseAndNameRoundtrip) {
  EXPECT_EQ(parse_cost_model("static"), CostModelKind::kStatic);
  EXPECT_EQ(parse_cost_model("timer"), CostModelKind::kTimer);
  EXPECT_STREQ(cost_model_name(CostModelKind::kTimer), "timer");
  EXPECT_THROW(parse_cost_model("wallclock"), Error);
  EXPECT_THROW(parse_cost_model("hybrid"), Error);
}

TEST(CostModel, StaticKindIgnoresObservations) {
  CostModelConfig cfg;
  cfg.kind = CostModelKind::kStatic;
  CostModel m(cfg, 2);
  const std::vector<double> measured{10.0, 1.0}, predicted{1.0, 1.0};
  for (int i = 0; i < 50; ++i) m.observe_step(measured, predicted);
  EXPECT_EQ(m.observations(), 0);
  EXPECT_DOUBLE_EQ(m.rank_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(m.rank_scale(1), 1.0);
}

TEST(CostModel, StaticCellWeightsAreExactlyEq7) {
  // The default-compatible path must reproduce wlm = N + R*C + W_cell
  // bit-for-bit — this is what keeps the pre-cost-model golden digests.
  CostModel m(CostModelConfig{}, 2);
  const std::vector<std::int32_t> owner{0, 0, 1, 1};
  const std::vector<std::int64_t> neutrals{10, 0, 3, 7};
  const std::vector<std::int64_t> charged{0, 4, 1, 0};
  const auto w = m.cell_weights(owner, neutrals, charged,
                                /*weight_ratio=*/2.5, /*cell_weight=*/0.5);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 10 + 2.5 * 0 + 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0 + 2.5 * 4 + 0.5);
  EXPECT_DOUBLE_EQ(w[2], 3 + 2.5 * 1 + 0.5);
  EXPECT_DOUBLE_EQ(w[3], 7 + 2.5 * 0 + 0.5);
}

TEST(CostModel, EwmaConvergesToMeasuredOverPredictedRatio) {
  // Rank 0 consistently costs 1.5x its predicted share, rank 1 0.5x
  // (measured {3,1} vs predicted {1,1}: means are 2 and 1, so the
  // normalized ratios are 1.5 and 0.5). The EWMA must converge there.
  CostModelConfig cfg;
  cfg.kind = CostModelKind::kTimer;
  CostModel m(cfg, 2);
  const std::vector<double> measured{3.0, 1.0}, predicted{1.0, 1.0};
  for (int i = 0; i < 60; ++i) m.observe_step(measured, predicted);
  EXPECT_EQ(m.observations(), 60);
  EXPECT_NEAR(m.rank_scale(0), 1.5, 1e-9);
  EXPECT_NEAR(m.rank_scale(1), 0.5, 1e-9);
}

TEST(CostModel, RecoversPerCellWeightsFromSyntheticTimings) {
  // 2 ranks x 2 cells, equal static loads per rank. Feed timings where
  // rank 0's particles do double the work; the timer weights must come
  // back with rank-0 cells 2x the weight of rank-1 cells (the ratio of the
  // mean-normalized corrections (4/3)/(2/3)), preserving the static
  // weights' within-rank shape.
  CostModelConfig cfg;
  cfg.kind = CostModelKind::kTimer;
  CostModel m(cfg, 2);
  const std::vector<double> measured{2.0, 1.0}, predicted{1.0, 1.0};
  for (int i = 0; i < 60; ++i) m.observe_step(measured, predicted);

  const std::vector<std::int32_t> owner{0, 0, 1, 1};
  const std::vector<std::int64_t> neutrals{100, 50, 100, 50};
  const std::vector<std::int64_t> charged(4, 0);
  const auto w = m.cell_weights(owner, neutrals, charged, 1.0, 0.0);
  EXPECT_NEAR(w[0] / w[2], (2.0 / 1.5) / (2.0 / 3.0), 1e-6);
  // Within a rank the static shape survives: cell 0 has 2x cell 1's load.
  EXPECT_NEAR(w[0] / w[1], 2.0, 1e-9);
  EXPECT_NEAR(w[2] / w[3], 2.0, 1e-9);
}

TEST(CostModel, CorrectionClampedToConfiguredBounds) {
  CostModelConfig cfg;
  cfg.kind = CostModelKind::kTimer;
  CostModel m(cfg, 2);
  // Opposing skews give raw corrections of 100x and 0.01x; both must clamp
  // to [0.25, 4].
  const std::vector<double> measured{100.0, 1.0}, predicted{1.0, 100.0};
  for (int i = 0; i < 200; ++i) m.observe_step(measured, predicted);
  EXPECT_NEAR(m.rank_scale(0), 4.0, 1e-9);
  EXPECT_NEAR(m.rank_scale(1), 0.25, 1e-9);
}

TEST(CostModel, DegenerateWindowsAreSkipped) {
  CostModelConfig cfg;
  cfg.kind = CostModelKind::kTimer;
  CostModel m(cfg, 2);
  const std::vector<double> zeros{0.0, 0.0}, ones{1.0, 1.0};
  m.observe_step(zeros, ones);  // no measured signal
  m.observe_step(ones, zeros);  // no predicted signal
  EXPECT_EQ(m.observations(), 0);
  EXPECT_DOUBLE_EQ(m.rank_scale(0), 1.0);
}

TEST(CostModel, SaveLoadRoundtripPreservesScales) {
  CostModelConfig cfg;
  cfg.kind = CostModelKind::kTimer;
  CostModel m(cfg, 3);
  const std::vector<double> measured{3.0, 2.0, 1.0}, predicted{1.0, 1.0, 1.0};
  for (int i = 0; i < 7; ++i) m.observe_step(measured, predicted);

  std::stringstream ss;
  m.save(ss);
  CostModel restored(cfg, 3);
  restored.load(ss);
  EXPECT_EQ(restored.observations(), m.observations());
  for (int r = 0; r < 3; ++r)
    EXPECT_DOUBLE_EQ(restored.rank_scale(r), m.rank_scale(r));

  std::stringstream ss2;
  m.save(ss2);
  CostModel wrong(cfg, 2);  // rank-count mismatch must be rejected
  EXPECT_THROW(wrong.load(ss2), Error);
}

// ---- RebalancePolicy --------------------------------------------------------

TEST(RebalancePolicy, ParseAndNameRoundtrip) {
  EXPECT_EQ(parse_policy("threshold"), PolicyKind::kThreshold);
  EXPECT_EQ(parse_policy("lookahead"), PolicyKind::kLookahead);
  EXPECT_STREQ(policy_name(PolicyKind::kLookahead), "lookahead");
  EXPECT_THROW(parse_policy("oracle"), Error);
}

TEST(RebalancePolicy, ThresholdTriggersExactlyOnLii) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kThreshold;
  RebalancePolicy p(cfg, /*threshold=*/2.0);
  EXPECT_FALSE(p.decide(0, 1.9).rebalance);
  EXPECT_FALSE(p.decide(1, 2.0).rebalance);  // strict inequality
  EXPECT_TRUE(p.decide(2, 2.1).rebalance);
  ASSERT_EQ(p.decisions().size(), 3u);
  EXPECT_EQ(p.decisions()[2].step, 2);
  EXPECT_DOUBLE_EQ(p.decisions()[2].lii, 2.1);
}

TEST(RebalancePolicy, HorizonZeroDegeneratesToThreshold) {
  // With nothing to project over, the look-ahead must make the identical
  // decision sequence as the fixed-threshold baseline.
  PolicyConfig la;
  la.kind = PolicyKind::kLookahead;
  la.horizon = 0;
  PolicyConfig th = la;
  th.kind = PolicyKind::kThreshold;
  RebalancePolicy pa(la, /*threshold=*/1.5), pt(th, /*threshold=*/1.5);

  const std::vector<double> costs{9.0, 1.0};
  const double liis[] = {1.0, 1.4, 1.6, 3.0, 1.5, 1.51};
  for (int i = 0; i < 6; ++i) {
    pa.observe_step(costs);
    pt.observe_step(costs);
    EXPECT_EQ(pa.decide(i, liis[i]).rebalance, pt.decide(i, liis[i]).rebalance)
        << "diverged at step " << i;
  }
}

TEST(RebalancePolicy, LookaheadNeedsAnObservationFirst) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kLookahead;
  cfg.horizon = 10;
  RebalancePolicy p(cfg, /*threshold=*/2.0);
  // No observe_step yet: nothing to project, must not fire even on huge lii.
  EXPECT_FALSE(p.decide(0, 100.0).rebalance);
}

TEST(RebalancePolicy, DominatingMigrationCostMeansNeverRebalance) {
  // Branch B so expensive that no projected imbalance can beat it: the
  // policy must sit still through heavy, growing imbalance. The skew grows
  // because the residual learned after a rebalance absorbs a constant one,
  // which then never fires at any cost; the cheap control shows that this
  // skew does fire, so only the cost holds the expensive policy back.
  auto first_rebalance = [](double rebalance_cost) {
    PolicyConfig cfg;
    cfg.kind = PolicyKind::kLookahead;
    cfg.horizon = 10;
    RebalancePolicy p(cfg, /*threshold=*/2.0);
    p.observe_rebalance(rebalance_cost);
    for (int i = 0; i < 40; ++i) {
      p.observe_step(std::vector<double>{100.0 * (i + 1), 0.0});
      if (p.decide(i, 50.0).rebalance) return i;
    }
    return -1;
  };
  EXPECT_EQ(first_rebalance(1e12), -1);
  EXPECT_EQ(first_rebalance(1e-6), 1);
}

TEST(RebalancePolicy, StepFunctionShiftRebalancesExactlyOnce) {
  // A step-function load shift: balanced, then persistently skewed. The
  // look-ahead must fire once, and — after the feedback that the fresh
  // partition is balanced again — never again.
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kLookahead;
  cfg.horizon = 10;
  RebalancePolicy p(cfg, /*threshold=*/2.0);
  const std::vector<double> balanced{5.0, 5.0};
  const std::vector<double> skewed{9.0, 1.0};

  int fires = 0;
  for (int i = 0; i < 5; ++i) {  // balanced prelude
    p.observe_step(balanced);
    fires += p.decide(i, 1.0).rebalance ? 1 : 0;
  }
  EXPECT_EQ(fires, 0);

  for (int i = 5; i < 30; ++i) {  // the shift
    p.observe_step(skewed);
    if (p.decide(i, 9.0).rebalance) {
      ++fires;
      p.observe_rebalance(2.0);  // cheap rebalance, and it worked:
      // every later step arrives balanced.
      for (int j = i + 1; j < 30; ++j) {
        p.observe_step(balanced);
        fires += p.decide(j, 1.0).rebalance ? 1 : 0;
      }
      break;
    }
  }
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(p.rebalances_observed(), 1);
}

TEST(RebalancePolicy, ResidualImbalanceRaisesTheBar) {
  // If a rebalance is observed to leave the same imbalance it found
  // (residual == level), branch A projects zero recoverable cost and the
  // policy must stop proposing rebalances for that steady state.
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kLookahead;
  cfg.horizon = 10;
  RebalancePolicy p(cfg, /*threshold=*/2.0);
  const std::vector<double> skewed{9.0, 1.0};  // imb = 4 per step

  for (int i = 0; i < 10; ++i) p.observe_step(skewed);
  EXPECT_TRUE(p.decide(10, 9.0).rebalance);  // worth trying once
  p.observe_rebalance(1.0);
  for (int i = 11; i < 40; ++i) {  // ...but the rebalance bought nothing
    p.observe_step(skewed);
    EXPECT_FALSE(p.decide(i, 9.0).rebalance) << "refired at step " << i;
  }
  EXPECT_NEAR(p.residual_imbalance(), 4.0, 1e-9);
}

TEST(RebalancePolicy, GrowingTrendProjectsMoreThanFlat) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kLookahead;
  cfg.horizon = 10;
  RebalancePolicy flat_p(cfg, /*threshold=*/2.0),
      grow_p(cfg, /*threshold=*/2.0);
  for (int i = 0; i < 20; ++i) {
    flat_p.observe_step(std::vector<double>{6.0, 2.0});  // imb = 2, flat
    const double hi = 4.0 + 0.5 * i;                     // imb grows
    grow_p.observe_step(std::vector<double>{hi, 4.0 - 0.5 * i < 0.0
                                                    ? 0.0
                                                    : 4.0 - 0.5 * i});
  }
  const PolicyDecision df = flat_p.decide(20, 3.0);
  const PolicyDecision dg = grow_p.decide(20, 3.0);
  EXPECT_GT(dg.projected_imbalance_cost, df.projected_imbalance_cost);
}

TEST(RebalancePolicy, CostEstimateIsEwmaOfMeasurements) {
  RebalancePolicy p(PolicyConfig{}, /*threshold=*/2.0);
  EXPECT_DOUBLE_EQ(p.rebalance_cost_estimate(), 0.0);  // nothing measured
  p.observe_rebalance(10.0);
  EXPECT_DOUBLE_EQ(p.rebalance_cost_estimate(), 10.0);  // first sample direct
  p.observe_rebalance(20.0);
  EXPECT_DOUBLE_EQ(p.rebalance_cost_estimate(), 13.0);  // 0.7*10 + 0.3*20
  EXPECT_EQ(p.rebalances_observed(), 2);
}

TEST(RebalancePolicy, ObserveRebalanceResetsImbalanceLearning) {
  RebalancePolicy p(PolicyConfig{}, /*threshold=*/2.0);
  const std::vector<double> skewed{9.0, 1.0};
  for (int i = 0; i < 10; ++i) p.observe_step(skewed);
  EXPECT_GT(p.imbalance_per_step(), 0.0);
  p.observe_rebalance(1.0);
  EXPECT_DOUBLE_EQ(p.imbalance_per_step(), 0.0);
}

TEST(RebalancePolicy, SaveLoadRoundtripPreservesDecisions) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kLookahead;
  cfg.horizon = 5;
  RebalancePolicy p(cfg, /*threshold=*/2.0);
  const std::vector<double> costs{4.0, 2.0, 0.0};
  for (int i = 0; i < 8; ++i) {
    p.observe_step(costs);
    p.decide(i, 1.0 + 0.25 * i);
  }
  p.observe_rebalance(3.0);

  std::stringstream ss;
  p.save(ss);
  RebalancePolicy q(cfg, /*threshold=*/2.0);
  q.load(ss);
  EXPECT_DOUBLE_EQ(q.rebalance_cost_estimate(), p.rebalance_cost_estimate());
  EXPECT_DOUBLE_EQ(q.imbalance_per_step(), p.imbalance_per_step());
  EXPECT_DOUBLE_EQ(q.residual_imbalance(), p.residual_imbalance());
  EXPECT_EQ(q.rebalances_observed(), p.rebalances_observed());
  ASSERT_EQ(q.decisions().size(), p.decisions().size());
  for (std::size_t i = 0; i < p.decisions().size(); ++i) {
    EXPECT_EQ(q.decisions()[i].step, p.decisions()[i].step);
    EXPECT_DOUBLE_EQ(q.decisions()[i].lii, p.decisions()[i].lii);
    EXPECT_DOUBLE_EQ(q.decisions()[i].projected_imbalance_cost,
                     p.decisions()[i].projected_imbalance_cost);
    EXPECT_EQ(q.decisions()[i].rebalance, p.decisions()[i].rebalance);
  }
  // Continuing both must stay in lockstep (state is complete).
  p.observe_step(costs);
  q.observe_step(costs);
  EXPECT_EQ(p.decide(9, 2.5).rebalance, q.decide(9, 2.5).rebalance);
}

// The decision log is written field by field: each record is exactly its
// fields' bytes (no struct padding), and every field round-trips.
TEST(RebalancePolicy, DecisionLogIsWrittenFieldByField) {
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kLookahead;
  RebalancePolicy p(cfg, /*threshold=*/2.0);
  std::stringstream empty;
  p.save(empty);
  const std::vector<double> costs{4.0, 2.0, 0.0};
  for (int i = 0; i < 5; ++i) {
    p.observe_step(costs);
    p.decide(i, 1.0 + 0.5 * i);
  }
  p.observe_rebalance(0.5);
  p.observe_step(costs);
  p.decide(5, 3.0);
  ASSERT_EQ(p.decisions().size(), 6u);
  std::stringstream ss;
  p.save(ss);
  constexpr std::size_t kRecord = sizeof(int) + 4 * sizeof(double) + 1;
  EXPECT_EQ(ss.str().size(), empty.str().size() + 6 * kRecord);

  RebalancePolicy q(cfg, /*threshold=*/2.0);
  q.load(ss);
  ASSERT_EQ(q.decisions().size(), p.decisions().size());
  bool any_rebalance = false;
  for (std::size_t i = 0; i < p.decisions().size(); ++i) {
    const PolicyDecision& a = p.decisions()[i];
    const PolicyDecision& b = q.decisions()[i];
    EXPECT_EQ(b.step, a.step);
    EXPECT_EQ(b.lii, a.lii);
    EXPECT_EQ(b.imbalance_per_step, a.imbalance_per_step);
    EXPECT_EQ(b.projected_imbalance_cost, a.projected_imbalance_cost);
    EXPECT_EQ(b.rebalance_cost_estimate, a.rebalance_cost_estimate);
    EXPECT_EQ(b.rebalance, a.rebalance);
    any_rebalance |= a.rebalance;
  }
  EXPECT_TRUE(any_rebalance);
}

// A bool is one byte of 0 or 1 in the file; any other byte is a typed error,
// not a bool with an invalid value.
TEST(RebalancePolicy, RejectsDecisionBoolOtherThanZeroOrOne) {
  RebalancePolicy p(PolicyConfig{}, /*threshold=*/2.0);
  p.observe_step(std::vector<double>{3.0, 1.0});
  p.decide(0, 3.0);
  std::stringstream ss;
  p.save(ss);
  std::string bytes = ss.str();
  ASSERT_EQ(bytes.back(), 1);  // the last decision's `rebalance`
  bytes.back() = 2;
  std::stringstream bad(bytes);
  RebalancePolicy q(PolicyConfig{}, /*threshold=*/2.0);
  EXPECT_THROW(q.load(bad), Error);
}

TEST(RebalancePolicy, ConfigValidationRejectsBadValues) {
  PolicyConfig bad;
  bad.horizon = -1;
  EXPECT_THROW(RebalancePolicy(bad, 2.0), Error);
  EXPECT_THROW(RebalancePolicy(PolicyConfig{}, 2.0, /*nranks=*/-1), Error);
}

}  // namespace
}  // namespace dsmcpic::balance
