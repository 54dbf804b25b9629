#include "balance/cost_model.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/serialize.hpp"

namespace dsmcpic::balance {

namespace {

/// EWMA weight of the newest per-rank correction sample. Tuned on the
/// fig05/fig13 lanes: smaller values lag the (fast-moving) population,
/// larger ones chase one-window noise.
constexpr double kEwmaAlpha = 0.4;
/// Correction factors are clamped to [kMinScale, kMaxScale] before
/// smoothing, so one noisy window cannot blow up the partition weights.
constexpr double kMinScale = 0.25;
constexpr double kMaxScale = 4.0;

}  // namespace

const char* cost_model_name(CostModelKind k) {
  switch (k) {
    case CostModelKind::kStatic: return "static";
    case CostModelKind::kTimer: return "timer";
  }
  return "?";
}

CostModelKind parse_cost_model(const std::string& name) {
  if (name == "static") return CostModelKind::kStatic;
  if (name == "timer") return CostModelKind::kTimer;
  throw UsageError("unknown cost model '" + name + "' (expected static|timer)");
}

CostModel::CostModel(CostModelConfig cfg, int nranks) : cfg_(cfg) {
  DSMCPIC_CHECK_MSG(nranks >= 1, "cost model needs at least one rank");
  scale_.assign(static_cast<std::size_t>(nranks), 1.0);
}

void CostModel::observe_step(std::span<const double> measured,
                             std::span<const double> predicted) {
  if (cfg_.kind == CostModelKind::kStatic) return;
  DSMCPIC_CHECK(measured.size() == scale_.size());
  DSMCPIC_CHECK(predicted.size() == scale_.size());
  double sum_m = 0.0, sum_p = 0.0;
  for (const double m : measured) sum_m += m;
  for (const double p : predicted) sum_p += p;
  // Degenerate window (nothing ran or the static model predicts zero
  // everywhere): keep the previous corrections.
  if (!(sum_m > 0.0) || !(sum_p > 0.0)) return;
  const double n = static_cast<double>(scale_.size());
  for (std::size_t r = 0; r < scale_.size(); ++r) {
    if (!(predicted[r] > 0.0) || !(measured[r] >= 0.0)) continue;
    // Relative speed of rank r vs the static model's expectation. Both
    // shares are dimensionless, so virtual seconds regress cleanly onto
    // particle-count weights.
    const double measured_share = measured[r] / (sum_m / n);
    const double predicted_share = predicted[r] / (sum_p / n);
    const double ratio =
        std::clamp(measured_share / predicted_share, kMinScale, kMaxScale);
    scale_[r] = (1.0 - kEwmaAlpha) * scale_[r] + kEwmaAlpha * ratio;
  }
  ++observations_;
}

std::vector<double> CostModel::cell_weights(
    std::span<const std::int32_t> owner,
    std::span<const std::int64_t> neutral_counts,
    std::span<const std::int64_t> charged_counts, double weight_ratio,
    double cell_weight) const {
  DSMCPIC_CHECK(owner.size() == neutral_counts.size());
  DSMCPIC_CHECK(owner.size() == charged_counts.size());
  std::vector<double> w(owner.size());
  for (std::size_t c = 0; c < owner.size(); ++c) {
    w[c] = wlm_per_cell(neutral_counts[c], charged_counts[c], weight_ratio,
                        cell_weight);
    if (cfg_.kind == CostModelKind::kTimer) w[c] *= rank_scale(owner[c]);
  }
  return w;
}

void CostModel::save(std::ostream& os) const {
  io::write_vec(os, scale_);
  io::write_pod(os, observations_);
}

void CostModel::load(std::istream& is) {
  std::vector<double> scale = io::read_vec<double>(is);
  DSMCPIC_CHECK_MSG(scale.size() == scale_.size(),
                    "cost-model checkpoint rank-count mismatch");
  scale_ = std::move(scale);
  observations_ = io::read_pod<int>(is);
}

}  // namespace dsmcpic::balance
