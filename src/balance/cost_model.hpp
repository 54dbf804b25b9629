#pragma once
// Timer-augmented cost model for the rebalancer (DESIGN.md §2h).
//
// The paper's weighted load model (Eq. 7) predicts per-cell cost purely
// from particle counts: wlm_i = N_i + R*C_i + W_cell. That is a *static*
// model — it assumes every particle costs the same everywhere. In reality
// (and in our virtual-time cost model) particles in different regions do
// different amounts of work: inlet-side particles cross more faces per
// move, dense cells run more NTC candidates per particle, and so on.
// Following McDoniel & Bientinesi's timer-augmented cost function, the
// CostModel closes the loop from observability into the balancer: it
// watches the measured per-rank, per-phase *virtual-time* cost of each
// DSMC step, regresses it down to a per-rank correction factor against
// the static model's prediction (EWMA-smoothed over recent supersteps),
// and scales each cell's static weight by its owner's correction when the
// rebalancer asks for fresh partition weights.
//
// Determinism contract: every input is a deterministic function of the
// simulation (virtual-time busy counters and particle counts — never wall
// clock), so the produced weights, and therefore the rebalancer's
// decisions and the golden digests, are bit-identical run-to-run and
// across --exec-mode / --kernel-threads / --sort-every.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace dsmcpic::balance {

/// The paper's weighted load model, Eq. (7), over `cells` coarse cells:
/// N + R*C + W_cell * cells, with R = `weight_ratio`, W_cell = `cell_weight`.
inline double wlm(std::int64_t neutrals, std::int64_t charged,
                  std::int64_t cells, double weight_ratio, double cell_weight) {
  return static_cast<double>(neutrals) +
         weight_ratio * static_cast<double>(charged) +
         cell_weight * static_cast<double>(cells);
}

/// Eq. (7) for one coarse cell (W_cell * 1 == W_cell exactly).
inline double wlm_per_cell(std::int64_t neutrals, std::int64_t charged,
                           double weight_ratio, double cell_weight) {
  return wlm(neutrals, charged, 1, weight_ratio, cell_weight);
}

/// Which weight model feeds the repartitioner.
///  * kStatic — the paper's Eq. 7, untouched (default-compatible path).
///  * kTimer  — Eq. 7 scaled by the measured per-rank correction.
enum class CostModelKind { kStatic, kTimer };

const char* cost_model_name(CostModelKind k);
/// Parses "static" / "timer" (throws on anything else).
CostModelKind parse_cost_model(const std::string& name);

struct CostModelConfig {
  CostModelKind kind = CostModelKind::kStatic;
};

/// Per-rank correction factors learned from measured phase timings.
class CostModel {
 public:
  CostModel() = default;
  CostModel(CostModelConfig cfg, int nranks);

  const CostModelConfig& config() const { return cfg_; }
  int nranks() const { return static_cast<int>(scale_.size()); }
  int observations() const { return observations_; }

  /// One step's signals: `measured[r]` is rank r's virtual-time cost over
  /// the particle phases this step, `predicted[r]` the static model's
  /// per-rank load (the sum of Eq.-7 weights over r's cells). Both are
  /// normalized internally, so units cancel; the correction is
  ///   scale_r <- EWMA( (measured_r / mean measured) / (predicted_r / mean
  ///   predicted) ).
  /// A no-op for kStatic and for degenerate windows (zero totals).
  void observe_step(std::span<const double> measured,
                    std::span<const double> predicted);

  /// Measured/static correction for one rank (1.0 until observed).
  double rank_scale(int r) const { return scale_.at(static_cast<std::size_t>(r)); }

  /// Per-cell partition weights: the static Eq.-7 weight per cell, scaled
  /// under kTimer by the owner rank's correction. The kStatic path returns
  /// exactly the Eq.-7 values.
  std::vector<double> cell_weights(std::span<const std::int32_t> owner,
                                   std::span<const std::int64_t> neutral_counts,
                                   std::span<const std::int64_t> charged_counts,
                                   double weight_ratio,
                                   double cell_weight) const;

  // Checkpoint support (state must survive restart bit-for-bit).
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  CostModelConfig cfg_;
  std::vector<double> scale_;  // per-rank EWMA correction, starts at 1
  int observations_ = 0;
};

}  // namespace dsmcpic::balance
