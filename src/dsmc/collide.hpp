#pragma once
// Binary collisions with Bird's No-Time-Counter (NTC) pair selection and the
// Variable Hard Sphere (VHS) cross-section model (paper Sec. III-B,
// Colli_React; Bird 1994). Reactions are delegated to the Chemistry hook on
// the accept path.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "dsmc/chemistry.hpp"
#include "dsmc/particles.hpp"
#include "dsmc/species.hpp"
#include "mesh/tetmesh.hpp"
#include "support/kernel_exec.hpp"
#include "support/rng.hpp"

namespace dsmcpic::dsmc {

struct CollisionConfig {
  /// Per-(cell, step) stream seed. CoupledSolver overwrites it with one
  /// derived from SolverConfig::seed; only a kernel built directly reads it.
  std::uint64_t seed = 0xb5297a4dULL;
};

struct CollisionStats {
  std::int64_t candidates = 0;  // NTC candidate pairs examined
  std::int64_t collisions = 0;  // accepted (elastic or reactive)
  std::int64_t ionizations = 0;
  std::int64_t charge_exchanges = 0;  // CEX events (H+/H identity swaps)
  std::int64_t exact_sigmas = 0;  // decisions the sigma bound left to vhs_sigma

  CollisionStats& operator+=(const CollisionStats& o) {
    candidates += o.candidates;
    collisions += o.collisions;
    ionizations += o.ionizations;
    charge_exchanges += o.charge_exchanges;
    exact_sigmas += o.exact_sigmas;
    return *this;
  }
};

/// VHS total cross section for a colliding pair with relative speed c_r.
double vhs_cross_section(const Species& a, const Species& b, double c_r);

/// Reusable per-rank scratch for collide_cells: one spawned-ion buffer per
/// chunk (merged into the store in chunk = cell order after the sweep),
/// plus the per-cell candidate weights and chunk boundaries of the
/// cost-balanced chunk plan. Capacities persist across steps so chunking
/// allocates nothing in steady state.
struct CollideScratch {
  std::vector<std::vector<ParticleRecord>> spawned;
  std::vector<double> weight;        // expected NTC candidates per cell
  std::vector<std::int64_t> bounds;  // chunk boundaries into my_cells
};

class CollisionKernel {
 public:
  CollisionKernel(const mesh::TetMesh& grid, const SpeciesTable& table,
                  CollisionConfig cfg, Chemistry* chemistry = nullptr);

  /// Performs NTC collisions (and reactions) in each cell of `my_cells`.
  /// `index` must be freshly built for `store`. New particles appended by
  /// chemistry are NOT collision partners this step (standard practice).
  /// With `exec`, the cell list is split into contiguous chunks sized by
  /// the measured per-cell expected candidate counts (so one dense cell
  /// block cannot serialize the sweep), and dispatch falls back to a
  /// single inline chunk when the balanced plan cannot cover the thread
  /// pool — small chunk counts lose to pool dispatch overhead outright.
  /// Every per-cell quantity (majorant, carry, RNG stream) is keyed by
  /// cell, so the result is bit-identical to serial for ANY chunk plan.
  /// `scratch` (optional) carries the spawn/plan buffers across steps.
  CollisionStats collide_cells(ParticleStore& store, const CellIndex& index,
                               std::span<const std::int32_t> my_cells,
                               double dt, int step,
                               const support::KernelExec* exec = nullptr,
                               CollideScratch* scratch = nullptr);

  /// Cached-constant VHS sigma for species pair (si, sj): bit-identical to
  /// vhs_cross_section but with the pair-averaged reference values, reduced
  /// mass and Gamma(5/2 - omega) precomputed per pair at construction.
  double vhs_sigma(std::int32_t si, std::int32_t sj, double c_r) const {
    const VhsPair& p = pair(si, sj);
    const double c2 = std::max(c_r * c_r, 1e-30);
    const double ratio = p.two_kb_tref / (p.m_r * c2);
    return p.pi_d2 * std::pow(ratio, p.omega_mhalf) / p.gamma;
  }

  /// One NTC candidate's test for species pair (si, sj) with squared
  /// relative speed g2 = |v_i - v_j|^2 and uniform draw u: raises
  /// `majorant` to sigma * c_r if that exceeds it, then accepts unless
  /// u * majorant > sigma * c_r, with c_r = sqrt(g2) and sigma = vhs_sigma.
  /// For a pair with omega = 3/4, (sigma c_r)^4 = k4 g2 in real arithmetic,
  /// and the fourth powers decide both comparisons whenever they differ by
  /// more than the relative margin kSigmaBoundTol, which exceeds the
  /// rounding of either side (DESIGN.md §2d). Only the rest evaluate
  /// vhs_sigma (counted in stats.exact_sigmas), so the decision and every
  /// majorant bit equal the exact test's for any g2, u and majorant.
  bool ntc_accepts(std::int32_t si, std::int32_t sj, double g2, double u,
                   double& majorant, CollisionStats& stats) const {
    const VhsPair& p = pair(si, sj);
    // In range, t and its margins are normal doubles and c_r^2 clears
    // vhs_sigma's 1e-30 clamp; a NaN is out of range.
    if (p.k4 > 0.0 && g2 >= kBoundMinG2 && g2 <= kBoundMaxG2) {
      const double t = p.k4 * g2;
      const double t_hi = t * (1.0 + kSigmaBoundTol);
      const double mm = majorant * majorant;
      if (t_hi < mm * mm) {  // sigma * c_r < majorant: no update
        const double m = u * majorant;
        const double m4 = (m * m) * (m * m);
        if (m4 > t_hi) return false;
        if (m4 < t * (1.0 - kSigmaBoundTol)) return true;
      }
    }
    ++stats.exact_sigmas;
    const double c_r = std::sqrt(g2);
    const double sigma_cr = vhs_sigma(si, sj, c_r) * c_r;
    if (sigma_cr > majorant) majorant = sigma_cr;  // adapt the majorant
    return !(u * majorant > sigma_cr);
  }

  /// Binary checkpoint of the adaptive per-cell state. load refuses, with
  /// dsmcpic::Error, a majorant a run cannot reach (not finite, or below
  /// its initial value) and a carry outside [0, 1).
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  /// Cost-balanced chunk plan: fills scr.bounds with a contiguous partition
  /// of my_cells whose chunks carry roughly equal expected NTC candidate
  /// counts (0.5 n(n-1) fnum_mean majorant dt / V + carry per cell — the
  /// same expression the sweep evaluates, read-only). Returns the chunk
  /// count; 1 means "run serial" (bounds {0, ncells}: the balanced plan
  /// could not produce at least one chunk per thread, so pool dispatch
  /// would only add overhead). Chunk boundaries never affect results —
  /// cells are independent — so the plan may depend on the thread count
  /// freely.
  int plan_chunks(const ParticleStore& store, const CellIndex& index,
                  std::span<const std::int32_t> my_cells, double dt,
                  int threads, CollideScratch& scr) const;

  /// Per-species-pair VHS constants, precomputed so the hot loop avoids
  /// std::tgamma and the pair-parameter averaging per candidate.
  struct VhsPair {
    double pi_d2;        // M_PI * d * d (pair-averaged d)
    double omega_mhalf;  // omega - 0.5
    double two_kb_tref;  // 2 kB * t_ref
    double m_r;          // reduced mass
    double gamma;        // tgamma(2.5 - omega)
    double k4;  // (sigma c_r)^4 / c_r^2 when omega = 3/4, else 0 (no bound)
  };

  // ntc_accepts' bound: a power of two, so 1 +- kSigmaBoundTol is exact,
  // and the |g|^2 range it applies in.
  static constexpr double kSigmaBoundTol = 0x1p-40;
  static constexpr double kBoundMinG2 = 1e-20;
  static constexpr double kBoundMaxG2 = 1e20;

  const VhsPair& pair(std::int32_t si, std::int32_t sj) const {
    return vhs_pairs_[static_cast<std::size_t>(si) * num_species_ +
                      static_cast<std::size_t>(sj)];
  }

  const mesh::TetMesh* grid_;
  const SpeciesTable* table_;
  CollisionConfig cfg_;
  Chemistry* chemistry_;
  std::size_t num_species_ = 0;
  std::vector<VhsPair> vhs_pairs_;  // num_species^2, row-major
  std::vector<double> sigma_cr_max_;  // per cell, persists across steps
  std::vector<double> candidate_carry_;  // fractional NTC candidates per cell
};

}  // namespace dsmcpic::dsmc
