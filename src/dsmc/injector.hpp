#pragma once
// Inlet injection (the paper's Inject component): particles enter through
// the inlet faces with a drifting-Maxwellian flux, velocity perpendicular
// to the inlet (Sec. III-B).

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "dsmc/particles.hpp"
#include "dsmc/species.hpp"
#include "mesh/tetmesh.hpp"
#include "support/rng.hpp"

namespace dsmcpic::dsmc {

struct InjectionSpec {
  std::int32_t species = kSpeciesH;
  double number_density = 1e18;  // real particles per m^3 at the inlet
  double temperature = 300.0;    // K
  double drift_speed = 1e4;      // m/s along the inward inlet normal

  /// Time-varying inflow: the injected flux is scaled per DSMC step by
  /// 1 + pulse_amplitude * sin(2*pi*step / pulse_period), clamped at >= 0.
  /// Amplitude 0 or period 0 disables the pulse, and the disabled path
  /// skips the scaling multiply entirely so constant-inflow runs stay
  /// bit-identical to builds that predate the knob.
  double pulse_amplitude = 0.0;
  int pulse_period = 0;

  /// The per-step flux scale described above (1.0 when disabled).
  double inflow_modulation(int step) const;
};

/// Stateful per-face injector: carries fractional injection remainders and
/// per-face id counters across steps, so the injected stream is
/// deterministic and independent of the grid decomposition. One injector
/// serves one InjectionSpec (the solver owns one per injected species).
class MaxwellianInjector {
 public:
  /// Injects through all boundary faces of `kind` on `grid`.
  MaxwellianInjector(const mesh::TetMesh& grid, mesh::BoundaryKind kind,
                     InjectionSpec spec, std::uint64_t seed);

  /// Injects this step's particles whose face-owning cells belong to
  /// `my_rank`, appending to `store`. Returns the number injected.
  /// `step` must advance by 1 per DSMC step (it seeds the per-face streams).
  std::int64_t inject(ParticleStore& store, const SpeciesTable& table,
                      double dt, int step,
                      std::span<const std::int32_t> cell_owner, int my_rank);

  /// Sharded injection: the step's particle stream is split evenly across
  /// ranks at *particle* granularity — rank r generates shard r of every
  /// face's count, regardless of who owns the face's cell; the particles
  /// reach their owners through the next exchange. This is what makes the
  /// paper's Inject phase scale almost perfectly (Table IV: 1622s at 24
  /// ranks -> 31s at 1536) even though the inlet cells sit on few ranks.
  /// Each particle draws from its own (face, step, k) substream, so the
  /// generated set is identical for every rank count (used by validation).
  ///
  /// Call begin_step exactly once per step (it advances the fractional
  /// remainders and id sequence bases), then inject_shard per rank. Do not
  /// mix with the owner-based inject() on the same instance.
  void begin_step(const SpeciesTable& table, double dt, int step);
  std::int64_t inject_shard(ParticleStore& store, const SpeciesTable& table,
                            int shard, int nshards);

  /// Expected number of simulation particles per step over the whole inlet
  /// (for sizing and tests).
  double expected_per_step(const SpeciesTable& table, double dt) const;

  const InjectionSpec& spec() const { return spec_; }

  /// Binary checkpoint of the stream state (remainders, id sequences).
  /// load refuses, with dsmcpic::Error, a remainder outside [0, 1) and a
  /// negative sequence.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  template <typename FaceFilter>
  std::int64_t inject_filtered(ParticleStore& store, const SpeciesTable& table,
                               double dt, int step, const FaceFilter& mine);

  const mesh::TetMesh* grid_;
  InjectionSpec spec_;
  std::uint64_t seed_;
  std::vector<mesh::BoundaryFace> faces_;
  std::vector<double> area_;       // per face
  std::vector<Vec3> inward_;       // inward unit normal per face
  std::vector<double> remainder_;  // fractional carry per face
  std::vector<std::int64_t> seq_;  // per-face id sequence counter

  // Sharded-mode state prepared by begin_step.
  int prepared_step_ = -1;
  std::vector<std::int64_t> step_count_;     // per face
  std::vector<std::int64_t> step_seq_base_;  // per face
};

}  // namespace dsmcpic::dsmc
