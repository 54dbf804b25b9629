#pragma once
// Chemical reactions for the hydrogen plume (the paper's Colli_React
// component, Sec. III-B / VI-C: "the dissociation of H and the
// recombination of H+").
//
// Super-particle weight handling: H and H+ have very different scaling
// factors (paper Table I: e.g. 1e12 vs 6000 real particles per simulation
// particle). A whole H super-particle can therefore not convert into H+
// super-particles one-for-one. Reactions are instead *statistically
// weight-conserving*:
//   * ionization   — a qualifying H–H collision spawns ONE new H+ simulation
//     particle (fnum_H+ real ions); the H super-particle survives, its
//     fractional mass loss (fnum_H+/fnum_H) being negligible.
//   * recombination — an H+ simulation particle is removed; with probability
//     fnum_H+/fnum_H it is resurrected as an H simulation particle, so the
//     expected real-atom creation matches the real-ion destruction.

#include <cstdint>
#include <span>
#include <vector>

#include "dsmc/particles.hpp"
#include "dsmc/species.hpp"
#include "mesh/tetmesh.hpp"
#include "support/kernel_exec.hpp"
#include "support/rng.hpp"

namespace dsmcpic::dsmc {

struct ChemistryConfig {
  /// Relative collision energy above which an H–H collision can ionize [J].
  /// Physically 13.6 eV; experiments use a reduced effective threshold to
  /// exercise the channel at plume speeds (documented in DESIGN.md).
  double ionization_threshold = constants::kIonizationEnergyH;
  /// Ionization probability for qualifying collisions.
  double ionization_probability = 0.5;
  /// Recombination rate coefficient k [m^3/s] for H+ + e- -> H, with the
  /// electron density taken as the local ion density (quasi-neutrality).
  double recombination_rate = 2.6e-19;
  /// Charge-exchange probability for an accepted H+/H collision:
  /// H+ + H -> H + H+ (the CEX channel of ion-thruster plume modelling the
  /// paper cites via SUGAR). The identities swap; for equal masses this is
  /// equivalent to swapping the velocities.
  double cex_probability = 0.5;
};

/// recombine's result. The collide counts ionizations and charge exchanges
/// itself (CollisionStats), from the hooks' return values.
struct ChemistryStats {
  std::int64_t recombinations = 0;

  ChemistryStats& operator+=(const ChemistryStats& o) {
    recombinations += o.recombinations;
    return *this;
  }
};

class Chemistry {
 public:
  Chemistry(const SpeciesTable& table, ChemistryConfig cfg)
      : table_(&table), cfg_(cfg) {}

  const ChemistryConfig& config() const { return cfg_; }

  /// Called from the NTC accept path for an H–H pair with relative collision
  /// energy `e_rel`. May record a new H+ particle in `spawned` (same cell,
  /// velocity of collider i); the caller appends the buffer to the store
  /// after the cell sweep, so concurrent cell chunks never mutate the store
  /// layout. Returns true when an ionization occurred (the elastic scatter
  /// still proceeds for the pair).
  bool try_ionization(Rng& rng, const ParticleStore& store, std::size_t i,
                      std::size_t j, double e_rel,
                      std::vector<ParticleRecord>& spawned);

  /// Called from the NTC accept path for an H+/H pair: with probability
  /// cex_probability the electron hops, swapping the particles' species
  /// (momentum-preserving; replaces the elastic scatter when it fires).
  /// Returns true when the exchange occurred.
  bool try_charge_exchange(Rng& rng, ParticleStore& store, std::size_t i,
                           std::size_t j);

  /// Cell-based recombination sweep over the caller's cells: every H+ in a
  /// cell recombines with probability 1 - exp(-k * n_e * dt). Flags removed
  /// ions in `removed` (one flag per particle); converts survivors-of-the-weight-lottery to H in
  /// place. Returns stats. With `exec`, the cell list is chunked (cells are
  /// disjoint, RNG keyed (cell, step), int stats summed in chunk
  /// order), so any chunk count gives the serial result.
  ChemistryStats recombine(ParticleStore& store, const CellIndex& index,
                           std::span<const std::int32_t> my_cells,
                           const mesh::TetMesh& grid, double dt, int step,
                           std::span<std::uint8_t> removed,
                           const support::KernelExec* exec = nullptr);

 private:
  const SpeciesTable* table_;
  ChemistryConfig cfg_;
};

}  // namespace dsmcpic::dsmc
