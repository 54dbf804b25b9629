#include "dsmc/chemistry.hpp"

#include <cmath>

namespace dsmcpic::dsmc {

bool Chemistry::try_ionization(Rng& rng, const ParticleStore& store,
                               std::size_t i, std::size_t j, double e_rel,
                               std::vector<ParticleRecord>& spawned) {
  const auto species = store.species();
  if (species[i] != kSpeciesH || species[j] != kSpeciesH) return false;
  if (e_rel <= cfg_.ionization_threshold) return false;
  if (rng.uniform() >= cfg_.ionization_probability) return false;

  // Spawn one H+ super-particle at collider i's location. Its velocity is
  // collider i's velocity with an isotropic thermal-scale perturbation (the
  // freed electron carries away the threshold energy; we do not track it).
  // The record is buffered rather than appended, so cell chunks running
  // concurrently never grow the store mid-sweep.
  ParticleRecord ion;
  ion.position = store.position(i);
  ion.velocity = store.velocity(i);
  ion.species = kSpeciesHPlus;
  ion.cell = store.cells()[i];
  // Random id: ids only need uniqueness until the next Reindex renumbering.
  ion.id = static_cast<std::int64_t>(rng.next_u64() >> 1);
  spawned.push_back(ion);
  return true;
}

bool Chemistry::try_charge_exchange(Rng& rng, ParticleStore& store,
                                    std::size_t i, std::size_t j) {
  auto species = store.species();
  // Order the pair as (ion, neutral).
  std::size_t ion = i, neutral = j;
  if (species[ion] != kSpeciesHPlus) std::swap(ion, neutral);
  if (species[ion] != kSpeciesHPlus || species[neutral] != kSpeciesH)
    return false;
  if (rng.uniform() >= cfg_.cex_probability) return false;

  // Electron hop: the ion super-particle now represents the (slow) ions
  // created from the neutral population, so it adopts the neutral's
  // velocity. The neutral super-particle is left unchanged — the fast
  // neutrals created are a negligible fraction of its (much larger) weight.
  store.set_velocity(ion, store.velocity(neutral));
  return true;
}

namespace {
// Seed of recombine's (cell, step) streams. It ignores SolverConfig::seed,
// so runs differing only in that seed draw the same recombination uniforms;
// deriving it re-pins every digest (ROADMAP item 5's RNG keys).
constexpr std::uint64_t kRecombinationSeed = 0xc43cULL;
}  // namespace

ChemistryStats Chemistry::recombine(ParticleStore& store, const CellIndex& index,
                                    std::span<const std::int32_t> my_cells,
                                    const mesh::TetMesh& grid, double dt,
                                    int step, std::span<std::uint8_t> removed,
                                    const support::KernelExec* exec) {
  DSMCPIC_CHECK(removed.size() == store.size());
  const Species& ion = (*table_)[kSpeciesHPlus];
  const Species& neutral = (*table_)[kSpeciesH];
  const double weight_ratio = ion.fnum / neutral.fnum;  // << 1 typically

  auto species = store.species();
  const auto recombine_range = [&](std::int64_t begin, std::int64_t end,
                                   ChemistryStats& out) {
    for (std::int64_t ci = begin; ci < end; ++ci) {
      const std::int32_t cell = my_cells[ci];
      const auto parts = index.particles_in(cell);
      // Electron density from quasi-neutrality: n_e = n_ion.
      std::int64_t n_ion_sim = 0;
      for (std::int32_t p : parts)
        if (species[p] == kSpeciesHPlus && !removed[p]) ++n_ion_sim;
      if (n_ion_sim == 0) continue;
      const double n_e =
          static_cast<double>(n_ion_sim) * ion.fnum / grid.volume(cell);
      const double p_rec = 1.0 - std::exp(-cfg_.recombination_rate * n_e * dt);
      if (p_rec <= 0.0) continue;

      Rng rng(derive_stream_seed(kRecombinationSeed,
                                 static_cast<std::uint64_t>(cell)),
              static_cast<std::uint64_t>(step));
      for (std::int32_t p : parts) {
        if (species[p] != kSpeciesHPlus || removed[p]) continue;
        if (rng.uniform() >= p_rec) continue;
        ++out.recombinations;
        if (rng.uniform() < weight_ratio) {
          species[p] = kSpeciesH;  // weight lottery won: becomes a neutral
        } else {
          removed[p] = 1;  // absorbed into the (much heavier) H population
        }
      }
    }
  };
  return support::sum_chunks<ChemistryStats>(
      exec, static_cast<std::int64_t>(my_cells.size()), recombine_range);
}

}  // namespace dsmcpic::dsmc
