#pragma once
// Test-only reference NTC sweep, kept as the straightforward candidate loop
// CollisionKernel::collide_cells must match: every candidate takes the root
// of |g|^2, evaluates vhs_sigma, adapts the majorant and compares the draw
// with sigma * c_r, with no bound in between. Serial, in cell order, ions
// appended after the sweep. The same draws, decisions, majorants, carries,
// velocities, species and spawned ions, bit for bit: any divergence is a
// bug in the kernel's sigma bound.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "dsmc/chemistry.hpp"
#include "dsmc/collide.hpp"
#include "dsmc/particles.hpp"
#include "dsmc/species.hpp"
#include "mesh/tetmesh.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace dsmcpic::dsmc::reference {

/// The per-cell state CollisionKernel::save writes, in the same order.
struct CollideState {
  std::vector<double> majorant;  // (sigma c_r)_max per cell
  std::vector<double> carry;     // fractional NTC candidates per cell
};

/// One collide_cells step for the kernel's species pairs (`kernel` lends
/// only vhs_sigma), reading and updating `state` in place of the kernel's.
inline CollisionStats collide_cells(const CollisionKernel& kernel,
                                    const mesh::TetMesh& grid,
                                    const SpeciesTable& table,
                                    std::uint64_t seed, Chemistry* chemistry,
                                    CollideState& state, ParticleStore& store,
                                    const CellIndex& index,
                                    std::span<const std::int32_t> my_cells,
                                    double dt, int step) {
  CollisionStats stats;
  std::vector<ParticleRecord> spawned;
  const auto species = store.species();
  auto vx = store.vx(), vy = store.vy(), vz = store.vz();
  for (const std::int32_t cell : my_cells) {
    const auto parts = index.particles_in(cell);
    const auto np = static_cast<std::int64_t>(parts.size());
    if (np < 2) continue;

    double fnum_sum = 0.0;
    for (std::int32_t p : parts) fnum_sum += table[species[p]].fnum;
    const double fnum_mean = fnum_sum / static_cast<double>(np);

    const double volume = grid.volume(cell);
    double& majorant = state.majorant[cell];

    const double expected =
        0.5 * static_cast<double>(np) * static_cast<double>(np - 1) *
            fnum_mean * majorant * dt / volume +
        state.carry[cell];
    DSMCPIC_CHECK(expected >= 0.0 && expected < 0x1p63);
    const auto n_cand = static_cast<std::int64_t>(expected);
    state.carry[cell] = expected - static_cast<double>(n_cand);
    if (n_cand <= 0) continue;

    Rng rng(derive_stream_seed(seed, static_cast<std::uint64_t>(cell)),
            static_cast<std::uint64_t>(step));

    for (std::int64_t k = 0; k < n_cand; ++k) {
      ++stats.candidates;
      const auto pi = parts[rng.uniform_index(static_cast<std::uint64_t>(np))];
      auto pj = parts[rng.uniform_index(static_cast<std::uint64_t>(np))];
      if (pi == pj) continue;

      const auto si = species[pi];
      const auto sj = species[pj];
      const Vec3 vi{vx[pi], vy[pi], vz[pi]};
      const Vec3 vj{vx[pj], vy[pj], vz[pj]};
      const Vec3 rel = vi - vj;
      const double c_r = rel.norm();
      if (c_r <= 0.0) continue;

      ++stats.exact_sigmas;
      const double sigma_cr = kernel.vhs_sigma(si, sj, c_r) * c_r;
      if (sigma_cr > majorant) majorant = sigma_cr;  // adapt the majorant
      if (rng.uniform() * majorant > sigma_cr) continue;  // rejected

      ++stats.collisions;
      const double ma = table[si].mass;
      const double mb = table[sj].mass;
      const double m_r = ma * mb / (ma + mb);
      const double e_rel = 0.5 * m_r * c_r * c_r;

      if (chemistry &&
          chemistry->try_ionization(rng, store, pi, pj, e_rel, spawned)) {
        ++stats.ionizations;
      }
      if (chemistry && si != sj &&
          chemistry->try_charge_exchange(rng, store, pi, pj)) {
        ++stats.charge_exchanges;
        continue;
      }

      const Vec3 v_cm = (vi * ma + vj * mb) / (ma + mb);
      const double cos_t = 2.0 * rng.uniform() - 1.0;
      const double sin_t = std::sqrt(std::max(0.0, 1.0 - cos_t * cos_t));
      const double phi = 2.0 * M_PI * rng.uniform();
      const Vec3 dir{sin_t * std::cos(phi), sin_t * std::sin(phi), cos_t};
      const Vec3 vpi = v_cm + dir * (c_r * mb / (ma + mb));
      const Vec3 vpj = v_cm - dir * (c_r * ma / (ma + mb));
      vx[pi] = vpi.x;
      vy[pi] = vpi.y;
      vz[pi] = vpi.z;
      vx[pj] = vpj.x;
      vy[pj] = vpj.y;
      vz[pj] = vpj.z;
    }
  }
  for (const ParticleRecord& ion : spawned) store.add(ion);
  return stats;
}

/// The exact test for one candidate, as the loop above runs it: adapts
/// `majorant` and returns true when the candidate is accepted.
inline bool exact_accepts(const CollisionKernel& kernel, std::int32_t si,
                          std::int32_t sj, double g2, double u,
                          double& majorant) {
  const double c_r = std::sqrt(g2);
  const double sigma_cr = kernel.vhs_sigma(si, sj, c_r) * c_r;
  if (sigma_cr > majorant) majorant = sigma_cr;
  return !(u * majorant > sigma_cr);
}

}  // namespace dsmcpic::dsmc::reference
