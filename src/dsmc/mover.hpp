#pragma once
// Free-flight particle movement with tetrahedron traversal (DSMC_Move /
// PIC_Move). Particles fly straight through the unstructured grid, crossing
// cells by ray-face intersection; boundary faces either reflect them (wall)
// or remove them from the domain (inlet backflow / outlet, handled later by
// Reindex). Migration distances can span many cells — the final cell may be
// owned by a *different rank*, which is what DSMC_Exchange/PIC_Exchange then
// resolve (paper Sec. IV-B).

#include <cstdint>
#include <span>

#include "dsmc/particles.hpp"
#include "dsmc/species.hpp"
#include "mesh/tetmesh.hpp"
#include "support/kernel_exec.hpp"

namespace dsmcpic::dsmc {

enum class WallModel { kDiffuse, kSpecular };

enum class MoveFilter { kAll, kNeutralOnly, kChargedOnly };

struct MoverConfig {
  double wall_temperature = 300.0;  // K (paper: 300 K walls)
  WallModel wall_model = WallModel::kDiffuse;
  /// Diffuse-reflection stream seed. CoupledSolver overwrites it with one
  /// derived from SolverConfig::seed; only a Mover built directly reads it.
  std::uint64_t seed = 0x9d2c5680ULL;
};

struct MoveStats {
  std::int64_t moved = 0;       // particles advanced
  std::int64_t walk_steps = 0;  // cell faces crossed (work metric)
  std::int64_t wall_hits = 0;
  std::int64_t exited = 0;      // removed through inlet/outlet
  std::int64_t lost = 0;        // dropped by the push before moving

  MoveStats& operator+=(const MoveStats& o) {
    moved += o.moved;
    walk_steps += o.walk_steps;
    wall_hits += o.wall_hits;
    exited += o.exited;
    lost += o.lost;
    return *this;
  }
};

/// The push of a move_all without one: the velocity stays as it is.
struct NoPush {
  bool operator()(const Vec3&, Vec3&, std::int32_t, std::int32_t) const {
    return true;
  }
};

class Mover {
 public:
  Mover(const mesh::TetMesh& grid, const SpeciesTable& table, MoverConfig cfg);

  /// Advances every particle passing `filter` by dt. Sets removed[i] = 1 for
  /// particles that left the domain. `removed` must be store.size() long.
  /// Each particle first goes through push(pos, vel, cell, species), which
  /// may update vel (PIC_Move's gather and Boris push) or return false to
  /// drop it: flagged removed, counted in MoveStats::lost, position and
  /// velocity kept. With a non-null `exec`, the particle range is chunked
  /// across its kernel pool; particles are independent (RNG streams keyed
  /// (seed, id, step); the push touches only its own particle), so the
  /// result is identical for any chunk count.
  template <class Push = NoPush>
  MoveStats move_all(ParticleStore& store, double dt, int step,
                     std::span<std::uint8_t> removed,
                     MoveFilter filter = MoveFilter::kAll,
                     const support::KernelExec* exec = nullptr,
                     Push push = {}) const;

  /// Advances a single particle; returns false if it left the domain.
  bool move_one(Vec3& pos, Vec3& vel, std::int32_t& cell, std::int32_t species,
                std::int64_t id, double dt, int step, MoveStats& stats) const;

 private:
  const mesh::TetMesh* grid_;
  const SpeciesTable* table_;
  MoverConfig cfg_;
};

template <class Push>
MoveStats Mover::move_all(ParticleStore& store, double dt, int step,
                          std::span<std::uint8_t> removed, MoveFilter filter,
                          const support::KernelExec* exec, Push push) const {
  DSMCPIC_CHECK(removed.size() == store.size());
  auto px = store.px(), py = store.py(), pz = store.pz();
  auto vx = store.vx(), vy = store.vy(), vz = store.vz();
  auto cells = store.cells();
  auto species = store.species();
  auto ids = store.ids();
  return support::sum_chunks<MoveStats>(
      exec, static_cast<std::int64_t>(store.size()),
      [&](std::int64_t begin, std::int64_t end, MoveStats& stats) {
        for (std::int64_t i = begin; i < end; ++i) {
          if (removed[i]) continue;
          const bool charged = (*table_)[species[i]].charged();
          if (filter == MoveFilter::kNeutralOnly && charged) continue;
          if (filter == MoveFilter::kChargedOnly && !charged) continue;
          Vec3 pos{px[i], py[i], pz[i]};
          Vec3 vel{vx[i], vy[i], vz[i]};
          if (!push(pos, vel, cells[i], species[i])) {
            removed[i] = 1;
            ++stats.lost;
            continue;
          }
          if (!move_one(pos, vel, cells[i], species[i], ids[i], dt, step,
                        stats))
            removed[i] = 1;
          px[i] = pos.x;
          py[i] = pos.y;
          pz[i] = pos.z;
          vx[i] = vel.x;
          vy[i] = vel.y;
          vz[i] = vel.z;
        }
      });
}

}  // namespace dsmcpic::dsmc
