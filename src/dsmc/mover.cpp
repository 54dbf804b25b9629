#include "dsmc/mover.hpp"

#include <cmath>

#include "dsmc/maxwell.hpp"
#include "support/rng.hpp"

namespace dsmcpic::dsmc {

Mover::Mover(const mesh::TetMesh& grid, const SpeciesTable& table,
             MoverConfig cfg)
    : grid_(&grid), table_(&table), cfg_(cfg) {}

bool Mover::move_one(Vec3& pos, Vec3& vel, std::int32_t& cell,
                     std::int32_t species, std::int64_t id, double dt, int step,
                     MoveStats& stats) const {
  double remaining = dt;
  ++stats.moved;
  // A particle crossing more cells than this is numerically stuck.
  const int max_crossings = 64 + 4 * 1024;
  for (int guard = 0; guard < max_crossings && remaining > 0.0; ++guard) {
    if (vel.norm2() == 0.0) break;
    double t_exit = 0.0;
    const int face = grid_->ray_exit_face(cell, pos, vel, &t_exit);
    if (face < 0) {
      // Degenerate geometry; re-locate and stop this step's motion.
      const std::int32_t found = grid_->locate(pos, cell);
      if (found >= 0) cell = found;
      break;
    }
    if (t_exit >= remaining) {
      pos += vel * remaining;
      remaining = 0.0;
      break;
    }
    // Cross the face.
    pos += vel * t_exit;
    remaining -= t_exit;
    ++stats.walk_steps;
    const std::int32_t nb = grid_->neighbor(cell, face);
    if (nb >= 0) {
      cell = nb;
      // Tiny nudge so the next ray test does not re-hit the same plane.
      const double eps = remaining * 1e-12;
      pos += vel * eps;
      remaining -= eps;
      continue;
    }
    // Boundary face.
    const mesh::BoundaryKind kind = grid_->face_kind(cell, face);
    if (kind == mesh::BoundaryKind::kWall) {
      ++stats.wall_hits;
      const Vec3 n_in = -grid_->face_normal(cell, face);  // into the domain
      if (cfg_.wall_model == WallModel::kSpecular) {
        // v' = v - 2 (v·n) n; n's sign cancels, n_in works directly.
        vel -= n_in * (2.0 * dot(vel, n_in));
      } else {
        // Diffuse: per-particle stream keyed by (seed, id, step) so the
        // reflection sequence does not depend on the decomposition.
        Rng rng(derive_stream_seed(cfg_.seed, static_cast<std::uint64_t>(id)),
                static_cast<std::uint64_t>(step));
        vel = sample_diffuse_reflection(rng, n_in, cfg_.wall_temperature,
                                        (*table_)[species].mass);
      }
      // Nudge back inside along the new direction.
      pos += n_in * 1e-14;
      continue;
    }
    // Inlet (backflow) or outlet: the particle leaves the domain.
    ++stats.exited;
    return false;
  }
  return true;
}

}  // namespace dsmcpic::dsmc
