#include "dsmc/collide.hpp"

#include "support/serialize.hpp"

#include <cmath>

namespace dsmcpic::dsmc {

namespace {
// Every cell's majorant (sigma * c_r)_max [m^3/s] starts here and only
// grows, so a checkpointed majorant below it was never written by a run.
constexpr double kInitialSigmaCrMax = 1e-15;
}  // namespace

double vhs_cross_section(const Species& a, const Species& b, double c_r) {
  // Bird's VHS: sigma = pi d_ref^2 * [2 kB T_ref / (m_r c_r^2)]^(omega-1/2)
  //                      / Gamma(5/2 - omega)
  // with pair-averaged reference diameter, omega and T_ref.
  const double d = 0.5 * (a.diameter + b.diameter);
  const double omega = 0.5 * (a.omega + b.omega);
  const double t_ref = 0.5 * (a.t_ref + b.t_ref);
  const double m_r = a.mass * b.mass / (a.mass + b.mass);
  const double c2 = std::max(c_r * c_r, 1e-30);
  const double ratio = 2.0 * constants::kBoltzmann * t_ref / (m_r * c2);
  return M_PI * d * d * std::pow(ratio, omega - 0.5) /
         std::tgamma(2.5 - omega);
}

CollisionKernel::CollisionKernel(const mesh::TetMesh& grid,
                                 const SpeciesTable& table, CollisionConfig cfg,
                                 Chemistry* chemistry)
    : grid_(&grid),
      table_(&table),
      cfg_(cfg),
      chemistry_(chemistry),
      num_species_(static_cast<std::size_t>(table.size())),
      sigma_cr_max_(static_cast<std::size_t>(grid.num_tets()),
                    kInitialSigmaCrMax),
      candidate_carry_(static_cast<std::size_t>(grid.num_tets()), 0.0) {
  // Precompute the pair-averaged VHS constants. The expressions mirror
  // vhs_cross_section exactly (same grouping, divide by gamma rather than
  // multiply by its inverse) so the cached path is bit-identical.
  vhs_pairs_.resize(num_species_ * num_species_);
  for (std::int32_t a = 0; a < table.size(); ++a) {
    for (std::int32_t b = 0; b < table.size(); ++b) {
      const Species& sa = table[a];
      const Species& sb = table[b];
      const double d = 0.5 * (sa.diameter + sb.diameter);
      const double omega = 0.5 * (sa.omega + sb.omega);
      const double t_ref = 0.5 * (sa.t_ref + sb.t_ref);
      VhsPair& p = vhs_pairs_[static_cast<std::size_t>(a) * num_species_ +
                              static_cast<std::size_t>(b)];
      p.pi_d2 = M_PI * d * d;
      p.omega_mhalf = omega - 0.5;
      p.two_kb_tref = 2.0 * constants::kBoltzmann * t_ref;
      p.m_r = sa.mass * sb.mass / (sa.mass + sb.mass);
      p.gamma = std::tgamma(2.5 - omega);
      // sigma c_r = K c_r^(1/2) for omega = 3/4, so (sigma c_r)^4 = K^4 g2
      // with K^4 = pi_d2^4 (2 kB T_ref / m_r) / gamma^4. Constants in
      // [1e-40, 1e40] keep K^4, k4 g2 and every intermediate of vhs_sigma
      // normal for g2 in [kBoundMinG2, kBoundMaxG2]; any other pair gets no
      // bound and takes the exact path.
      p.k4 = 0.0;
      const auto moderate = [](double x) { return x >= 1e-40 && x <= 1e40; };
      if (omega == 0.75 && moderate(p.pi_d2) && moderate(p.two_kb_tref) &&
          moderate(p.m_r)) {
        const double pd2 = p.pi_d2 * p.pi_d2;
        const double gg = p.gamma * p.gamma;
        p.k4 = pd2 * pd2 * (p.two_kb_tref / p.m_r) / (gg * gg);
      }
    }
  }
}

namespace {
// Chunk-plan sizing: a few chunks per lane absorbs residual imbalance the
// weight model misses; the plan stays within sum_tasks' task cap.
constexpr int kCollideChunksPerLane = 4;
}  // namespace

int CollisionKernel::plan_chunks(const ParticleStore& store,
                                 const CellIndex& index,
                                 std::span<const std::int32_t> my_cells,
                                 double dt, int threads,
                                 CollideScratch& scr) const {
  const std::int64_t ncells = static_cast<std::int64_t>(my_cells.size());
  const auto serial = [&] {
    scr.bounds.assign({0, ncells});
    return 1;
  };
  if (ncells < threads || threads < 2) return serial();
  const int want = std::min(support::KernelExec::kMaxChunks,
                            threads * kCollideChunksPerLane);

  // Measured per-cell cost: the sweep's own expected-candidate expression,
  // evaluated read-only (the carry is NOT consumed here).
  scr.weight.resize(static_cast<std::size_t>(ncells));
  const auto species = store.species();
  double total = 0.0;
  for (std::int64_t ci = 0; ci < ncells; ++ci) {
    const std::int32_t cell = my_cells[ci];
    const auto parts = index.particles_in(cell);
    const auto np = static_cast<std::int64_t>(parts.size());
    double w = 0.0;
    if (np >= 2) {
      double fnum_sum = 0.0;
      for (std::int32_t p : parts) fnum_sum += (*table_)[species[p]].fnum;
      const double fnum_mean = fnum_sum / static_cast<double>(np);
      w = 0.5 * static_cast<double>(np) * static_cast<double>(np - 1) *
              fnum_mean * sigma_cr_max_[cell] * dt / grid_->volume(cell) +
          candidate_carry_[cell];
      w = std::max(w, 0.0);
    }
    scr.weight[static_cast<std::size_t>(ci)] = w;
    total += w;
  }
  if (!(total > 0.0)) return serial();

  // Greedy prefix split at the weight targets; a chunk always takes at
  // least one cell, so bounds are strictly increasing (no empty chunks).
  scr.bounds.clear();
  scr.bounds.push_back(0);
  double acc = 0.0;
  int k = 1;
  for (std::int64_t ci = 0; ci < ncells && k < want; ++ci) {
    acc += scr.weight[static_cast<std::size_t>(ci)];
    if (acc >= total * static_cast<double>(k) / static_cast<double>(want) &&
        ci + 1 < ncells) {
      scr.bounds.push_back(ci + 1);
      ++k;
    }
  }
  scr.bounds.push_back(ncells);
  const int nc = static_cast<int>(scr.bounds.size()) - 1;
  // Serial fallback: a plan that cannot give every lane its own chunk
  // loses to dispatch overhead (the kt2 regression this replaces).
  return nc < threads ? serial() : nc;
}

CollisionStats CollisionKernel::collide_cells(
    ParticleStore& store, const CellIndex& index,
    std::span<const std::int32_t> my_cells, double dt, int step,
    const support::KernelExec* exec, CollideScratch* scratch) {
  CollideScratch local;
  CollideScratch& scr = scratch ? *scratch : local;
  const int nc = plan_chunks(store, index, my_cells, dt,
                             exec ? exec->threads() : 1, scr);
  if (scr.spawned.size() < static_cast<std::size_t>(nc))
    scr.spawned.resize(static_cast<std::size_t>(nc));
  for (auto& buf : scr.spawned) buf.clear();

  const auto species = store.species();
  auto vx = store.vx(), vy = store.vy(), vz = store.vz();
  // Cells are disjoint between chunks (majorant, carry, RNG stream and
  // partner velocities are all per-cell); chunk stats and spawn buffers are
  // merged in chunk order, which equals cell order — exactly the serial
  // sequence, for ANY chunk boundaries the plan picks.
  const auto collide_chunk = [&](int c, CollisionStats& stats) {
    std::vector<ParticleRecord>& spawned = scr.spawned[c];
    for (std::int64_t ci = scr.bounds[c]; ci < scr.bounds[c + 1]; ++ci) {
      const std::int32_t cell = my_cells[ci];
      const auto parts = index.particles_in(cell);
      const auto np = static_cast<std::int64_t>(parts.size());
      if (np < 2) continue;

      // Mean scaling factor of the particles in the cell (mixed-species NTC
      // simplification; see DESIGN.md).
      double fnum_sum = 0.0;
      for (std::int32_t p : parts) fnum_sum += (*table_)[species[p]].fnum;
      const double fnum_mean = fnum_sum / static_cast<double>(np);

      const double volume = grid_->volume(cell);
      double& majorant = sigma_cr_max_[cell];

      const double expected =
          0.5 * static_cast<double>(np) * static_cast<double>(np - 1) *
              fnum_mean * majorant * dt / volume +
          candidate_carry_[cell];
      // The cast is undefined for NaN, infinity or 2^63 and up, which a
      // finite corrupt majorant can still produce.
      DSMCPIC_CHECK(expected >= 0.0 && expected < 0x1p63);
      const auto n_cand = static_cast<std::int64_t>(expected);
      candidate_carry_[cell] = expected - static_cast<double>(n_cand);
      if (n_cand <= 0) continue;

      // Per-(cell, step) stream: collision sequence is independent of which
      // rank owns the cell.
      Rng rng(derive_stream_seed(cfg_.seed, static_cast<std::uint64_t>(cell)),
              static_cast<std::uint64_t>(step));

      for (std::int64_t k = 0; k < n_cand; ++k) {
        ++stats.candidates;
        const auto pi =
            parts[rng.uniform_index(static_cast<std::uint64_t>(np))];
        auto pj = parts[rng.uniform_index(static_cast<std::uint64_t>(np))];
        if (pi == pj) continue;

        const auto si = species[pi];
        const auto sj = species[pj];
        const Vec3 vi{vx[pi], vy[pi], vz[pi]};
        const Vec3 vj{vx[pj], vy[pj], vz[pj]};
        const Vec3 rel = vi - vj;
        const double g2 = rel.norm2();  // a sum of squares: never negative
        if (g2 <= 0.0) continue;
        if (!ntc_accepts(si, sj, g2, rng.uniform(), majorant, stats))
          continue;  // rejected

        ++stats.collisions;
        const double c_r = std::sqrt(g2);
        const double ma = (*table_)[si].mass;
        const double mb = (*table_)[sj].mass;
        const double m_r = ma * mb / (ma + mb);
        const double e_rel = 0.5 * m_r * c_r * c_r;

        if (chemistry_ &&
            chemistry_->try_ionization(rng, store, pi, pj, e_rel, spawned)) {
          ++stats.ionizations;
          // Elastic scatter still applies to the colliding pair below.
        }
        if (chemistry_ && si != sj &&
            chemistry_->try_charge_exchange(rng, store, pi, pj)) {
          ++stats.charge_exchanges;
          continue;  // CEX replaces the elastic scatter for this pair
        }

        // Isotropic VHS scatter in the centre-of-mass frame.
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
  };

  const CollisionStats stats =
      support::sum_tasks<CollisionStats>(exec, nc, collide_chunk);
  // Append spawned ions after the sweep, in chunk (= cell) order: the store
  // ends up identical to the serial interleaved-append version because the
  // records were captured at event time and serial appends also happen in
  // cell order.
  for (int c = 0; c < nc; ++c)
    for (const ParticleRecord& ion : scr.spawned[c]) store.add(ion);
  return stats;
}

void CollisionKernel::save(std::ostream& os) const {
  io::write_vec(os, sigma_cr_max_);
  io::write_vec(os, candidate_carry_);
}

void CollisionKernel::load(std::istream& is) {
  sigma_cr_max_ = io::read_vec<double>(is);
  candidate_carry_ = io::read_vec<double>(is);
  DSMCPIC_CHECK_MSG(
      sigma_cr_max_.size() == static_cast<std::size_t>(grid_->num_tets()) &&
          candidate_carry_.size() == sigma_cr_max_.size(),
      "checkpoint cell count mismatch");
  for (std::size_t c = 0; c < sigma_cr_max_.size(); ++c)
    DSMCPIC_CHECK_MSG(std::isfinite(sigma_cr_max_[c]) &&
                          sigma_cr_max_[c] >= kInitialSigmaCrMax &&
                          candidate_carry_[c] >= 0.0 &&
                          candidate_carry_[c] < 1.0,
                      "checkpoint majorant " << sigma_cr_max_[c] << " or carry "
                                             << candidate_carry_[c]
                                             << " of cell " << c);
}

}  // namespace dsmcpic::dsmc
