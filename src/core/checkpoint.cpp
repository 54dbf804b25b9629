// Checkpoint / restart for the coupled solver. The state written here is
// everything that influences the remainder of a run: the per-rank particle
// stores, the grid ownership, the electric potential (warm-start state),
// every RNG stream position (injector remainders/sequences, collision
// carries/majorants), the sampler accumulators, the load balancer's window
// and statistics, and the virtual-time accounting. Restoring into a solver
// built with the identical configuration reproduces the uninterrupted run
// bit-for-bit (verified by the CheckpointRestart tests).

#include <cstring>
#include <fstream>

#include "core/solver.hpp"
#include "support/serialize.hpp"

namespace dsmcpic::core {

namespace {

constexpr std::uint64_t kMagic = 0x44534d435049434bULL;  // "DSMCPICK"
// v2: ParticleStore serializes per-component (SoA) position/velocity arrays
// instead of two Vec3 arrays.
// v3: adds the particle-phase busy window, cost-model scales and
// rebalance-policy state (DESIGN.md §2h).
// v4: adds the elastic-ensemble state — the solver's active rank count and
// the ensemble policy's EWMAs/decision log — and the runtime stream gained
// its active set and superstep counter (DESIGN.md §2i).
// v5: the policy and ensemble decision logs are written field by field
// (no struct padding in the file) and their bools are checked to be 0 or 1.
constexpr std::uint32_t kVersion = 5;

/// A cheap fingerprint of the configuration pieces that must match between
/// the saving and restoring solver.
std::uint64_t config_fingerprint(const SolverConfig& cfg,
                                 const ParallelConfig& par,
                                 std::int32_t num_cells) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(num_cells));
  mix(static_cast<std::uint64_t>(par.nranks));
  mix(cfg.seed);
  mix(static_cast<std::uint64_t>(cfg.pic_substeps));
  std::uint64_t bits;
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::memcpy(&bits, &cfg.dt_dsmc, sizeof(bits));
  mix(bits);
  std::memcpy(&bits, &cfg.fnum_h, sizeof(bits));
  mix(bits);
  return h;
}

}  // namespace

void CoupledSolver::save_checkpoint(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  DSMCPIC_CHECK_MSG(os.good(), "cannot open checkpoint file " << path);

  io::write_pod(os, kMagic);
  io::write_pod(os, kVersion);
  io::write_pod(os, config_fingerprint(cfg_, pcfg_, coarse_.num_tets()));

  io::write_pod(os, step_);
  io::write_pod(os, steps_since_rebalance_);
  io::write_vec(os, owner_);

  io::write_pod<std::uint64_t>(os, stores_.size());
  for (const auto& store : stores_) store.save(os);

  io::write_vec(os, phi_global_);

  inject_h_->save(os);
  inject_hplus_->save(os);
  collide_->save(os);
  sampler_.save(os);

  io::write_vec(os, prev_busy_.total);
  io::write_vec(os, prev_busy_.pm);
  io::write_vec(os, prev_busy_.poi);
  io::write_vec(os, prev_busy_.particle);
  io::write_vec(os, prev_predicted_);
  io::write_pod(os, lb_stats_);
  cost_model_.save(os);
  policy_.save(os);
  io::write_pod<std::int32_t>(os, active_);
  ensemble_.save(os);

  rt_->save(os);
}

void CoupledSolver::restore_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DSMCPIC_CHECK_MSG(is.good(), "cannot open checkpoint file " << path);

  DSMCPIC_CHECK_MSG(io::read_pod<std::uint64_t>(is) == kMagic,
                    "not a dsmcpic checkpoint: " << path);
  DSMCPIC_CHECK_MSG(io::read_pod<std::uint32_t>(is) == kVersion,
                    "unsupported checkpoint version");
  DSMCPIC_CHECK_MSG(io::read_pod<std::uint64_t>(is) ==
                        config_fingerprint(cfg_, pcfg_, coarse_.num_tets()),
                    "checkpoint was written with a different configuration");

  step_ = io::read_pod<int>(is);
  steps_since_rebalance_ = io::read_pod<int>(is);
  owner_ = io::read_vec<std::int32_t>(is);
  DSMCPIC_CHECK(static_cast<std::int32_t>(owner_.size()) == coarse_.num_tets());

  const auto nstores = io::read_pod<std::uint64_t>(is);
  DSMCPIC_CHECK(nstores == stores_.size());
  for (auto& store : stores_) store.load(is);
  for (std::size_t r = 0; r < stores_.size(); ++r)
    removed_[r].assign(stores_[r].size(), 0);

  phi_global_ = io::read_vec<double>(is);
  DSMCPIC_CHECK(phi_global_.size() ==
                static_cast<std::size_t>(psys_->num_nodes()));

  inject_h_->load(is);
  inject_hplus_->load(is);
  collide_->load(is);
  sampler_.load(is);

  prev_busy_.total = io::read_vec<double>(is);
  prev_busy_.pm = io::read_vec<double>(is);
  prev_busy_.poi = io::read_vec<double>(is);
  prev_busy_.particle = io::read_vec<double>(is);
  prev_predicted_ = io::read_vec<double>(is);
  // maybe_rebalance indexes the windows by rank; the cost model's
  // prediction is empty until its first window.
  for (const auto* w : {&prev_busy_.total, &prev_busy_.pm, &prev_busy_.poi,
                        &prev_busy_.particle, &prev_predicted_})
    DSMCPIC_CHECK_MSG(static_cast<int>(w->size()) == pcfg_.nranks ||
                          (w == &prev_predicted_ && w->empty()),
                      "checkpoint load window holds " << w->size()
                                                      << " ranks, not "
                                                      << pcfg_.nranks);
  lb_stats_ = io::read_pod<balance::RebalanceStats>(is);
  cost_model_.load(is);
  policy_.load(is);
  const auto active = io::read_pod<std::int32_t>(is);
  DSMCPIC_CHECK_MSG(active >= 1 && active <= pcfg_.nranks,
                    "checkpoint active rank count " << active
                                                    << " out of range");
  active_ = active;
  for (std::size_t c = 0; c < owner_.size(); ++c)
    DSMCPIC_CHECK_MSG(owner_[c] >= 0 && owner_[c] < active_,
                      "checkpoint owner of cell " << c << " is rank "
                                                  << owner_[c]
                                                  << ", outside [0, "
                                                  << active_ << ")");
  // Every exchange leaves each particle on the rank owning its cell; the
  // movers index cell geometry by it and the PIC kernels read node slots by
  // the cell's owner.
  for (std::size_t r = 0; r < stores_.size(); ++r)
    for (const std::int32_t c : stores_[r].cells()) {
      const bool owned = c >= 0 && c < coarse_.num_tets() &&
                         owner_[static_cast<std::size_t>(c)] ==
                             static_cast<std::int32_t>(r);
      DSMCPIC_CHECK_MSG(owned, "checkpoint particle of rank "
                                   << r << " is in cell " << c
                                   << ", which the rank does not own");
    }
  ensemble_.load(is);

  rt_->load(is);
  DSMCPIC_CHECK(rt_->active_ranks() == active_);

  // Rebuild decomposition-dependent structures for the restored ownership
  // (no cost charging: the restored clocks already contain everything).
  rebuild_parallel_structures(phases::kInit, /*charge_costs=*/false);
  history_.clear();
}

}  // namespace dsmcpic::core
