// Tests for the solver's production features: checkpoint/restart, the
// balance auto-tuner, and the hierarchical exchange strategy driving a full
// simulation.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/autotune.hpp"
#include "core/datasets.hpp"
#include "core/solver.hpp"

namespace dsmcpic::core {
namespace {

SolverConfig tiny_config() {
  Dataset d = make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

ParallelConfig tiny_parallel(int nranks) {
  ParallelConfig p;
  p.nranks = nranks;
  p.balance.period = 4;
  return p;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Checkpoint, RestartReproducesUninterruptedRun) {
  const SolverConfig cfg = tiny_config();
  const ParallelConfig par = tiny_parallel(3);

  // Reference: uninterrupted 12-step run.
  CoupledSolver reference(cfg, par);
  reference.run(12);

  // Checkpointed: 7 steps, save, restore into a FRESH solver, 5 more steps.
  const std::string path = temp_path("dsmcpic_ckpt_test.bin");
  {
    CoupledSolver first(cfg, par);
    first.run(7);
    first.save_checkpoint(path);
  }
  CoupledSolver second(cfg, par);
  second.restore_checkpoint(path);
  EXPECT_EQ(second.current_step(), 7);
  second.run(5);

  EXPECT_EQ(second.total_particles(), reference.total_particles());
  EXPECT_EQ(second.particles_per_rank(), reference.particles_per_rank());
  EXPECT_DOUBLE_EQ(second.runtime().total_time(),
                   reference.runtime().total_time());
  // Sampled fields continue identically too.
  const auto da = reference.sampler().number_density(dsmc::kSpeciesH);
  const auto db = second.sampler().number_density(dsmc::kSpeciesH);
  for (std::size_t c = 0; c < da.size(); ++c) ASSERT_DOUBLE_EQ(da[c], db[c]);
  std::filesystem::remove(path);
}

// ExecMode is deliberately NOT part of the checkpoint fingerprint: a run
// saved under threaded execution restores into a sequential solver (and
// vice versa) and still reproduces the uninterrupted run exactly, because
// threading is bit-invisible (DESIGN.md §2c).
TEST(Checkpoint, ThreadedAndSequentialCheckpointsInterchange) {
  const SolverConfig cfg = tiny_config();
  ParallelConfig seq_par = tiny_parallel(4);
  ParallelConfig thr_par = seq_par;
  thr_par.exec_mode = par::ExecMode::kThreaded;
  thr_par.exec_threads = 3;

  // Reference: uninterrupted 10-step sequential run.
  CoupledSolver reference(cfg, seq_par);
  reference.run(10);

  const std::string path = temp_path("dsmcpic_ckpt_exec_mode.bin");

  // Threaded save -> sequential restore.
  {
    CoupledSolver threaded(cfg, thr_par);
    threaded.run(6);
    threaded.save_checkpoint(path);
  }
  {
    CoupledSolver restored(cfg, seq_par);
    restored.restore_checkpoint(path);
    restored.run(4);
    EXPECT_EQ(restored.particles_per_rank(), reference.particles_per_rank());
    EXPECT_EQ(restored.runtime().total_time(),
              reference.runtime().total_time());
    EXPECT_EQ(restored.potential(), reference.potential());
  }

  // Sequential save -> threaded restore.
  {
    CoupledSolver plain(cfg, seq_par);
    plain.run(6);
    plain.save_checkpoint(path);
  }
  {
    CoupledSolver restored(cfg, thr_par);
    restored.restore_checkpoint(path);
    restored.run(4);
    EXPECT_EQ(restored.particles_per_rank(), reference.particles_per_rank());
    EXPECT_EQ(restored.runtime().total_time(),
              reference.runtime().total_time());
    EXPECT_EQ(restored.potential(), reference.potential());
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsMismatchedConfiguration) {
  const SolverConfig cfg = tiny_config();
  const std::string path = temp_path("dsmcpic_ckpt_mismatch.bin");
  {
    CoupledSolver solver(cfg, tiny_parallel(2));
    solver.run(2);
    solver.save_checkpoint(path);
  }
  CoupledSolver other(cfg, tiny_parallel(3));  // different rank count
  EXPECT_THROW(other.restore_checkpoint(path), Error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsGarbageFile) {
  const std::string path = temp_path("dsmcpic_ckpt_garbage.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a checkpoint";
  }
  CoupledSolver solver(tiny_config(), tiny_parallel(2));
  EXPECT_THROW(solver.restore_checkpoint(path), Error);
  std::filesystem::remove(path);
}

// A checkpoint whose owner array names a rank outside the active set, or
// whose Eq.-6 load window or cost-model prediction does not hold one entry
// per rank, must be refused with a typed error, not indexed out of bounds by
// the restored solver.
TEST(Checkpoint, RejectsCorruptOwnersAndLoadWindows) {
  const std::string path = temp_path("dsmcpic_ckpt_corrupt.bin");
  const ParallelConfig par = tiny_parallel(3);
  std::vector<double> poisson_busy;
  {
    CoupledSolver solver(tiny_config(), par);
    solver.run(2);
    solver.save_checkpoint(path);
    poisson_busy = solver.runtime().phase_busy(phases::kPoissonSolve);
  }
  std::string saved;
  {
    std::ifstream is(path, std::ios::binary);
    saved.assign(std::istreambuf_iterator<char>(is), {});
  }
  auto restore = [&](const std::string& bytes) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    CoupledSolver solver(tiny_config(), par);
    solver.restore_checkpoint(path);
  };
  EXPECT_NO_THROW(restore(saved));

  // owner[0] sits after the header (magic, version, fingerprint), the two
  // step counters and the owner array's u64 length.
  constexpr std::size_t kOwner0 = 8 + 4 + 8 + 4 + 4 + 8;
  for (const std::int32_t bad : {3, -1}) {
    std::string patched = saved;
    std::memcpy(patched.data() + kOwner0, &bad, sizeof(bad));
    EXPECT_THROW(restore(patched), Error) << "owner " << bad;
  }

  // The Poisson window is the Poisson busy row as of the step's rebalance
  // check, and nothing charges that phase afterwards: it is the first copy
  // of that row in the file. Drop its last entry, keeping the file aligned.
  ASSERT_EQ(poisson_busy.size(), 3u);
  std::string row(sizeof(std::uint64_t) + 3 * sizeof(double), '\0');
  const std::uint64_t n = 3;
  std::memcpy(row.data(), &n, sizeof(n));
  std::memcpy(row.data() + sizeof(n), poisson_busy.data(), 3 * sizeof(double));
  const std::size_t at = saved.find(row);
  ASSERT_NE(at, std::string::npos);
  std::string patched = saved;
  const std::uint64_t shorter = 2;
  std::memcpy(patched.data() + at, &shorter, sizeof(shorter));
  patched.erase(at + sizeof(n) + 2 * sizeof(double), sizeof(double));
  EXPECT_THROW(restore(patched), Error);

  // The cost model's per-rank prediction follows the particle-phase window,
  // a row as long as the Poisson one; the static model leaves it empty. A
  // one-entry prediction for three ranks must be refused too.
  const std::size_t predicted = at + 2 * row.size();
  std::uint64_t len = 1;
  std::memcpy(&len, saved.data() + predicted, sizeof(len));
  ASSERT_EQ(len, 0u);
  patched = saved;
  const std::uint64_t one = 1;
  const double load = 1.0;
  std::memcpy(patched.data() + predicted, &one, sizeof(one));
  patched.insert(predicted + sizeof(one),
                 reinterpret_cast<const char*>(&load), sizeof(load));
  EXPECT_THROW(restore(patched), Error);
  std::filesystem::remove(path);
}

// Every exchange leaves each particle on the rank that owns its cell, and
// the movers and PIC kernels index by that cell and its owner: a particle
// in a cell past the mesh, or in another rank's cell, must be refused.
TEST(Checkpoint, RejectsParticlesOutsideTheirRanksCells) {
  const std::string path = temp_path("dsmcpic_ckpt_particle_cell.bin");
  const ParallelConfig par = tiny_parallel(3);
  {
    CoupledSolver solver(tiny_config(), par);
    solver.run(2);
    solver.save_checkpoint(path);
  }
  std::string saved;
  {
    std::ifstream is(path, std::ios::binary);
    saved.assign(std::istreambuf_iterator<char>(is), {});
  }
  auto restore = [&](const std::string& bytes) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    CoupledSolver solver(tiny_config(), par);
    solver.restore_checkpoint(path);
  };
  const auto u64_at = [&saved](std::size_t at) {
    std::uint64_t v;
    std::memcpy(&v, saved.data() + at, sizeof(v));
    return v;
  };

  // The owner array follows the header (magic, version, fingerprint) and
  // the two step counters; the stores follow it, each as nine
  // length-prefixed vectors: six of doubles, ids, species, then cells.
  std::size_t at = 8 + 4 + 8 + 4 + 4;
  const std::uint64_t ncells = u64_at(at);
  std::vector<std::int32_t> owner(ncells);
  std::memcpy(owner.data(), saved.data() + at + 8, 4 * ncells);
  at += 8 + 4 * ncells;
  ASSERT_EQ(u64_at(at), 3u);
  at += 8;
  std::int32_t rank = -1;
  std::size_t cell0 = 0;  // offset of the first particle's cell
  for (std::int32_t r = 0; r < 3 && rank < 0; ++r) {
    const std::uint64_t n = u64_at(at);
    at += 7 * (8 + 8 * n) + (8 + 4 * n);
    ASSERT_EQ(u64_at(at), n);
    if (n > 0) {
      rank = r;
      cell0 = at + 8;
    }
    at += 8 + 4 * n;
  }
  ASSERT_GE(rank, 0) << "no particles after two steps";
  std::int32_t cell;
  std::memcpy(&cell, saved.data() + cell0, sizeof(cell));
  ASSERT_EQ(owner[cell], rank);
  EXPECT_NO_THROW(restore(saved));

  std::int32_t foreign = 0;
  while (owner[foreign] == rank) ++foreign;
  for (const std::int32_t bad : {static_cast<std::int32_t>(ncells), foreign}) {
    std::string patched = saved;
    std::memcpy(patched.data() + cell0, &bad, sizeof(bad));
    EXPECT_THROW(restore(patched), Error) << "cell " << bad;
  }
  std::filesystem::remove(path);
}

TEST(Autotune, PicksAValidCombination) {
  AutotuneOptions opt;
  opt.periods = {4, 8};
  opt.thresholds = {1.5, 3.0};
  opt.pilot_steps = 8;
  const AutotuneResult r =
      autotune_balance(tiny_config(), tiny_parallel(4), opt);
  ASSERT_EQ(r.trials.size(), 4u);
  // Trials sorted ascending by time; best matches front.
  for (std::size_t i = 1; i < r.trials.size(); ++i)
    EXPECT_GE(r.trials[i].total_time, r.trials[i - 1].total_time);
  EXPECT_EQ(r.best_period, r.trials.front().period);
  EXPECT_EQ(r.best_threshold, r.trials.front().threshold);
  EXPECT_TRUE(r.best_period == 4 || r.best_period == 8);
}

TEST(HierarchicalStrategy, DrivesAFullSimulation) {
  SolverConfig cfg = tiny_config();
  ParallelConfig hc = tiny_parallel(4);
  hc.strategy = exchange::Strategy::kHierarchical;
  ParallelConfig dc = tiny_parallel(4);
  dc.strategy = exchange::Strategy::kDistributed;
  CoupledSolver a(cfg, hc), b(cfg, dc);
  a.run(6);
  b.run(6);
  // Identical physics regardless of the strategy.
  EXPECT_EQ(a.total_particles(), b.total_particles());
  EXPECT_EQ(a.history().back().total_hplus, b.history().back().total_hplus);
}

}  // namespace
}  // namespace dsmcpic::core
