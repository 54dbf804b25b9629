// Tests for the solver's production features: checkpoint/restart, the
// balance auto-tuner, and the hierarchical exchange strategy driving a full
// simulation.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/autotune.hpp"
#include "core/datasets.hpp"
#include "core/solver.hpp"

namespace dsmcpic::core {
namespace {

SolverConfig tiny_config(double particle_scale = 0.25) {
  Dataset d = make_dataset(1, particle_scale);
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

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(is), {}};
}

/// FNV-1a over every step diagnostic since construction or restore, then
/// the virtual clocks.
std::uint64_t run_digest(const CoupledSolver& s) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](auto v) {
    for (const unsigned char b :
         std::bit_cast<std::array<unsigned char, sizeof v>>(v)) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  };
  for (const StepDiagnostics& d : s.history()) {
    mix(d.dsmc_step);
    for (const std::int64_t p : d.particles_per_rank) mix(p);
    for (const std::int64_t v :
         {d.total_h, d.total_hplus, d.injected, d.migrated_dsmc,
          d.migrated_pic, d.collisions, d.ionizations, d.recombinations,
          d.exited_dsmc, d.exited_pic, d.pic_lost})
      mix(v);
    mix(d.poisson_iterations);
    mix(d.lii);
    mix(d.rebalanced);
  }
  for (int r = 0; r < s.runtime().size(); ++r) mix(s.runtime().clock(r));
  return h;
}

// Two solvers of one configuration save the same bytes: every record in the
// file is written field by field, so no uninitialized padding reaches it.
// Twelve ranks under the look-ahead policy and an elastic ensemble fill
// both decision logs.
TEST(Checkpoint, SavesOfOneConfigurationAreByteIdentical) {
  ParallelConfig par = tiny_parallel(12);
  par.balance.period = 3;
  par.balance.policy.kind = balance::PolicyKind::kLookahead;
  par.balance.ensemble.kind = balance::EnsembleKind::kElastic;
  par.balance.ensemble.ranks_min = 2;
  std::string bytes[2];
  for (int i = 0; i < 2; ++i) {
    const std::string path = temp_path("dsmcpic_ckpt_same_bytes.bin");
    CoupledSolver solver(tiny_config(), par);
    solver.run(12);
    ASSERT_FALSE(solver.policy().decisions().empty());
    ASSERT_FALSE(solver.ensemble().decisions().empty());
    solver.save_checkpoint(path);
    bytes[i] = slurp(path);
    std::filesystem::remove(path);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

// The checkpoint constructor equals the three-argument constructor followed
// by restore_checkpoint: same owner map, active count and checkpoint bytes
// right after the restore, and the same run afterwards.
struct ResumeCase {
  const char* name;
  double particle_scale;
  ParallelConfig par;
  int save_at;  // DSMC steps before the checkpoint
  int more;     // DSMC steps after it
};

ResumeCase resume_case(const char* name) {
  ResumeCase c{name, 0.25, tiny_parallel(4), 6, 6};
  const std::string n = name;
  if (n == "TimerLookahead") {
    c.par.balance.cost_model.kind = balance::CostModelKind::kTimer;
    c.par.balance.policy.kind = balance::PolicyKind::kLookahead;
  } else if (n == "ElasticShrunk") {
    // Shrinks 12 -> 6 -> 3 -> 2 active ranks in its first nine steps and
    // grows back to 3 in its thirteenth: saved at 6 active ranks, the
    // resumed run shrinks and grows.
    c.particle_scale = 0.5;
    c.par.nranks = 12;
    c.par.balance.enabled = false;
    c.par.balance.period = 3;
    c.par.balance.ensemble.kind = balance::EnsembleKind::kElastic;
    c.par.balance.ensemble.ranks_min = 2;
    c.save_at = 4;
    c.more = 10;
  } else if (n == "NeighborRebalanced") {
    c.par.nranks = 6;
    c.par.strategy = exchange::Strategy::kNeighbor;
    c.par.balance.period = 3;
    c.par.balance.threshold = 1.01;
    c.save_at = 9;  // after its first rebalance
  } else if (n == "KernelThreads2") {
    c.par.kernel_threads = 2;
  }
  return c;
}

std::vector<std::int32_t> owners(const CoupledSolver& s) {
  return {s.owner().begin(), s.owner().end()};
}

class ResumeConstructor : public ::testing::TestWithParam<const char*> {};

TEST_P(ResumeConstructor, EqualsRestoreInPlace) {
  const ResumeCase c = resume_case(GetParam());
  const SolverConfig cfg = tiny_config(c.particle_scale);
  const std::string path =
      temp_path((std::string("dsmcpic_resume_") + c.name + ".bin").c_str());
  const std::string again = path + ".again";
  {
    CoupledSolver first(cfg, c.par);
    first.run(c.save_at);
    first.save_checkpoint(path);
  }
  const std::string saved = slurp(path);

  CoupledSolver restored(cfg, c.par);
  restored.restore_checkpoint(path);
  CoupledSolver resumed(cfg, c.par, nullptr, path);
  EXPECT_EQ(resumed.current_step(), c.save_at);
  EXPECT_TRUE(resumed.history().empty());
  EXPECT_EQ(owners(resumed), owners(restored));
  EXPECT_EQ(resumed.active_ranks(), restored.active_ranks());
  EXPECT_EQ(resumed.potential(), restored.potential());
  resumed.save_checkpoint(again);
  EXPECT_EQ(slurp(again), saved);

  const int active_at_save = resumed.active_ranks();
  const int rebalances_at_save = resumed.rebalance_stats().rebalances;
  bool grew = false, shrank = false;
  for (int i = 0; i < c.more; ++i) {
    const int before = resumed.active_ranks();
    restored.step();
    resumed.step();
    grew |= resumed.active_ranks() > before;
    shrank |= resumed.active_ranks() < before;
  }
  EXPECT_EQ(run_digest(resumed), run_digest(restored));
  EXPECT_EQ(owners(resumed), owners(restored));
  EXPECT_EQ(resumed.active_ranks(), restored.active_ranks());
  EXPECT_EQ(resumed.rebalance_stats().rebalances,
            restored.rebalance_stats().rebalances);
  restored.save_checkpoint(path);
  resumed.save_checkpoint(again);
  EXPECT_EQ(slurp(again), slurp(path));

  // Each case exercises what it is named for.
  const std::string n = c.name;
  if (n == "ElasticShrunk") {
    EXPECT_LT(active_at_save, c.par.nranks);
    EXPECT_TRUE(grew && shrank) << "grew " << grew << ", shrank " << shrank;
  }
  if (n == "NeighborRebalanced") {
    EXPECT_GE(rebalances_at_save, 1) << "no rebalance before the checkpoint";
  }
  if (n == "TimerLookahead") {
    EXPECT_FALSE(resumed.policy().decisions().empty());
  }
  std::filesystem::remove(path);
  std::filesystem::remove(again);
}

INSTANTIATE_TEST_SUITE_P(Configs, ResumeConstructor,
                         ::testing::Values("DcStatic", "TimerLookahead",
                                           "ElasticShrunk",
                                           "NeighborRebalanced",
                                           "KernelThreads2"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// The checkpoint constructor refuses what restore_checkpoint refuses, and
// leaves no solver behind: a missing file, another configuration's
// checkpoint (fingerprint), an older version and every sampled truncation.
TEST(Checkpoint, RejectsBadFilesAtResumeConstruction) {
  const std::string path = temp_path("dsmcpic_ckpt_resume_bad.bin");
  const ParallelConfig par = tiny_parallel(3);
  std::filesystem::remove(path);
  EXPECT_THROW(CoupledSolver(tiny_config(), par, nullptr, path), Error);
  {
    CoupledSolver solver(tiny_config(), par);
    solver.run(2);
    solver.save_checkpoint(path);
  }
  const std::string saved = slurp(path);
  EXPECT_NO_THROW(CoupledSolver(tiny_config(), par, nullptr, path));
  EXPECT_THROW(CoupledSolver(tiny_config(), tiny_parallel(2), nullptr, path),
               Error);

  const auto resume = [&](const std::string& bytes) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    CoupledSolver solver(tiny_config(), par, nullptr, path);
  };
  // The version follows the u64 magic.
  std::string v4 = saved;
  const std::uint32_t four = 4;
  std::memcpy(v4.data() + 8, &four, sizeof(four));
  EXPECT_THROW(resume(v4), Error);
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, std::size_t{20}, saved.size() / 3,
        saved.size() / 2, saved.size() - 1})
    EXPECT_THROW(resume(saved.substr(0, len)), Error) << "length " << len;
  std::filesystem::remove(path);
}

// A NaN collision majorant would reach the candidate-count cast of the
// next Colli_React; both ways of resuming must refuse the file instead.
TEST(Checkpoint, RejectsNanMajorant) {
  const std::string path = temp_path("dsmcpic_ckpt_nan_majorant.bin");
  const ParallelConfig par = tiny_parallel(3);
  {
    CoupledSolver solver(tiny_config(), par);
    solver.run(2);
    solver.save_checkpoint(path);
  }
  const std::string saved = slurp(path);
  const auto u64_at = [&saved](std::size_t at) {
    std::uint64_t v;
    std::memcpy(&v, saved.data() + at, sizeof(v));
    return v;
  };
  // Header, step counters and owner array; then the stores (nine vectors
  // each: six of doubles, ids, species, cells), the potential, the two
  // injectors' remainders and sequences, and the collide's majorants.
  std::size_t at = 8 + 4 + 8 + 4 + 4;
  const std::uint64_t ncells = u64_at(at);
  at += 8 + 4 * ncells;
  const std::uint64_t nstores = u64_at(at);
  at += 8;
  for (std::uint64_t r = 0; r < nstores; ++r) {
    const std::uint64_t n = u64_at(at);
    at += 7 * (8 + 8 * n) + 2 * (8 + 4 * n);
  }
  for (int v = 0; v < 5; ++v) at += 8 + 8 * u64_at(at);
  ASSERT_EQ(u64_at(at), ncells);
  std::string patched = saved;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(patched.data() + at + 8, &nan, sizeof(nan));
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(patched.data(), static_cast<std::streamsize>(patched.size()));
  }
  CoupledSolver in_place(tiny_config(), par);
  EXPECT_THROW(in_place.restore_checkpoint(path), Error);
  EXPECT_THROW(CoupledSolver(tiny_config(), par, nullptr, path), Error);
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
