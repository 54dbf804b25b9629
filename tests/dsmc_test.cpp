#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>

#include "dsmc/chemistry.hpp"
#include "dsmc/collide.hpp"
#include "dsmc/injector.hpp"
#include "dsmc/maxwell.hpp"
#include "dsmc/mover.hpp"
#include "dsmc/particles.hpp"
#include "dsmc/sampling.hpp"
#include "dsmc/species.hpp"
#include "mesh/nozzle.hpp"
#include "support/error.hpp"
#include "support/kernel_exec.hpp"
#include "support/serialize.hpp"

#include "collide_reference.hpp"

namespace dsmcpic::dsmc {
namespace {

/// Overwrites element k of the `vec`-th length-prefixed vector of 8-byte
/// elements in a saved stream.
template <class T>
std::string patched(std::string bytes, int vec, std::size_t k, T value) {
  static_assert(sizeof(T) == 8);
  std::size_t at = 0;
  for (int v = 0; v < vec; ++v) {
    std::uint64_t n;
    std::memcpy(&n, bytes.data() + at, sizeof n);
    at += 8 + 8 * n;
  }
  std::memcpy(bytes.data() + at + 8 + 8 * k, &value, sizeof value);
  return bytes;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

mesh::NozzleSpec test_spec() {
  mesh::NozzleSpec s;
  s.radius = 0.01;
  s.length = 0.05;
  s.inlet_radius_frac = 0.4;
  s.radial_divisions = 4;
  s.axial_divisions = 10;
  return s;
}

TEST(ParticleStore, AddRecordRoundTrip) {
  ParticleStore s;
  ParticleRecord p;
  p.position = {1, 2, 3};
  p.velocity = {-1, 0, 5};
  p.id = 42;
  p.species = kSpeciesHPlus;
  p.cell = 7;
  s.add(p);
  ASSERT_EQ(s.size(), 1u);
  const ParticleRecord q = s.record(0);
  EXPECT_EQ(q.position, p.position);
  EXPECT_EQ(q.velocity, p.velocity);
  EXPECT_EQ(q.id, 42);
  EXPECT_EQ(q.species, kSpeciesHPlus);
  EXPECT_EQ(q.cell, 7);
}

TEST(ParticleStore, RemoveSwapAndFlagged) {
  ParticleStore s;
  for (int i = 0; i < 5; ++i) {
    ParticleRecord p;
    p.id = i;
    s.add(p);
  }
  s.remove_swap(1);  // last (id 4) swaps into slot 1
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.ids()[1], 4);

  std::vector<std::uint8_t> flags{1, 0, 1, 0};
  EXPECT_EQ(s.remove_flagged(flags), 2u);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.ids()[0], 4);  // stable order of survivors
  EXPECT_EQ(s.ids()[1], 3);
}

TEST(ParticleStore, CountSpecies) {
  ParticleStore s;
  for (int i = 0; i < 6; ++i) {
    ParticleRecord p;
    p.species = (i % 3 == 0) ? kSpeciesHPlus : kSpeciesH;
    s.add(p);
  }
  EXPECT_EQ(s.count_species(kSpeciesH), 4);
  EXPECT_EQ(s.count_species(kSpeciesHPlus), 2);
}

TEST(CellIndex, GroupsByCell) {
  ParticleStore s;
  const int cells[] = {2, 0, 2, 1, 2};
  for (int c : cells) {
    ParticleRecord p;
    p.cell = c;
    s.add(p);
  }
  const CellIndex idx(s, 3);
  EXPECT_EQ(idx.particles_in(0).size(), 1u);
  EXPECT_EQ(idx.particles_in(1).size(), 1u);
  EXPECT_EQ(idx.particles_in(2).size(), 3u);
  for (const auto i : idx.particles_in(2)) EXPECT_EQ(s.cells()[i], 2);
}

TEST(Maxwell, ThermalSpeedAndFluxLimits) {
  const double m = constants::kHydrogenMass;
  const double vth = thermal_speed(300.0, m);
  EXPECT_NEAR(vth, std::sqrt(2 * constants::kBoltzmann * 300 / m), 1e-9);
  // Zero drift: flux = n vth / (2 sqrt(pi)).
  EXPECT_NEAR(maxwellian_flux_factor(0.0, 300.0, m),
              vth / (2 * std::sqrt(M_PI)), 1e-9);
  // Strong drift: flux -> drift.
  EXPECT_NEAR(maxwellian_flux_factor(50 * vth, 300.0, m), 50 * vth,
              0.01 * 50 * vth);
}

TEST(Maxwell, SampledMomentsMatch) {
  Rng rng(31);
  const double m = constants::kHydrogenMass;
  const double T = 500.0;
  double sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum2 += sample_maxwellian(rng, T, m).norm2();
  // <v^2> = 3 kT / m.
  EXPECT_NEAR(sum2 / n, 3 * constants::kBoltzmann * T / m,
              0.02 * 3 * constants::kBoltzmann * T / m);
}

TEST(Maxwell, InflowSpeedsArePositiveAndFluxWeighted) {
  Rng rng(8);
  const double m = constants::kHydrogenMass;
  const double drift = 1e4, T = 300.0;
  double mean_v = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = sample_inflow_normal_speed(rng, drift, T, m);
    ASSERT_GT(v, 0.0);
    mean_v += v;
  }
  mean_v /= n;
  // With s = drift/vth ~ 4.5 the mean inflow speed ~ drift (slightly above).
  EXPECT_GT(mean_v, drift);
  EXPECT_LT(mean_v, drift * 1.2);
}

TEST(Maxwell, DiffuseReflectionPointsInward) {
  Rng rng(12);
  const Vec3 n_in{0, 0, 1};
  for (int i = 0; i < 1000; ++i) {
    const Vec3 v =
        sample_diffuse_reflection(rng, n_in, 300.0, constants::kHydrogenMass);
    ASSERT_GT(dot(v, n_in), 0.0);
  }
}

TEST(Injector, CountMatchesExpectation) {
  const mesh::NozzleSpec spec = test_spec();
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);
  const SpeciesTable table = SpeciesTable::hydrogen(1e9, 100.0);
  InjectionSpec is;
  is.species = kSpeciesH;
  is.number_density = 1e19;
  is.temperature = 300.0;
  is.drift_speed = 1e4;
  MaxwellianInjector inj(grid, mesh::BoundaryKind::kInlet, is, 7);

  const double dt = 2e-7;
  const double expected = inj.expected_per_step(table, dt);
  ASSERT_GT(expected, 10.0);

  const std::vector<std::int32_t> owner(grid.num_tets(), 0);
  ParticleStore store;
  const int steps = 20;
  std::int64_t total = 0;
  for (int s = 0; s < steps; ++s)
    total += inj.inject(store, table, dt, s, owner, 0);
  EXPECT_NEAR(static_cast<double>(total), expected * steps,
              0.05 * expected * steps + 2 * steps);
}

TEST(Injector, ParticlesStartInsideTheirCellMovingInward) {
  const mesh::NozzleSpec spec = test_spec();
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);
  const SpeciesTable table = SpeciesTable::hydrogen(1e8, 100.0);
  InjectionSpec is;
  is.number_density = 1e19;
  is.drift_speed = 1e4;
  MaxwellianInjector inj(grid, mesh::BoundaryKind::kInlet, is, 7);
  const std::vector<std::int32_t> owner(grid.num_tets(), 0);
  ParticleStore store;
  inj.inject(store, table, 2e-7, 0, owner, 0);
  ASSERT_GT(store.size(), 0u);
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto cell = store.cells()[i];
    EXPECT_TRUE(grid.contains(cell, store.position(i), 1e-6));
    EXPECT_GT(store.velocity(i).z, 0.0);  // inward = +z at the inlet
  }
}

TEST(Injector, OwnershipFiltersFaces) {
  const mesh::NozzleSpec spec = test_spec();
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);
  const SpeciesTable table = SpeciesTable::hydrogen(1e8, 100.0);
  InjectionSpec is;
  is.number_density = 1e19;
  MaxwellianInjector inj(grid, mesh::BoundaryKind::kInlet, is, 7);
  // No cells owned by rank 5: nothing injected.
  const std::vector<std::int32_t> owner(grid.num_tets(), 0);
  ParticleStore store;
  EXPECT_EQ(inj.inject(store, table, 2e-7, 0, owner, 5), 0);
  EXPECT_EQ(store.size(), 0u);
}

TEST(Injector, ShardsPartitionTheStream) {
  // The sharded injection must generate the exact same particle set no
  // matter how many shards it is split into (this is what makes serial and
  // parallel runs inject identical streams).
  const mesh::NozzleSpec spec = test_spec();
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);
  const SpeciesTable table = SpeciesTable::hydrogen(1e8, 100.0);
  InjectionSpec is;
  is.number_density = 1e19;
  is.drift_speed = 1e4;

  auto collect = [&](int nshards) {
    MaxwellianInjector inj(grid, mesh::BoundaryKind::kInlet, is, 7);
    std::map<std::int64_t, ParticleRecord> by_id;
    for (int step = 0; step < 3; ++step) {
      inj.begin_step(table, 2e-7, step);
      for (int s = 0; s < nshards; ++s) {
        ParticleStore store;
        inj.inject_shard(store, table, s, nshards);
        for (std::size_t i = 0; i < store.size(); ++i) {
          const ParticleRecord p = store.record(i);
          EXPECT_TRUE(by_id.emplace(p.id, p).second) << "duplicate id";
        }
      }
    }
    return by_id;
  };

  const auto one = collect(1);
  const auto four = collect(4);
  const auto seven = collect(7);
  ASSERT_GT(one.size(), 50u);
  ASSERT_EQ(one.size(), four.size());
  ASSERT_EQ(one.size(), seven.size());
  for (const auto& [id, p] : one) {
    const auto it = four.find(id);
    ASSERT_NE(it, four.end());
    EXPECT_EQ(it->second.position, p.position);
    EXPECT_EQ(it->second.velocity, p.velocity);
    EXPECT_EQ(it->second.cell, p.cell);
  }
}

TEST(Injector, ShardRequiresBeginStep) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e8, 100.0);
  MaxwellianInjector inj(grid, mesh::BoundaryKind::kInlet, {}, 7);
  ParticleStore store;
  EXPECT_THROW(inj.inject_shard(store, table, 0, 2), Error);
}

// A run keeps every inlet remainder in [0, 1) and every id sequence >= 0;
// anything else in a checkpoint would reach the next step's count cast.
TEST(Injector, LoadRejectsStreamsARunCannotWrite) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e9, 100.0);
  InjectionSpec is;
  is.number_density = 1e19;
  is.drift_speed = 1e4;
  MaxwellianInjector inj(grid, mesh::BoundaryKind::kInlet, is, 7);
  const std::vector<std::int32_t> owner(grid.num_tets(), 0);
  ParticleStore store;
  for (int s = 0; s < 3; ++s) inj.inject(store, table, 2e-7, s, owner, 0);
  std::ostringstream os;
  inj.save(os);
  const std::string saved = os.str();
  const auto load = [&](const std::string& bytes) {
    std::istringstream in(bytes);
    inj.load(in);
  };
  EXPECT_NO_THROW(load(saved));
  for (const double bad : {kNaN, kInf, -1.0, 1.0})
    EXPECT_THROW(load(patched(saved, 0, 1, bad)), Error) << "remainder " << bad;
  EXPECT_THROW(load(patched(saved, 1, 1, std::int64_t{-1})), Error);
}

TEST(Mover, StraightFlightStaysInDomain) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e8, 100.0);
  const Mover mover(grid, table, {});
  Vec3 pos{0, 0, 0.005};
  Vec3 vel{0, 0, 1e4};
  std::int32_t cell = grid.locate(pos, 0);
  ASSERT_GE(cell, 0);
  MoveStats st;
  // Move 1e-6 s: travels 1 cm along the axis, no wall contact.
  ASSERT_TRUE(mover.move_one(pos, vel, cell, kSpeciesH, 1, 1e-6, 0, st));
  EXPECT_NEAR(pos.z, 0.015, 1e-9);
  EXPECT_NEAR(pos.x, 0.0, 1e-12);
  EXPECT_TRUE(grid.contains(cell, pos, 1e-9));
  EXPECT_GT(st.walk_steps, 0);
}

TEST(Mover, ExitsThroughOutlet) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e8, 100.0);
  const Mover mover(grid, table, {});
  Vec3 pos{0, 0, 0.045};
  Vec3 vel{0, 0, 1e4};
  std::int32_t cell = grid.locate(pos, 0);
  MoveStats st;
  EXPECT_FALSE(mover.move_one(pos, vel, cell, kSpeciesH, 1, 1e-6, 0, st));
  EXPECT_EQ(st.exited, 1);
}

TEST(Mover, SpecularReflectionConservesEnergy) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e8, 100.0);
  MoverConfig cfg;
  cfg.wall_model = WallModel::kSpecular;
  const Mover mover(grid, table, cfg);
  Vec3 pos{0, 0, 0.025};
  Vec3 vel{2e4, 0, 100.0};  // mostly radial: will hit the lateral wall
  const double e0 = vel.norm2();
  std::int32_t cell = grid.locate(pos, 0);
  MoveStats st;
  ASSERT_TRUE(mover.move_one(pos, vel, cell, kSpeciesH, 1, 2e-6, 0, st));
  EXPECT_GT(st.wall_hits, 0);
  EXPECT_NEAR(vel.norm2(), e0, 1e-6 * e0);
  EXPECT_TRUE(grid.contains(cell, pos, 1e-6));
}

TEST(Mover, DiffuseWallThermalizes) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e8, 100.0);
  MoverConfig cfg;
  cfg.wall_temperature = 300.0;
  const Mover mover(grid, table, cfg);
  // Many fast radial particles; after a diffuse wall hit their speed should
  // drop to thermal scale (vth ~ 2225 m/s at 300 K).
  double mean_speed = 0.0;
  int reflected = 0;
  for (int i = 0; i < 200; ++i) {
    Vec3 pos{0, 0, 0.025};
    Vec3 vel{3e4, 0, 0};
    std::int32_t cell = grid.locate(pos, 0);
    MoveStats st;
    if (mover.move_one(pos, vel, cell, kSpeciesH, i, 1e-6, 0, st) &&
        st.wall_hits > 0) {
      mean_speed += vel.norm();
      ++reflected;
    }
  }
  ASSERT_GT(reflected, 100);
  mean_speed /= reflected;
  EXPECT_LT(mean_speed, 8000.0);  // far below the 3e4 injection speed
  EXPECT_GT(mean_speed, 1000.0);
}

// move_all's per-particle push: PIC_Move's gather + Boris push ride on the
// same loop as DSMC_Move. Ion j sits in cell j; the push drops the ions in
// every third cell and halves and tilts the velocity of the others.
struct PushHookRun {
  ParticleStore store;
  std::vector<std::uint8_t> removed;
  MoveStats stats;
};

PushHookRun run_push_hook(const mesh::TetMesh& grid, const SpeciesTable& table,
                          const ParticleStore& initial,
                          const support::KernelExec* exec) {
  const Mover mover(grid, table, {});
  PushHookRun run{initial, std::vector<std::uint8_t>(initial.size(), 0), {}};
  run.stats = mover.move_all(
      run.store, 2e-6, /*step=*/3, run.removed, MoveFilter::kChargedOnly, exec,
      [](const Vec3&, Vec3& vel, std::int32_t cell, std::int32_t) {
        if (cell % 3 == 0) return false;
        vel = vel * 0.5 + Vec3{0.0, 0.0, 4e3};
        return true;
      });
  return run;
}

TEST(Mover, PushHookDropsFlagsAndAdvancesLikeMoveOne) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e8, 100.0);
  const Mover mover(grid, table, {});
  ParticleStore initial;
  Rng rng(0x9a5ULL);
  const std::int32_t nions = 240;
  ASSERT_LT(nions, grid.num_tets());
  for (std::int32_t j = 0; j < 2 * nions; ++j) {
    ParticleRecord p;
    p.species = (j % 2 == 1) ? kSpeciesHPlus : kSpeciesH;
    p.cell = j / 2;
    p.position = grid.centroid(p.cell);
    p.velocity = sample_maxwellian(rng, 3000.0, constants::kHydrogenMass);
    p.id = j;
    initial.add(p);
  }

  const PushHookRun run = run_push_hook(grid, table, initial, nullptr);
  MoveStats expect;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    const std::int32_t cell0 = initial.cells()[i];
    if (initial.species()[i] != kSpeciesHPlus || cell0 % 3 == 0) {
      // Neutrals are filtered out; dropped ions keep their state.
      if (initial.species()[i] == kSpeciesHPlus) ++expect.lost;
      EXPECT_EQ(run.removed[i], initial.species()[i] == kSpeciesHPlus ? 1 : 0);
      EXPECT_EQ(run.store.position(i), initial.position(i));
      EXPECT_EQ(run.store.velocity(i), initial.velocity(i));
      EXPECT_EQ(run.store.cells()[i], cell0);
      continue;
    }
    Vec3 pos = initial.position(i);
    Vec3 vel = initial.velocity(i) * 0.5 + Vec3{0.0, 0.0, 4e3};
    std::int32_t cell = cell0;
    const bool stays = mover.move_one(pos, vel, cell, kSpeciesHPlus,
                                      initial.ids()[i], 2e-6, 3, expect);
    EXPECT_EQ(run.removed[i], stays ? 0 : 1) << "particle " << i;
    EXPECT_EQ(run.store.position(i), pos) << "particle " << i;
    EXPECT_EQ(run.store.velocity(i), vel) << "particle " << i;
    EXPECT_EQ(run.store.cells()[i], cell) << "particle " << i;
  }
  EXPECT_EQ(run.stats.lost, nions / 3);
  EXPECT_EQ(run.stats.lost, expect.lost);
  EXPECT_EQ(run.stats.moved, nions - nions / 3);
  EXPECT_EQ(run.stats.moved, expect.moved);
  EXPECT_EQ(run.stats.walk_steps, expect.walk_steps);
  EXPECT_EQ(run.stats.wall_hits, expect.wall_hits);
  EXPECT_EQ(run.stats.exited, expect.exited);
  EXPECT_GT(run.stats.walk_steps, 0);

  for (const int lanes : {1, 2, 4}) {
    const support::KernelExec exec(lanes);
    const PushHookRun chunked = run_push_hook(grid, table, initial, &exec);
    EXPECT_EQ(chunked.removed, run.removed) << lanes << " lanes";
    EXPECT_EQ(chunked.stats.moved, run.stats.moved) << lanes << " lanes";
    EXPECT_EQ(chunked.stats.walk_steps, run.stats.walk_steps);
    EXPECT_EQ(chunked.stats.wall_hits, run.stats.wall_hits);
    EXPECT_EQ(chunked.stats.exited, run.stats.exited);
    EXPECT_EQ(chunked.stats.lost, run.stats.lost);
    for (std::size_t i = 0; i < initial.size(); ++i) {
      EXPECT_EQ(chunked.store.position(i), run.store.position(i));
      EXPECT_EQ(chunked.store.velocity(i), run.store.velocity(i));
      EXPECT_EQ(chunked.store.cells()[i], run.store.cells()[i]);
    }
  }
}

TEST(Collide, MomentumAndEnergyConservedPerCell) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  // Big fnum + big diameter so collisions certainly happen.
  SpeciesTable table = SpeciesTable::hydrogen(1e14, 1e14);
  ParticleStore store;
  Rng rng(77);
  const std::int32_t cell = grid.locate({0, 0, 0.025}, 0);
  ASSERT_GE(cell, 0);
  for (int i = 0; i < 200; ++i) {
    ParticleRecord p;
    p.position = grid.centroid(cell);
    p.velocity = sample_maxwellian(rng, 100000.0, constants::kHydrogenMass);
    p.species = kSpeciesH;
    p.cell = cell;
    p.id = i;
    store.add(p);
  }
  Vec3 mom0;
  double e0 = 0.0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    mom0 += store.velocity(i);
    e0 += store.velocity(i).norm2();
  }
  CollisionKernel kernel(grid, table, {}, nullptr);
  const CellIndex index(store, grid.num_tets());
  const std::vector<std::int32_t> my_cells{cell};
  const CollisionStats st =
      kernel.collide_cells(store, index, my_cells, 1e-5, 0);
  EXPECT_GT(st.candidates, 0);
  EXPECT_GT(st.collisions, 0);
  Vec3 mom1;
  double e1 = 0.0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    mom1 += store.velocity(i);
    e1 += store.velocity(i).norm2();
  }
  EXPECT_NEAR((mom1 - mom0).norm(), 0.0, 1e-6 * mom0.norm() + 1e-3);
  EXPECT_NEAR(e1, e0, 1e-9 * e0);
}

TEST(Collide, VhsCrossSectionDecreasesWithSpeed) {
  const SpeciesTable table = SpeciesTable::hydrogen(1, 1);
  const double s1 = vhs_cross_section(table[0], table[0], 1e3);
  const double s2 = vhs_cross_section(table[0], table[0], 1e4);
  EXPECT_GT(s1, s2);
  EXPECT_GT(s2, 0.0);
}

// The per-pair constant cache must reproduce the free function exactly:
// the precomputed groupings (pi d^2, 2 kB T_ref, Gamma term) are the same
// subexpressions, so EXPECT_EQ (bitwise for doubles) is the contract.
TEST(Collide, VhsPairCacheMatchesFreeFunctionBitwise) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e12, 6000.0);
  CollisionKernel kernel(grid, table, CollisionConfig{});
  for (std::int32_t si = 0; si < table.size(); ++si) {
    for (std::int32_t sj = 0; sj < table.size(); ++sj) {
      for (const double c_r : {1e2, 1.7e3, 1e4, 3.33e5, 0.0}) {
        EXPECT_EQ(kernel.vhs_sigma(si, sj, c_r),
                  vhs_cross_section(table[si], table[sj], c_r))
            << "pair (" << si << "," << sj << ") c_r=" << c_r;
      }
    }
  }
}

// Every majorant starts at 1e-15 and only grows, and every candidate carry
// stays in [0, 1): a checkpoint holding anything else is refused at load.
TEST(Collide, LoadRejectsStreamsARunCannotWrite) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e12, 6000.0);
  CollisionKernel kernel(grid, table, CollisionConfig{});
  std::ostringstream os;
  kernel.save(os);
  const std::string saved = os.str();
  const auto load = [&](const std::string& bytes) {
    std::istringstream in(bytes);
    kernel.load(in);
  };
  EXPECT_NO_THROW(load(saved));
  for (const double bad : {kNaN, kInf, -1.0})
    EXPECT_THROW(load(patched(saved, 0, 5, bad)), Error) << "majorant " << bad;
  for (const double bad : {kNaN, kInf, -1.0, 1.0})
    EXPECT_THROW(load(patched(saved, 1, 5, bad)), Error) << "carry " << bad;
}

// A finite majorant passes load's checks however large it is; the candidate
// count it implies must still be a typed error, not an out-of-range cast or
// a near-endless candidate loop.
TEST(Collide, CandidateCountPastInt64IsATypedError) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e12, 6000.0);
  CollisionKernel kernel(grid, table, CollisionConfig{});
  const std::int32_t cell = grid.locate({0, 0, 0.025}, 0);
  ASSERT_GE(cell, 0);
  ParticleStore store;
  for (int i = 0; i < 10; ++i) {
    ParticleRecord p;
    p.position = grid.centroid(cell);
    p.velocity = {1e3 * i, 0.0, 0.0};
    p.cell = cell;
    p.id = i;
    store.add(p);
  }
  std::ostringstream os;
  kernel.save(os);
  std::istringstream in(patched(os.str(), 0, static_cast<std::size_t>(cell),
                                1e300));
  kernel.load(in);
  const CellIndex index(store, grid.num_tets());
  const std::vector<std::int32_t> my_cells{cell};
  EXPECT_THROW(kernel.collide_cells(store, index, my_cells, 1e-5, 0), Error);
}

/// A dense H/H+ state in the first `ncells` cells: `per_cell` particles
/// each, one in five an ion, at a temperature where ~8 km/s pairs, and so
/// ionizations at a 0.15 eV threshold and charge exchanges, are common.
ParticleStore dense_two_species_state(const mesh::TetMesh& grid, int ncells,
                                      int per_cell) {
  ParticleStore store;
  Rng rng(0xc011deULL);
  std::int64_t id = 0;
  for (std::int32_t cell = 0; cell < ncells; ++cell) {
    for (int i = 0; i < per_cell; ++i) {
      ParticleRecord p;
      p.position = grid.centroid(cell);
      p.velocity = sample_maxwellian(rng, 1e5, constants::kHydrogenMass);
      p.species = i % 5 == 0 ? kSpeciesHPlus : kSpeciesH;
      p.cell = cell;
      p.id = id++;
      store.add(p);
    }
  }
  return store;
}

/// Every array of two stores, bit for bit.
bool same_arrays(const ParticleStore& a, const ParticleStore& b) {
  const auto same = [](auto x, auto y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
  };
  return same(a.px(), b.px()) && same(a.py(), b.py()) &&
         same(a.pz(), b.pz()) && same(a.vx(), b.vx()) &&
         same(a.vy(), b.vy()) && same(a.vz(), b.vz()) &&
         same(a.ids(), b.ids()) && same(a.species(), b.species()) &&
         same(a.cells(), b.cells());
}

// The sigma bound must leave every draw, decision and majorant bit of the
// exact candidate loop (tests/collide_reference.hpp) as it was: after each
// step the stores, the spawned ions, the saved majorants and carries and
// the stats are equal bit for bit, at every kernel lane count. The bound
// must also settle nearly every candidate, so a kernel that always falls
// back to vhs_sigma fails here rather than only running slower.
TEST(Collide, MatchesReferenceLoopBitForBit) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(6e10, 6e10);
  ChemistryConfig chem_cfg;
  chem_cfg.ionization_threshold = 0.15 * constants::kElementaryCharge;
  chem_cfg.ionization_probability = 0.02;
  constexpr int kCells = 40;
  constexpr double kDt = 1e-5;
  const ParticleStore initial = dense_two_species_state(grid, kCells, 150);
  std::vector<std::int32_t> my_cells(kCells);
  std::iota(my_cells.begin(), my_cells.end(), 0);
  const CollisionConfig cfg;

  for (const int lanes : {1, 2, 4}) {
    const support::KernelExec exec(lanes);
    Chemistry chemistry(table, chem_cfg);
    CollisionKernel kernel(grid, table, cfg, &chemistry);
    ParticleStore store = initial;
    ParticleStore ref_store = initial;
    reference::CollideState ref;
    {
      std::ostringstream os;
      kernel.save(os);
      std::istringstream in(os.str());
      ref.majorant = io::read_vec<double>(in);
      ref.carry = io::read_vec<double>(in);
    }
    CollisionStats total;
    for (int step = 0; step < 4; ++step) {
      const CellIndex index(store, grid.num_tets());
      const CellIndex ref_index(ref_store, grid.num_tets());
      const CollisionStats got =
          kernel.collide_cells(store, index, my_cells, kDt, step, &exec);
      const CollisionStats want =
          reference::collide_cells(kernel, grid, table, cfg.seed, &chemistry,
                                   ref, ref_store, ref_index, my_cells, kDt,
                                   step);
      const std::string at =
          std::to_string(lanes) + " lanes, step " + std::to_string(step);
      EXPECT_EQ(got.candidates, want.candidates) << at;
      EXPECT_EQ(got.collisions, want.collisions) << at;
      EXPECT_EQ(got.ionizations, want.ionizations) << at;
      EXPECT_EQ(got.charge_exchanges, want.charge_exchanges) << at;
      total += got;

      ASSERT_EQ(store.size(), ref_store.size()) << at;
      EXPECT_TRUE(same_arrays(store, ref_store)) << at;
      std::ostringstream got_state, want_state;
      kernel.save(got_state);
      io::write_vec(want_state, ref.majorant);
      io::write_vec(want_state, ref.carry);
      EXPECT_EQ(got_state.str(), want_state.str()) << at;
    }
    // The first step grows every majorant from its initial value, so it
    // has the fewest candidates and the most exact evaluations.
    EXPECT_GE(total.candidates, 300000) << lanes << " lanes";
    EXPECT_LT(100 * total.exact_sigmas, total.candidates) << lanes << " lanes";
    EXPECT_GT(total.exact_sigmas, 0) << lanes << " lanes";
    EXPECT_GT(total.ionizations, 0) << lanes << " lanes";
    EXPECT_GT(total.charge_exchanges, 0) << lanes << " lanes";
    EXPECT_EQ(store.size(), initial.size() + total.ionizations);
  }
}

// ntc_accepts against the exact three lines for one candidate, at |g|^2
// across and beyond the bound's range and at majorants and draws placed on
// both sides of sigma * c_r: within a few ulp (where only vhs_sigma can
// decide), around the bound's 2^-40 margin, and far off. The decision and
// the majorant's bits must agree every time; with omega = 0.7 there is no
// bound and every call evaluates vhs_sigma.
TEST(Collide, SigmaBoundDecidesLikeTheExactTest) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  SpeciesTable omega07;
  for (const double mass : {constants::kHydrogenMass, 4.0 * constants::kAmu}) {
    Species s;
    s.mass = mass;
    s.omega = 0.7;
    omega07.add(s);
  }
  // |g|^2: zero, subnormals, the smallest normal, NaN, +-inf, the edges of
  // the bound's range, and log-uniform over [1e-30, 1e30].
  std::vector<double> g2s = {0.0,
                             4.9e-324,
                             1e-310,
                             std::numeric_limits<double>::min(),
                             kNaN,
                             kInf,
                             -kInf,
                             1e-20,
                             1e20,
                             std::nextafter(1e-20, 0.0),
                             std::nextafter(1e20, kInf)};
  Rng rng(0x5197aULL);
  for (int i = 0; i < 400; ++i)
    g2s.push_back(std::pow(10.0, rng.uniform(-30.0, 30.0)));
  // Relative placements around sigma * c_r: k ulp for |k| <= 64, then
  // +-2^-e across the bound's 2^-40 margin, then far off.
  std::vector<double> offsets;
  for (int k = -64; k <= 64; ++k) offsets.push_back(k * 0x1p-52);
  for (int e = 30; e <= 50; ++e) {
    offsets.push_back(std::ldexp(1.0, -e));
    offsets.push_back(-std::ldexp(1.0, -e));
  }
  for (const double far : {-0.5, -1e-3, 1e-3, 1.0, 1e10})
    offsets.push_back(far);

  // Counts the calls and how many of them the bound settled.
  std::int64_t calls = 0, bounded = 0;
  const auto check = [&](const SpeciesTable& table) {
    const CollisionKernel kernel(grid, table, CollisionConfig{});
    calls = bounded = 0;
    for (std::int32_t si = 0; si < table.size(); ++si) {
      for (std::int32_t sj = 0; sj < table.size(); ++sj) {
        for (const double g2 : g2s) {
          const double c_r = std::sqrt(g2);
          const double sigma_cr = kernel.vhs_sigma(si, sj, c_r) * c_r;
          std::vector<std::pair<double, double>> cases;  // (u, majorant)
          if (std::isfinite(sigma_cr) && sigma_cr > 0.0) {
            for (const double off : offsets) {
              const double at = sigma_cr * (1.0 + off);
              for (const double u : {0.0, 0x1p-53, 0.3, 0.999})
                cases.emplace_back(u, at);  // the majorant at the offset
              cases.emplace_back(0.5, 2.0 * at);  // u * majorant there
              cases.emplace_back(0.75, at / 0.75);
            }
          } else {
            for (const double m : {1e-15, 3.6e-15, 1.0})
              for (const double u : {0.0, 0.3, 0.999}) cases.emplace_back(u, m);
          }
          for (const auto& [u, majorant] : cases) {
            double got_majorant = majorant, want_majorant = majorant;
            CollisionStats st;
            const bool got =
                kernel.ntc_accepts(si, sj, g2, u, got_majorant, st);
            const bool want = reference::exact_accepts(kernel, si, sj, g2, u,
                                                       want_majorant);
            ++calls;
            bounded += 1 - st.exact_sigmas;
            const auto at = [&] {
              std::ostringstream os;
              os << "pair (" << si << "," << sj << ") g2 " << g2 << " u "
                 << u << " majorant " << majorant;
              return os.str();
            };
            ASSERT_EQ(got, want) << at();
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got_majorant),
                      std::bit_cast<std::uint64_t>(want_majorant))
                << at();
          }
        }
      }
    }
  };

  check(SpeciesTable::hydrogen(1e12, 6000.0));
  // The bound settles the far placements and leaves the near ones.
  EXPECT_GT(bounded, calls / 20);
  EXPECT_LT(bounded, calls);
  check(omega07);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(bounded, 0);
}

TEST(CellIndex, RebuildMatchesFreshBuildAndReusesStorage) {
  ParticleStore store;
  Rng rng(0xce11ULL);
  const std::int32_t num_cells = 13;
  for (int i = 0; i < 200; ++i) {
    ParticleRecord p;
    p.id = i;
    p.cell = static_cast<std::int32_t>(rng.uniform_index(num_cells));
    store.add(p);
  }
  CellIndex reused;
  reused.rebuild(store, num_cells);
  {
    const CellIndex fresh(store, num_cells);
    for (std::int32_t c = 0; c < num_cells; ++c) {
      const auto a = fresh.particles_in(c);
      const auto b = reused.particles_in(c);
      ASSERT_EQ(a.size(), b.size()) << "cell " << c;
      for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
    }
  }
  // Mutate the population and rebuild in place: still equal to scratch.
  for (int i = 0; i < 57; ++i) {
    ParticleRecord p;
    p.id = 1000 + i;
    p.cell = static_cast<std::int32_t>(rng.uniform_index(num_cells));
    store.add(p);
  }
  reused.rebuild(store, num_cells);
  const CellIndex fresh(store, num_cells);
  EXPECT_EQ(reused.num_cells(), num_cells);
  for (std::int32_t c = 0; c < num_cells; ++c) {
    const auto a = fresh.particles_in(c);
    const auto b = reused.particles_in(c);
    ASSERT_EQ(a.size(), b.size()) << "cell " << c;
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
}

TEST(Chemistry, IonizationSpawnsIonAboveThreshold) {
  const SpeciesTable table = SpeciesTable::hydrogen(1e12, 6000.0);
  ChemistryConfig cfg;
  cfg.ionization_threshold = 1e-21;
  cfg.ionization_probability = 1.0;
  Chemistry chem(table, cfg);
  ParticleStore store;
  for (int i = 0; i < 2; ++i) {
    ParticleRecord p;
    p.species = kSpeciesH;
    p.cell = 0;
    p.id = i;
    p.velocity = {0, 0, (i == 0) ? 1e4 : -1e4};
    store.add(p);
  }
  Rng rng(5);
  std::vector<ParticleRecord> spawned;
  EXPECT_TRUE(chem.try_ionization(rng, store, 0, 1, 1e-20, spawned));
  ASSERT_EQ(spawned.size(), 1u);
  store.add(spawned[0]);
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store.species()[2], kSpeciesHPlus);
  // Below threshold: nothing happens.
  spawned.clear();
  EXPECT_FALSE(chem.try_ionization(rng, store, 0, 1, 1e-22, spawned));
  EXPECT_TRUE(spawned.empty());
}

TEST(Chemistry, RecombinationRemovesIons) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e12, 1e10);
  ChemistryConfig cfg;
  cfg.recombination_rate = 1.0;  // enormous: every ion recombines
  Chemistry chem(table, cfg);
  ParticleStore store;
  const std::int32_t cell = grid.locate({0, 0, 0.02}, 0);
  for (int i = 0; i < 50; ++i) {
    ParticleRecord p;
    p.species = kSpeciesHPlus;
    p.cell = cell;
    p.id = i;
    store.add(p);
  }
  std::vector<std::uint8_t> removed(store.size(), 0);
  const CellIndex index(store, grid.num_tets());
  const std::vector<std::int32_t> my_cells{cell};
  const ChemistryStats st =
      chem.recombine(store, index, my_cells, grid, 1e-3, 0, removed);
  EXPECT_EQ(st.recombinations, 50);
  // Every ion either removed or converted to H (weight lottery at 1%).
  for (std::size_t i = 0; i < store.size(); ++i)
    EXPECT_TRUE(removed[i] || store.species()[i] == kSpeciesH);
}

TEST(Chemistry, RecombineRejectsShortRemovedSpan) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e12, 1e10);
  ChemistryConfig cfg;
  cfg.recombination_rate = 1.0;
  Chemistry chem(table, cfg);
  ParticleStore store;
  for (int i = 0; i < 5; ++i) {
    ParticleRecord p;
    p.species = kSpeciesHPlus;
    p.cell = 0;
    p.id = i;
    store.add(p);
  }
  std::vector<std::uint8_t> removed(store.size() - 1, 0);
  const CellIndex index(store, grid.num_tets());
  const std::vector<std::int32_t> my_cells{0};
  EXPECT_THROW(chem.recombine(store, index, my_cells, grid, 1e-3, 0, removed),
               Error);
}

TEST(Chemistry, ChargeExchangeSwapsIonVelocity) {
  const SpeciesTable table = SpeciesTable::hydrogen(1e12, 6000.0);
  ChemistryConfig cfg;
  cfg.cex_probability = 1.0;
  Chemistry chem(table, cfg);
  ParticleStore store;
  ParticleRecord ion;
  ion.species = kSpeciesHPlus;
  ion.velocity = {3e4, 0, 0};  // fast ion
  store.add(ion);
  ParticleRecord neutral;
  neutral.species = kSpeciesH;
  neutral.velocity = {0, 0, 2e3};  // slow neutral
  store.add(neutral);
  Rng rng(4);
  // Argument order must not matter.
  EXPECT_TRUE(chem.try_charge_exchange(rng, store, 1, 0));
  // The ion super-particle adopted the (slow) neutral velocity.
  EXPECT_EQ(store.velocity(0), Vec3(0, 0, 2e3));
  // Species identities unchanged (weight-consistent CEX).
  EXPECT_EQ(store.species()[0], kSpeciesHPlus);
  EXPECT_EQ(store.species()[1], kSpeciesH);
}

TEST(Chemistry, ChargeExchangeNeedsMixedPair) {
  const SpeciesTable table = SpeciesTable::hydrogen(1e12, 6000.0);
  ChemistryConfig cfg;
  cfg.cex_probability = 1.0;
  Chemistry chem(table, cfg);
  ParticleStore store;
  for (int i = 0; i < 2; ++i) {
    ParticleRecord p;
    p.species = kSpeciesH;
    store.add(p);
  }
  Rng rng(4);
  EXPECT_FALSE(chem.try_charge_exchange(rng, store, 0, 1));
}

TEST(Sampler, DensityMatchesPlacedParticles) {
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(test_spec());
  const SpeciesTable table = SpeciesTable::hydrogen(1e10, 100.0);
  CellSampler sampler(grid, table);
  ParticleStore store;
  const std::int32_t cell = grid.locate({0, 0, 0.02}, 0);
  for (int i = 0; i < 30; ++i) {
    ParticleRecord p;
    p.species = kSpeciesH;
    p.cell = cell;
    store.add(p);
  }
  sampler.sample(store);
  sampler.sample(store);  // two identical snapshots
  const auto density = sampler.number_density(kSpeciesH);
  EXPECT_NEAR(density[cell], 30.0 * 1e10 / grid.volume(cell),
              1e-6 * density[cell]);
  // Other cells empty.
  EXPECT_DOUBLE_EQ(density[(cell + 1) % grid.num_tets()], 0.0);
}

TEST(Sampler, AxisProfileReadsCells) {
  const mesh::NozzleSpec spec = test_spec();
  const mesh::TetMesh grid = mesh::make_cylinder_nozzle(spec);
  std::vector<double> field(grid.num_tets());
  for (std::int32_t t = 0; t < grid.num_tets(); ++t)
    field[t] = grid.centroid(t).z;  // field = z coordinate
  const auto prof = axis_profile(grid, field, spec.length, 10);
  ASSERT_EQ(prof.size(), 10u);
  for (int k = 1; k < 10; ++k) EXPECT_GT(prof[k], prof[k - 1] - 0.006);
  EXPECT_LT(prof[0], prof[9]);
}

}  // namespace
}  // namespace dsmcpic::dsmc
