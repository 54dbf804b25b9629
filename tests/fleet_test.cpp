// The fleet-service acceptance suite (DESIGN.md §2j).
//
// Fleet.* proves the three load-bearing properties of the runner:
//   (a) a 4-slot fleet of 8 runs produces per-run digests bit-identical to
//       the same runs executed serially (run_scenario_digest),
//   (b) preempt/resume round-trips bit-identically through the checkpoint —
//       a run parked mid-flight and resumed in a FRESH FleetRunner lands on
//       the same golden digest AND the same run_report.json bytes as an
//       uninterrupted run,
//   (c) results are independent of slot count, lease length, and completion
//       order.
// GoldenCorpus.* pins the canonical digest of every corpus scenario; the
// "nozzle" value is the original golden_test kGoldenDcBalanced constant,
// proving the fleet path hashes the exact same byte stream. SharedPoisson.*
// pins one Poisson system per geometry and boundary values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dsmc/injector.hpp"
#include "fleet/runner.hpp"
#include "mesh/nozzle.hpp"
#include "support/error.hpp"

namespace dsmcpic::fleet {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Scenario corpus

TEST(Fleet, CorpusHasNozzlePlusThreeScenarios) {
  ScenarioCorpus corpus;
  ASSERT_EQ(corpus.all().size(), 4u);
  for (const char* name : {"nozzle", "reentry", "twin-plume", "pulsed-inlet"}) {
    const Scenario* sc = corpus.find(name);
    ASSERT_NE(sc, nullptr) << name;
    EXPECT_EQ(sc->name, name);
    EXPECT_FALSE(sc->description.empty());
    EXPECT_EQ(sc->default_ranks, 6);
    EXPECT_EQ(sc->default_steps, 8);
  }
  EXPECT_EQ(corpus.find("bogus"), nullptr);
}

TEST(Fleet, ByNameThrowsListingTheCorpus) {
  ScenarioCorpus corpus;
  try {
    corpus.by_name("bogus");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nozzle"), std::string::npos) << msg;
  }
}

// The twin-plume scenario really produces two disjoint inlet discs: inlet
// faces on both the +x and -x half of the z=0 plane, and none astride the
// axis (the single-nozzle case is one centered disc).
TEST(Fleet, TwinPlumeHasTwoInletClusters) {
  ScenarioCorpus corpus;
  const mesh::NozzleSpec& spec = corpus.by_name("twin-plume").config.nozzle;
  ASSERT_EQ(spec.inlet_count, 2);
  const mesh::TetMesh m = mesh::make_cylinder_nozzle(spec);
  int pos = 0, neg = 0;
  for (const mesh::BoundaryFace& bf :
       m.boundary_faces(mesh::BoundaryKind::kInlet)) {
    const auto fn = m.face_nodes(bf.tet, bf.face);
    double cx = 0.0;
    for (const std::int32_t n : fn) cx += m.nodes()[n].x;
    (cx > 0.0 ? pos : neg)++;
  }
  EXPECT_GT(pos, 0);
  EXPECT_GT(neg, 0);

  // Single-inlet spec of the same lattice keeps one centered cluster.
  mesh::NozzleSpec single = spec;
  single.inlet_count = 1;
  const mesh::TetMesh m1 = mesh::make_cylinder_nozzle(single);
  EXPECT_FALSE(m1.boundary_faces(mesh::BoundaryKind::kInlet).empty());
}

TEST(Fleet, PulsedInletModulation) {
  ScenarioCorpus corpus;
  const core::SolverConfig& cfg = corpus.by_name("pulsed-inlet").config;
  ASSERT_GT(cfg.inject_pulse_amplitude, 0.0);
  ASSERT_GT(cfg.inject_pulse_period, 0);

  dsmc::InjectionSpec spec;
  spec.pulse_amplitude = cfg.inject_pulse_amplitude;
  spec.pulse_period = cfg.inject_pulse_period;
  EXPECT_DOUBLE_EQ(spec.inflow_modulation(0), 1.0);  // sin(0) = 0
  // Modulation actually varies over a period and never goes negative.
  double lo = 10.0, hi = -10.0;
  for (int s = 0; s < spec.pulse_period; ++s) {
    const double m = spec.inflow_modulation(s);
    EXPECT_GE(m, 0.0);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_LT(lo, 1.0);
  EXPECT_GT(hi, 1.0);

  // Disabled pulse is the identity at every step (golden safety).
  dsmc::InjectionSpec off;
  for (int s = 0; s < 16; ++s) EXPECT_EQ(off.inflow_modulation(s), 1.0);
}

// ---------------------------------------------------------------------------
// Shared assets

TEST(Fleet, SharedAssetsCacheIdentityAndStats) {
  SharedAssets assets;
  ScenarioCorpus corpus;
  const auto a = assets.geometry(corpus.by_name("nozzle").config.nozzle);
  const auto b = assets.geometry(corpus.by_name("nozzle").config.nozzle);
  EXPECT_EQ(a.get(), b.get());  // same immutable object, not a rebuild
  const auto c = assets.geometry(corpus.by_name("reentry").config.nozzle);
  EXPECT_NE(a.get(), c.get());
  SharedAssets::Stats st = assets.stats();
  EXPECT_EQ(st.geometry_hits, 1);
  EXPECT_EQ(st.geometry_misses, 2);

  (void)assets.machine("tianhe2");
  (void)assets.machine("tianhe2");
  st = assets.stats();
  EXPECT_EQ(st.machine_hits, 1);
  EXPECT_EQ(st.machine_misses, 1);
  EXPECT_THROW(assets.machine("cray"), Error);
}

// ---------------------------------------------------------------------------
// One Poisson system per geometry and boundary values (CaseGeometry::poisson)

TEST(SharedPoisson, SolversOfOneGeometryAndBcsShareOneSystem) {
  ScenarioCorpus corpus;
  const Scenario& sc = corpus.by_name("nozzle");
  const auto geom = core::CaseGeometry::build(sc.config.nozzle);
  core::CoupledSolver a(sc.config, canonical_parallel(4), geom);
  core::CoupledSolver b(sc.config, canonical_parallel(6), geom);
  EXPECT_EQ(&a.poisson_system(), &b.poisson_system());
  EXPECT_EQ(&a.poisson_system(), geom->poisson(sc.config.poisson_bcs).get());
}

// Other boundary values on the same geometry get their own system, which
// runs exactly as one the solver's private geometry assembles.
TEST(SharedPoisson, OtherBcsGetTheirOwnSystem) {
  ScenarioCorpus corpus;
  const Scenario& sc = corpus.by_name("nozzle");
  Scenario other = sc;
  other.config.poisson_bcs.phi_inlet += 40.0;
  const auto geom = core::CaseGeometry::build(sc.config.nozzle);
  const std::uint64_t base = run_scenario_digest(sc, 6, 4, 7, geom);
  const std::uint64_t shared = run_scenario_digest(other, 6, 4, 7, geom);
  EXPECT_NE(geom->poisson(other.config.poisson_bcs).get(),
            geom->poisson(sc.config.poisson_bcs).get());
  EXPECT_EQ(shared, run_scenario_digest(other, 6, 4, 7, nullptr));
  EXPECT_NE(shared, base) << "the boundary values never reached the run";
}

// Slots of a fleet request a geometry's system concurrently: the first
// requests, all at once, assemble one object and every caller gets it.
TEST(SharedPoisson, ConcurrentFirstRequestsAssembleOnce) {
  ScenarioCorpus corpus;
  const Scenario& sc = corpus.by_name("twin-plume");
  const auto geom = core::CaseGeometry::build(sc.config.nozzle);
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const pic::PoissonSystem>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = geom->poisson(sc.config.poisson_bcs);
    });
  for (std::thread& th : threads) th.join();
  ASSERT_NE(got[0], nullptr);
  for (const auto& sys : got) EXPECT_EQ(sys.get(), got[0].get());
  EXPECT_EQ(geom->poisson(sc.config.poisson_bcs).get(), got[0].get());
}

// ---------------------------------------------------------------------------
// (a) fleet == serial

TEST(Fleet, FourSlotFleetMatchesSerialDigests) {
  FleetOptions fo;
  fo.slots = 4;
  FleetRunner runner(fo);
  std::vector<FleetJob> jobs;
  for (int i = 0; i < 8; ++i) {
    FleetJob j;
    j.scenario = runner.corpus().all()[static_cast<std::size_t>(i) % 4].name;
    j.seed = 42 + static_cast<std::uint64_t>(i / 4);  // two seeds/scenario
    jobs.push_back(j);
    const std::string id = runner.add(j);
    EXPECT_EQ(id.substr(0, 3), "run");
    EXPECT_NE(id.find(j.scenario), std::string::npos);
  }
  const std::vector<FleetRunResult> results = runner.run_all();
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Scenario& sc = runner.corpus().by_name(jobs[i].scenario);
    const std::uint64_t serial = run_scenario_digest(
        sc, sc.default_steps, sc.default_ranks, jobs[i].seed);
    EXPECT_EQ(results[i].digest, serial) << results[i].run_id;
    EXPECT_EQ(results[i].state, RunState::kDone);
    EXPECT_EQ(results[i].steps_done, sc.default_steps);
    EXPECT_EQ(results[i].leases, 1);
    EXPECT_GT(results[i].final_particles, 0);
  }
  const FleetStats& st = runner.stats();
  EXPECT_EQ(st.runs_total, 8);
  EXPECT_EQ(st.runs_done, 8);
  EXPECT_EQ(st.runs_parked, 0);
  // 8 runs over 4 scenarios through one registry — but pulsed-inlet shares
  // the nozzle's NozzleSpec (the pulse lives in SolverConfig, not the
  // geometry), so only 3 unique meshes get built: 3 misses, 5 hits.
  EXPECT_EQ(st.cache.geometry_misses, 3);
  EXPECT_EQ(st.cache.geometry_hits, 5);
  EXPECT_GT(st.slot_utilization, 0.0);
}

// ---------------------------------------------------------------------------
// (c) slot-count / lease-length / completion-order independence

TEST(Fleet, DigestsIndependentOfSlotsAndLeases) {
  const auto run_fleet = [](int slots, int lease, const std::string& dir) {
    FleetOptions fo;
    fo.slots = slots;
    fo.lease_steps = lease;
    fo.results_dir = dir;
    FleetRunner runner(fo);
    for (int i = 0; i < 6; ++i) {
      FleetJob j;
      j.scenario =
          runner.corpus().all()[static_cast<std::size_t>(i) % 3].name;
      j.seed = 50 + static_cast<std::uint64_t>(i);
      runner.add(j);
    }
    return runner.run_all();
  };
  const auto serial = run_fleet(1, 0, "");
  const auto wide = run_fleet(3, 0, "");
  const auto sliced = run_fleet(2, 3, temp_dir("fleet_test_lease"));
  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(wide.size(), 6u);
  ASSERT_EQ(sliced.size(), 6u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].run_id, wide[i].run_id);
    EXPECT_EQ(serial[i].digest, wide[i].digest) << serial[i].run_id;
    EXPECT_EQ(serial[i].digest, sliced[i].digest) << serial[i].run_id;
    EXPECT_EQ(serial[i].leases, 1);
    // 8 default steps in 3-step leases: 3 + 3 + 2.
    EXPECT_EQ(sliced[i].leases, 3);
    EXPECT_EQ(sliced[i].state, RunState::kDone);
  }
}

// ---------------------------------------------------------------------------
// (b) preempt/resume through the checkpoint

TEST(Fleet, PreemptResumeBitIdenticalThroughCheckpointV4) {
  const std::string base = temp_dir("fleet_test_preempt");

  // Uninterrupted reference run.
  std::uint64_t ref_digest = 0;
  std::string ref_dir;
  {
    FleetOptions fo;
    fo.slots = 1;
    fo.results_dir = base + "/ref";
    FleetRunner runner(fo);
    FleetJob j;
    j.scenario = "reentry";
    j.seed = 7;
    ref_dir = fo.results_dir + "/" + runner.add(j);
    const auto r = runner.run_all();
    ASSERT_EQ(r[0].state, RunState::kDone);
    ref_digest = r[0].digest;
  }

  // Park the same job at step 3 — slot freed, run left on disk.
  std::string parked_dir;
  {
    FleetOptions fo;
    fo.slots = 2;
    fo.results_dir = base + "/parked";
    FleetRunner runner(fo);
    FleetJob j;
    j.scenario = "reentry";
    j.seed = 7;
    j.park_at = 3;
    parked_dir = fo.results_dir + "/" + runner.add(j);
    const auto r = runner.run_all();
    ASSERT_EQ(r[0].state, RunState::kParked);
    EXPECT_EQ(r[0].steps_done, 3);
    EXPECT_EQ(runner.stats().runs_parked, 1);
    EXPECT_TRUE(fs::exists(parked_dir + "/checkpoint.bin"));
    EXPECT_TRUE(fs::exists(parked_dir + "/lease.bin"));
    EXPECT_FALSE(fs::exists(parked_dir + "/run_report.json"));
  }

  // A FRESH runner (fresh SharedAssets, fresh process state) resumes it.
  {
    FleetOptions fo;
    fo.slots = 2;
    fo.results_dir = base + "/other";
    FleetRunner runner(fo);
    const std::string id = runner.add_resume(parked_dir);
    EXPECT_EQ(id, "run000-reentry");
    const auto r = runner.run_all();
    ASSERT_EQ(r[0].state, RunState::kDone);
    EXPECT_EQ(r[0].digest, ref_digest);
    EXPECT_EQ(r[0].steps_done, 8);
    EXPECT_EQ(r[0].leases, 2);
  }

  // Physics outputs are bit-identical files, and the park-time sidecars are
  // cleaned up on completion.
  EXPECT_EQ(slurp(parked_dir + "/run_report.json"),
            slurp(ref_dir + "/run_report.json"));
  EXPECT_EQ(slurp(parked_dir + "/digest.txt"), slurp(ref_dir + "/digest.txt"));
  EXPECT_FALSE(fs::exists(parked_dir + "/checkpoint.bin"));
  EXPECT_FALSE(fs::exists(parked_dir + "/lease.bin"));
}

// A corrupt length prefix in lease.bin is a typed error: the reader must not
// size a string from it, so a 2^62 prefix is no std::length_error.
TEST(Fleet, ResumeRejectsOversizedLeasePrefix) {
  const std::string base = temp_dir("fleet_test_lease_prefix");
  std::string parked_dir;
  {
    FleetOptions fo;
    fo.slots = 1;
    fo.results_dir = base + "/parked";
    FleetRunner runner(fo);
    FleetJob j;
    j.scenario = "reentry";
    j.seed = 7;
    j.park_at = 1;
    parked_dir = fo.results_dir + "/" + runner.add(j);
    ASSERT_EQ(runner.run_all()[0].state, RunState::kParked);
  }
  {
    // The file opens with the schema string's 64-bit length prefix.
    std::fstream f(parked_dir + "/lease.bin",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const std::uint64_t huge = std::uint64_t{1} << 62;
    f.write(reinterpret_cast<const char*>(&huge), sizeof huge);
    ASSERT_TRUE(f.good());
  }
  FleetOptions fo;
  fo.slots = 1;
  fo.results_dir = base + "/other";
  FleetRunner runner(fo);
  EXPECT_THROW(runner.add_resume(parked_dir), Error);
  fs::remove_all(base);
}

// The lease's counts are int64 on disk and int in the runner: a count that
// does not fit, or that names no unfinished run, is a typed error — not a
// resume at the wrong step, a run reported done early, or a wrong tally.
TEST(Fleet, ResumeRejectsOutOfRangeLeaseFields) {
  const std::string base = temp_dir("fleet_test_lease_fields");
  std::string parked_dir;
  {
    FleetOptions fo;
    fo.slots = 1;
    fo.results_dir = base + "/parked";
    FleetRunner runner(fo);
    FleetJob j;
    j.scenario = "reentry";
    j.seed = 7;
    j.park_at = 1;
    parked_dir = fo.results_dir + "/" + runner.add(j);
    ASSERT_EQ(runner.run_all()[0].state, RunState::kParked);
  }
  const std::string lease = parked_dir + "/lease.bin";
  const std::string saved = slurp(lease);
  const auto i64_at = [&saved](std::size_t at) {
    std::int64_t v;
    std::memcpy(&v, saved.data() + at, sizeof v);
    return v;
  };
  // Three length-prefixed strings (schema, run id, scenario) and the seed
  // come before ranks, steps_total, steps_done and leases.
  std::size_t at = 0;
  for (int s = 0; s < 3; ++s) at += 8 + static_cast<std::size_t>(i64_at(at));
  at += 8;
  const std::size_t ranks = at, steps_total = at + 8, steps_done = at + 16,
                    leases = at + 24;
  ASSERT_EQ(i64_at(ranks), 6);
  ASSERT_EQ(i64_at(steps_total), 8);
  ASSERT_EQ(i64_at(steps_done), 1);
  ASSERT_EQ(i64_at(leases), 1);

  const auto resume_with = [&](std::size_t field, std::int64_t value) {
    std::string patched = saved;
    std::memcpy(patched.data() + field, &value, sizeof value);
    {
      std::ofstream os(lease, std::ios::binary | std::ios::trunc);
      os.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    FleetOptions fo;
    fo.slots = 1;
    fo.results_dir = base + "/other";
    FleetRunner runner(fo);
    runner.add_resume(parked_dir);
  };
  EXPECT_NO_THROW(resume_with(steps_done, 1));  // the saved value
  for (const std::int64_t bad : {std::int64_t{13}, std::int64_t{-3},
                                 std::int64_t{0}, std::int64_t{8}})
    EXPECT_THROW(resume_with(steps_done, bad), Error) << "steps_done " << bad;
  EXPECT_THROW(resume_with(steps_total, 0), Error);
  EXPECT_THROW(resume_with(ranks, 6 + (std::int64_t{1} << 32)), Error);
  EXPECT_THROW(resume_with(ranks, 0), Error);
  EXPECT_THROW(resume_with(leases, -7), Error);
  fs::remove_all(base);
}

// ---------------------------------------------------------------------------
// GoldenCorpus: one pinned canonical digest per scenario (canonical_parallel,
// default steps/ranks, seed 42). On an intentional physics change, update
// the constant from the failure message — same protocol as golden_test.

std::uint64_t canonical_digest(const std::string& name) {
  ScenarioCorpus corpus;
  const Scenario& sc = corpus.by_name(name);
  return run_scenario_digest(sc, sc.default_steps, sc.default_ranks, 42);
}

testing::AssertionResult digest_matches(std::uint64_t got,
                                        std::uint64_t want) {
  if (got == want) return testing::AssertionSuccess();
  char buf[80];
  std::snprintf(buf, sizeof buf,
                "digest mismatch: got 0x%016llx, want 0x%016llx",
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
  return testing::AssertionFailure() << buf;
}

// == golden_test's kGoldenDcBalanced: the corpus' canonical nozzle run IS
// the original golden case, hashed through the fleet's streaming digest.
constexpr std::uint64_t kGoldenNozzle = 0xef94e5e11bc00cc4ULL;
constexpr std::uint64_t kGoldenReentry = 0x0a23d41eecefb929ULL;
constexpr std::uint64_t kGoldenTwinPlume = 0xe5deac962a12bc51ULL;
constexpr std::uint64_t kGoldenPulsedInlet = 0x65d9dfa0dfda9f5eULL;

TEST(GoldenCorpus, Nozzle) {
  EXPECT_TRUE(digest_matches(canonical_digest("nozzle"), kGoldenNozzle));
}

TEST(GoldenCorpus, Reentry) {
  EXPECT_TRUE(digest_matches(canonical_digest("reentry"), kGoldenReentry));
}

TEST(GoldenCorpus, TwinPlume) {
  EXPECT_TRUE(
      digest_matches(canonical_digest("twin-plume"), kGoldenTwinPlume));
}

TEST(GoldenCorpus, PulsedInlet) {
  EXPECT_TRUE(
      digest_matches(canonical_digest("pulsed-inlet"), kGoldenPulsedInlet));
}

}  // namespace
}  // namespace dsmcpic::fleet
