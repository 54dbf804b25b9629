// Tests for the observability subsystem (DESIGN.md §2f): the JsonWriter
// underneath run reports, the host wall-clock profiler, the health
// auditor's unit-level invariant checks, and — most importantly — the
// end-to-end claims: a fault-injected solver run flags EXACTLY the
// invariant the fault breaks, and attaching auditor + profiler perturbs
// nothing (bit-identical diagnostics and virtual clocks, audits on or
// off, across exec modes and kernel-thread counts).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "obs/health_auditor.hpp"
#include "obs/host_profiler.hpp"
#include "obs/run_report.hpp"
#include "support/error.hpp"
#include "trace/json_writer.hpp"

namespace dsmcpic::core {
namespace {

// ---- JsonWriter -------------------------------------------------------------

TEST(JsonWriter, NestedDocumentHasExpectedBytes) {
  std::ostringstream os;
  {
    trace::JsonWriter w(os);
    w.begin_object();
    w.kv("name", "run");
    w.kv("steps", 8);
    w.key("phases");
    w.begin_array();
    w.begin_object();
    w.kv("phase", "Inject");
    w.kv("busy", 1.5);
    w.end_object();
    w.value(std::int64_t{7});
    w.end_array();
    w.key("empty");
    w.begin_object();
    w.end_object();
    w.kv("ok", true);
    w.end_object();
  }
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"run\",\n"
            "  \"steps\": 8,\n"
            "  \"phases\": [\n"
            "    {\n"
            "      \"phase\": \"Inject\",\n"
            "      \"busy\": 1.5\n"
            "    },\n"
            "    7\n"
            "  ],\n"
            "  \"empty\": {},\n"
            "  \"ok\": true\n"
            "}\n");
}

TEST(JsonWriter, EscapesStringsAndControlChars) {
  std::ostringstream os;
  {
    trace::JsonWriter w(os);
    w.begin_object();
    w.kv("k", "a\"b\\c\n\t");
    w.kv("ctl", std::string_view("\x01", 1));
    w.end_object();
  }
  EXPECT_NE(os.str().find("\"a\\\"b\\\\c\\n\\t\""), std::string::npos);
  EXPECT_NE(os.str().find("\"\\u0001\""), std::string::npos);
}

TEST(JsonWriter, IdenticalInputsProduceIdenticalBytes) {
  const auto build = [] {
    std::ostringstream os;
    trace::JsonWriter w(os);
    w.begin_object();
    w.kv("pi", 3.14159);
    w.kv("n", std::uint64_t{42});
    w.end_object();
    return os.str();
  };
  EXPECT_EQ(build(), build());
}

TEST(JsonWriter, DestructorClosesOpenScopesAndDanglingKey) {
  std::ostringstream os;
  {
    trace::JsonWriter w(os);
    w.begin_object();
    w.key("outer");
    w.begin_array();
    w.value(std::int64_t{1});
    w.end_array();
    w.key("dangling");
    // destructor: null for the dangling key, then closes the object
  }
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"outer\": [\n"
            "    1\n"
            "  ],\n"
            "  \"dangling\": null\n"
            "}\n");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream os;
  trace::JsonWriter w(os);
  w.begin_object();
  EXPECT_THROW(w.value(std::int64_t{1}), Error);  // object value without key
  EXPECT_THROW(w.end_array(), Error);             // not in an array
}

// ---- HostProfiler -----------------------------------------------------------

TEST(HostProfiler, AggregatesWithNearestRankPercentiles) {
  obs::HostProfiler prof;
  for (const double ms : {1.0, 2.0, 3.0, 4.0}) prof.record("move", ms);
  const auto stats = prof.stats();
  ASSERT_EQ(stats.count("move"), 1u);
  const auto& s = stats.at("move");
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.total_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.p50_ms, 2.0);  // nearest rank: ceil(0.5 * 4) - 1
  EXPECT_DOUBLE_EQ(s.p95_ms, 4.0);  // ceil(0.95 * 4) - 1
  EXPECT_DOUBLE_EQ(s.max_ms, 4.0);
  EXPECT_EQ(prof.sample_count(), 4);
  prof.reset();
  EXPECT_EQ(prof.sample_count(), 0);
}

TEST(HostProfiler, ScopesBuildHierarchicalNames) {
  obs::HostProfiler prof;
  {
    const obs::HostProfiler::Scope outer(&prof, "rebalance");
    const obs::HostProfiler::Scope inner(&prof, "exchange");
  }
  {
    const obs::HostProfiler::Scope top(&prof, "exchange");
  }
  const auto stats = prof.stats();
  EXPECT_EQ(stats.count("rebalance"), 1u);
  EXPECT_EQ(stats.count("rebalance/exchange"), 1u);
  EXPECT_EQ(stats.count("exchange"), 1u);
  EXPECT_EQ(prof.sample_count(), 3);
}

TEST(HostProfiler, NullProfilerScopeIsANoOp) {
  const obs::HostProfiler::Scope scope(nullptr, "anything");  // must not crash
}

TEST(HostProfiler, ConcurrentScopesStayPerThread) {
  obs::HostProfiler prof;
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&prof] {
      for (int i = 0; i < kIters; ++i) {
        const obs::HostProfiler::Scope outer(&prof, "outer");
        const obs::HostProfiler::Scope inner(&prof, "inner");
      }
    });
  for (auto& th : threads) th.join();
  const auto stats = prof.stats();
  // If the nesting stack were shared across threads, some samples would
  // land under mixed paths like "outer/outer/inner".
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at("outer").count, kThreads * kIters);
  EXPECT_EQ(stats.at("outer/inner").count, kThreads * kIters);
}

// ---- HealthAuditor: unit level ----------------------------------------------

TEST(HealthAuditor, SeverityAndInvariantNamesRoundTrip) {
  EXPECT_EQ(obs::parse_audit_severity("warn"), obs::AuditSeverity::kWarnOnly);
  EXPECT_EQ(obs::parse_audit_severity("abort"), obs::AuditSeverity::kAbort);
  EXPECT_EQ(obs::parse_audit_severity("count"), obs::AuditSeverity::kCountOnly);
  EXPECT_THROW(obs::parse_audit_severity("loud"), Error);
  EXPECT_STREQ(obs::invariant_name(obs::Invariant::kParticleBooks),
               "particle_books");
  EXPECT_STREQ(obs::invariant_name(obs::Invariant::kMailboxDrained),
               "mailbox_drained");
}

TEST(HealthAuditor, CleanStepLedgerBalances) {
  obs::HealthAuditor a({obs::AuditSeverity::kAbort});
  a.begin_step(0, 100);
  a.on_injected(5);
  a.on_spawned(2);
  a.on_flagged(3);
  a.check_exchange("dsmc", 107, 3, 104);
  a.end_step(104, 0);
  EXPECT_GT(a.report().checks(), 0);
  EXPECT_EQ(a.report().violations(), 0);
}

TEST(HealthAuditor, CountSeverityTalliesFirstViolation) {
  obs::HealthAuditor a({obs::AuditSeverity::kCountOnly});
  a.begin_step(3, 10);
  a.check_exchange("dsmc", 10, 1, 10);  // dropped 1 but count unchanged
  const obs::AuditReport& r = a.report();
  EXPECT_EQ(r.by_invariant[static_cast<int>(
                               obs::Invariant::kExchangeConservation)]
                .violations,
            1);
  EXPECT_EQ(r.first_violation_step, 3);
  EXPECT_NE(r.first_violation.find("exchange_conservation"),
            std::string::npos);
}

TEST(HealthAuditor, AbortSeverityThrows) {
  obs::HealthAuditor a({obs::AuditSeverity::kAbort});
  a.begin_step(0, 10);
  EXPECT_THROW(a.check_charge(1.0, 2.0), Error);
}

TEST(HealthAuditor, WarnSeverityLogsThroughAuditComponent) {
  obs::HealthAuditor a({obs::AuditSeverity::kWarnOnly});
  a.begin_step(0, 10);
  testing::internal::CaptureStderr();
  a.end_step(10, /*undelivered_messages=*/2);  // no throw
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err,
            "[audit] step 0: mailbox_drained violated: 2 undelivered "
            "message(s) in the runtime\n");
  EXPECT_EQ(a.report().violations(), 1);
}

TEST(HealthAuditor, ChargeBalanceUsesRelativeTolerance) {
  obs::AuditConfig cfg;
  cfg.severity = obs::AuditSeverity::kCountOnly;
  obs::HealthAuditor a(cfg);
  a.begin_step(0, 0);
  a.check_charge(1e-12, 1e-12 * (1.0 + 1e-10));  // within tol
  a.check_charge(1.0, 1.0 + 1e-6);               // out of tol
  a.check_charge(0.0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(a.report()
                .by_invariant[static_cast<int>(obs::Invariant::kChargeBalance)]
                .violations,
            2);
}

TEST(HealthAuditor, PoissonResidualBounds) {
  obs::HealthAuditor a({obs::AuditSeverity::kCountOnly});
  a.begin_step(0, 0);
  a.check_poisson(10, 1e-9, /*rel_tol=*/1e-8, /*converged=*/true);   // ok
  a.check_poisson(50, 1e-4, /*rel_tol=*/1e-8, /*converged=*/false);  // ok
  a.check_poisson(50, 1e-2, /*rel_tol=*/1e-8, /*converged=*/false);  // > bound
  EXPECT_EQ(a.report()
                .by_invariant[static_cast<int>(
                    obs::Invariant::kPoissonResidual)]
                .violations,
            1);
}

TEST(HealthAuditor, OwnershipPartitionMustBeExact) {
  obs::HealthAuditor a({obs::AuditSeverity::kCountOnly});
  a.begin_step(0, 0);
  const std::vector<std::int32_t> owner = {0, 1, 0, 1};
  a.check_ownership(owner, 2, {{0, 2}, {1, 3}});      // exact
  a.check_ownership(owner, 2, {{0}, {1, 3}});         // cell 2 unlisted
  a.check_ownership(owner, 2, {{0, 2, 3}, {1, 3}});   // cell 3 listed twice
  EXPECT_EQ(a.report()
                .by_invariant[static_cast<int>(obs::Invariant::kOwnership)]
                .violations,
            2);
}

// The auditor's three fixed bounds, at and just past each edge, and the
// exact texts that reach run_report.json as `first_violation`.
TEST(HealthAuditor, BoundsAndViolationTextsArePinned) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto violations = [](const obs::HealthAuditor& a, obs::Invariant inv) {
    return a.report().by_invariant[static_cast<int>(inv)].violations;
  };

  // Rebalance cost: estimate and measurement within 16x of each other,
  // either way round, both finite and non-negative.
  obs::HealthAuditor cost({obs::AuditSeverity::kCountOnly});
  cost.begin_step(9, 0);
  cost.check_rebalance_cost(16.0, 1.0);
  cost.check_rebalance_cost(1.0, 16.0);
  cost.check_rebalance_cost(0.0, 0.0);
  EXPECT_EQ(violations(cost, obs::Invariant::kRebalanceCost), 0);
  const double past16 = std::nextafter(16.0, 17.0);
  cost.check_rebalance_cost(past16, 1.0);
  cost.check_rebalance_cost(1.0, past16);
  cost.check_rebalance_cost(inf, 1.0);
  cost.check_rebalance_cost(1.0, inf);
  cost.check_rebalance_cost(nan, 1.0);
  cost.check_rebalance_cost(1.0, nan);
  cost.check_rebalance_cost(-1.0, 1.0);
  cost.check_rebalance_cost(1.0, -1.0);
  EXPECT_EQ(violations(cost, obs::Invariant::kRebalanceCost), 8);
  EXPECT_EQ(cost.report().first_violation,
            "step 9: rebalance_cost violated: policy estimated "
            "16.000000000000004 vs measured 1 (allowed factor 16)");

  // Poisson: a converged solve is held to its own rel_tol, an unconverged
  // one to 1e-3; a non-finite residual never passes.
  obs::HealthAuditor poisson({obs::AuditSeverity::kCountOnly});
  poisson.begin_step(4, 0);
  poisson.check_poisson(30, 1e-8, /*rel_tol=*/1e-8, /*converged=*/true);
  poisson.check_poisson(200, 1e-3, /*rel_tol=*/1e-8, /*converged=*/false);
  EXPECT_EQ(violations(poisson, obs::Invariant::kPoissonResidual), 0);
  poisson.check_poisson(200, std::nextafter(1e-3, 1.0), 1e-8, false);
  poisson.check_poisson(30, std::nextafter(1e-8, 1.0), 1e-8, true);
  poisson.check_poisson(200, nan, 1e-8, false);
  poisson.check_poisson(200, inf, 1e-8, false);
  EXPECT_EQ(violations(poisson, obs::Invariant::kPoissonResidual), 4);
  EXPECT_EQ(poisson.report().first_violation,
            "step 4: poisson_residual violated: cg NOT converged after 200 "
            "iterations, residual 0.0010000000000000002 exceeds bound 0.001");

  // Charge: relative error within 1e-9; a non-finite deposit never passes.
  obs::HealthAuditor charge({obs::AuditSeverity::kCountOnly});
  charge.begin_step(2, 0);
  charge.check_charge(-3.0, -3.0 * (1.0 + 5e-10));
  charge.check_charge(0.0, 0.0);
  EXPECT_EQ(violations(charge, obs::Invariant::kChargeBalance), 0);
  charge.check_charge(-3.0, -3.0 * (1.0 + 2e-9));
  charge.check_charge(1.0, inf);
  charge.check_charge(1.0, nan);
  EXPECT_EQ(violations(charge, obs::Invariant::kChargeBalance), 3);
  EXPECT_EQ(charge.report().first_violation,
            "step 2: charge_balance violated: deposited=-3.0000000059999996 "
            "vs particle=-3 (rel err 1.9999998654212693e-09, tol "
            "1.0000000000000001e-09)");
}

// ---- end-to-end: fault injection & zero perturbation ------------------------

SolverConfig tiny_config() {
  Dataset d = make_dataset(1, /*particle_scale=*/0.25);
  d.config.nozzle.radial_divisions = 3;
  d.config.nozzle.axial_divisions = 6;
  return d.config;
}

struct RunOutcome {
  std::uint64_t digest = 0;
  obs::AuditReport audit;
  std::int64_t profile_samples = 0;
  std::map<std::string, obs::HostProfiler::KernelStats> profile;
  int rebalances = 0;
};

std::uint64_t history_digest(const CoupledSolver& solver) {
  // FNV-1a over every diagnostic field and the final virtual clocks —
  // any perturbation of the deterministic state shows up here.
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const StepDiagnostics& s : solver.history()) {
    mix(static_cast<std::uint64_t>(s.dsmc_step));
    for (const std::int64_t p : s.particles_per_rank)
      mix(static_cast<std::uint64_t>(p));
    mix(static_cast<std::uint64_t>(s.total_h));
    mix(static_cast<std::uint64_t>(s.total_hplus));
    mix(static_cast<std::uint64_t>(s.injected));
    mix(static_cast<std::uint64_t>(s.migrated_dsmc));
    mix(static_cast<std::uint64_t>(s.migrated_pic));
    mix(static_cast<std::uint64_t>(s.collisions));
    mix(static_cast<std::uint64_t>(s.ionizations));
    mix(static_cast<std::uint64_t>(s.recombinations));
    mix(static_cast<std::uint64_t>(s.exited_dsmc));
    mix(static_cast<std::uint64_t>(s.exited_pic));
    mix(static_cast<std::uint64_t>(s.pic_lost));
    mix(static_cast<std::uint64_t>(s.poisson_iterations));
    mix(std::bit_cast<std::uint64_t>(s.lii));
    mix(s.rebalanced ? 1u : 0u);
  }
  for (int r = 0; r < solver.runtime().size(); ++r)
    mix(std::bit_cast<std::uint64_t>(solver.runtime().clock(r)));
  mix(std::bit_cast<std::uint64_t>(solver.runtime().total_time()));
  return h;
}

RunOutcome run_solver(bool audited, obs::AuditSeverity severity,
                      FaultInjection fault = FaultInjection::kNone,
                      par::ExecMode mode = par::ExecMode::kSequential,
                      int exec_threads = 0, int kernel_threads = 1,
                      int steps = 6, double threshold = 0.0) {
  SolverConfig cfg = tiny_config();
  cfg.fault = fault;
  ParallelConfig par;
  par.nranks = 6;
  par.balance.enabled = true;
  par.balance.period = 3;
  if (threshold > 0.0) par.balance.threshold = threshold;
  par.exec_mode = mode;
  par.exec_threads = exec_threads;
  par.kernel_threads = kernel_threads;
  obs::HealthAuditor auditor({severity});
  obs::HostProfiler prof;
  CoupledSolver solver(cfg, par);
  if (audited) {
    solver.set_auditor(&auditor);
    solver.set_host_profiler(&prof);
  }
  solver.run(steps);
  RunOutcome out;
  out.digest = history_digest(solver);
  out.audit = auditor.report();
  out.profile_samples = prof.sample_count();
  out.profile = prof.stats();
  out.rebalances = solver.rebalance_stats().rebalances;
  return out;
}

std::int64_t violations_of(const obs::AuditReport& r, obs::Invariant inv) {
  return r.by_invariant[static_cast<int>(inv)].violations;
}

TEST(AuditFaults, DropParticleFlagsExactlyParticleBooks) {
  const RunOutcome out = run_solver(/*audited=*/true,
                                    obs::AuditSeverity::kCountOnly,
                                    FaultInjection::kDropParticle);
  EXPECT_GT(violations_of(out.audit, obs::Invariant::kParticleBooks), 0);
  for (const obs::Invariant inv :
       {obs::Invariant::kExchangeConservation, obs::Invariant::kChargeBalance,
        obs::Invariant::kPoissonResidual, obs::Invariant::kOwnership,
        obs::Invariant::kMailboxDrained, obs::Invariant::kRebalanceCost})
    EXPECT_EQ(violations_of(out.audit, inv), 0)
        << obs::invariant_name(inv) << " flagged by the wrong fault";
  EXPECT_NE(out.audit.first_violation.find("particle_books"),
            std::string::npos)
      << out.audit.first_violation;
}

TEST(AuditFaults, SkewDepositFlagsExactlyChargeBalance) {
  const RunOutcome out = run_solver(/*audited=*/true,
                                    obs::AuditSeverity::kCountOnly,
                                    FaultInjection::kSkewDeposit);
  EXPECT_GT(violations_of(out.audit, obs::Invariant::kChargeBalance), 0);
  for (const obs::Invariant inv :
       {obs::Invariant::kParticleBooks, obs::Invariant::kExchangeConservation,
        obs::Invariant::kPoissonResidual, obs::Invariant::kOwnership,
        obs::Invariant::kMailboxDrained, obs::Invariant::kRebalanceCost})
    EXPECT_EQ(violations_of(out.audit, inv), 0)
        << obs::invariant_name(inv) << " flagged by the wrong fault";
}

TEST(AuditFaults, SkewRebalanceCostFlagsExactlyRebalanceCost) {
  // The fault inflates the policy's cost estimate x1000 at the audit hook
  // only — the run itself is untouched (verified by the digest below). A
  // low threshold and a longer run guarantee at least two rebalances, so at
  // least one check happens with a learned estimate.
  const RunOutcome out = run_solver(/*audited=*/true,
                                    obs::AuditSeverity::kCountOnly,
                                    FaultInjection::kSkewRebalanceCost,
                                    par::ExecMode::kSequential,
                                    /*exec_threads=*/0, /*kernel_threads=*/1,
                                    /*steps=*/14, /*threshold=*/1.01);
  EXPECT_GT(violations_of(out.audit, obs::Invariant::kRebalanceCost), 0);
  for (const obs::Invariant inv :
       {obs::Invariant::kParticleBooks, obs::Invariant::kExchangeConservation,
        obs::Invariant::kChargeBalance, obs::Invariant::kPoissonResidual,
        obs::Invariant::kOwnership, obs::Invariant::kMailboxDrained})
    EXPECT_EQ(violations_of(out.audit, inv), 0)
        << obs::invariant_name(inv) << " flagged by the wrong fault";
  EXPECT_NE(out.audit.first_violation.find("rebalance_cost"),
            std::string::npos)
      << out.audit.first_violation;

  // Audit-only fault: the simulation trajectory must be identical to the
  // unfaulted run under the same knobs.
  const RunOutcome clean = run_solver(/*audited=*/false,
                                      obs::AuditSeverity::kCountOnly,
                                      FaultInjection::kNone,
                                      par::ExecMode::kSequential,
                                      /*exec_threads=*/0, /*kernel_threads=*/1,
                                      /*steps=*/14, /*threshold=*/1.01);
  EXPECT_EQ(out.digest, clean.digest);
}

TEST(AuditFaults, CleanRunPassesRebalanceCostInvariant) {
  // Same aggressive-rebalance config without the fault: the policy's
  // estimate must track the measured cost within the audit factor.
  const RunOutcome out = run_solver(/*audited=*/true,
                                    obs::AuditSeverity::kCountOnly,
                                    FaultInjection::kNone,
                                    par::ExecMode::kSequential,
                                    /*exec_threads=*/0, /*kernel_threads=*/1,
                                    /*steps=*/14, /*threshold=*/1.01);
  EXPECT_EQ(violations_of(out.audit, obs::Invariant::kRebalanceCost), 0);
  EXPECT_GT(out.audit.by_invariant[static_cast<int>(
                obs::Invariant::kRebalanceCost)]
                .checks,
            0)
      << "the rebalance-cost invariant was never exercised";
}

TEST(AuditFaults, AbortSeverityStopsTheRun) {
  EXPECT_THROW(run_solver(/*audited=*/true, obs::AuditSeverity::kAbort,
                          FaultInjection::kDropParticle),
               Error);
}

TEST(AuditPerturbation, AuditsAndProfilerAreInvisibleInDigests) {
  const RunOutcome plain =
      run_solver(/*audited=*/false, obs::AuditSeverity::kAbort);
  const RunOutcome audited =
      run_solver(/*audited=*/true, obs::AuditSeverity::kAbort);
  EXPECT_EQ(audited.digest, plain.digest);
  EXPECT_EQ(audited.audit.violations(), 0);
  EXPECT_GT(audited.audit.checks(), 0);
  EXPECT_GT(audited.profile_samples, 0);
}

TEST(AuditPerturbation, HoldsUnderThreadedExecAndKernelThreads) {
  const RunOutcome plain =
      run_solver(/*audited=*/false, obs::AuditSeverity::kAbort);
  const RunOutcome audited =
      run_solver(/*audited=*/true, obs::AuditSeverity::kAbort,
                 FaultInjection::kNone, par::ExecMode::kThreaded,
                 /*exec_threads=*/4, /*kernel_threads=*/2);
  EXPECT_EQ(audited.digest, plain.digest);
  EXPECT_EQ(audited.audit.violations(), 0);
  EXPECT_GT(audited.profile_samples, 0);
}

TEST(AuditPerturbation, RebalanceTimesItsPartitionAndKmOnTheHost) {
  // Each rebalance records one sample under the solver's "rebalance" scope
  // and one each under its partition and KM sub-scopes.
  const auto run = [](bool profiled) {
    return run_solver(profiled, obs::AuditSeverity::kAbort,
                      FaultInjection::kNone, par::ExecMode::kSequential,
                      /*exec_threads=*/0, /*kernel_threads=*/1, /*steps=*/9,
                      /*threshold=*/1.01);
  };
  const RunOutcome plain = run(false);
  const RunOutcome profiled = run(true);
  EXPECT_EQ(profiled.digest, plain.digest);
  ASSERT_GT(profiled.rebalances, 0);
  for (const char* scope :
       {"rebalance", "rebalance/partition", "rebalance/km"}) {
    ASSERT_EQ(profiled.profile.count(scope), 1u) << scope;
    EXPECT_EQ(profiled.profile.at(scope).count, profiled.rebalances) << scope;
  }
  EXPECT_TRUE(plain.profile.empty());
}

// ---- RunReport --------------------------------------------------------------

obs::RunReport sample_report(const obs::AuditReport* audit,
                             const obs::HostProfiler* prof) {
  obs::RunReport rep;
  rep.config.bench = "bench_under_test";
  rep.config.case_name = "ranks=4 strategy=dc balance=on";
  rep.config.ranks = 4;
  rep.config.steps = 8;
  rep.config.machine = "tianhe2";
  rep.config.seed = 42;
  rep.config.exec_mode = "sequential";
  rep.config.kernel_threads = 1;
  rep.config.strategy = "dc";
  rep.config.balance = true;
  rep.config.audit_severity = audit ? "warn" : "off";
  rep.total_virtual_time = 12.5;
  rep.phases.push_back({"Inject", 1.0, 0.5, 3.0, 24, 4096.0});
  rep.final_particles = 1000;
  rep.steps.injected = 1200;
  rep.audit = audit;
  rep.profiler = prof;
  return rep;
}

TEST(RunReport, SerializesSchemaAuditAndProfileSections) {
  obs::HealthAuditor auditor({obs::AuditSeverity::kCountOnly});
  auditor.begin_step(0, 10);
  auditor.end_step(10, 0);
  obs::HostProfiler prof;
  prof.record("move", 1.25);
  std::ostringstream os;
  obs::write_run_report(os, sample_report(&auditor.report(), &prof));
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"schema\": \"dsmcpic.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"bench\": \"bench_under_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"phase\": \"Inject\""), std::string::npos);
  EXPECT_NE(doc.find("\"particle_books\""), std::string::npos);
  EXPECT_NE(doc.find("\"move\""), std::string::npos);
  // Both optional sections enabled.
  EXPECT_EQ(doc.find("\"enabled\": false"), std::string::npos);
}

TEST(RunReport, DetachedSectionsRenderDisabledAndBytesAreDeterministic) {
  const auto build = [] {
    std::ostringstream os;
    obs::write_run_report(os, sample_report(nullptr, nullptr));
    return os.str();
  };
  const std::string doc = build();
  EXPECT_NE(doc.find("\"enabled\": false"), std::string::npos);
  EXPECT_EQ(doc, build());
}

TEST(RunReport, FileWriterWritesParseableDocument) {
  const std::string path = testing::TempDir() + "obs_run_report_test.json";
  obs::write_run_report_file(path, sample_report(nullptr, nullptr));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find(obs::kRunReportSchema), std::string::npos);
}

}  // namespace
}  // namespace dsmcpic::core
