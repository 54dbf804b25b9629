// CLI behaviour of the bench binaries (bench/common): unknown flags and
// stray positionals must exit with usage instead of being silently
// ignored, and the common flags (including --trace) must land in
// BenchOptions.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "balance/cost_model.hpp"
#include "balance/ensemble.hpp"
#include "balance/policy.hpp"
#include "common.hpp"
#include "exchange/exchange.hpp"
#include "fleet/scenario.hpp"
#include "obs/health_auditor.hpp"
#include "par/runtime.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"

namespace dsmcpic {
namespace {

TEST(BenchCli, UnknownFlagExitsWithUsage) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  const char* argv[] = {"prog", "--bogus", "7"};
  EXPECT_EXIT(bench::parse_or_usage(cli, 3, argv),
              testing::ExitedWithCode(2), "unknown flag --bogus");
}

TEST(BenchCli, MistypedSingleDashFlagExits) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  const char* argv[] = {"prog", "-steps", "3"};
  EXPECT_EXIT(bench::parse_or_usage(cli, 3, argv),
              testing::ExitedWithCode(2), "unknown flag -steps");
}

TEST(BenchCli, StrayPositionalExits) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  const char* argv[] = {"prog", "--steps", "3", "leftover"};
  EXPECT_EXIT(bench::parse_or_usage(cli, 4, argv),
              testing::ExitedWithCode(2), "unexpected argument 'leftover'");
}

TEST(BenchCli, HelpReturnsFalse) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(bench::parse_or_usage(cli, 2, argv));
}

TEST(BenchCli, CommonFlagsReachBenchOptions) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  const char* argv[] = {"prog",           "--ranks",  "2,8",
                        "--steps",        "5",        "--trace",
                        "/tmp/out.json",  "--exec-mode", "threaded",
                        "--kernel-threads", "4",
                        "--report", "/tmp/report.json",
                        "--audit", "warn"};
  ASSERT_TRUE(bench::parse_or_usage(cli, 15, argv));
  const bench::BenchOptions o = flags.finish();
  EXPECT_EQ(o.ranks, (std::vector<int>{2, 8}));
  EXPECT_EQ(o.steps, 5);
  EXPECT_EQ(o.trace_path, "/tmp/out.json");
  EXPECT_EQ(o.exec_mode, par::ExecMode::kThreaded);
  EXPECT_EQ(o.kernel_threads, 4);
  EXPECT_EQ(o.bench_name, "bench_under_test");
  EXPECT_EQ(o.report_path, "/tmp/report.json");
  EXPECT_EQ(o.audit, "warn");
}

TEST(BenchCli, AuditDefaultsOffAndRejectsTypos) {
  {
    Cli cli("bench under test");
    bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
    const char* argv[] = {"prog"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 1, argv));
    EXPECT_EQ(flags.finish().audit, "off");
    EXPECT_TRUE(flags.finish().report_path.empty());
  }
  {
    Cli cli("bench under test");
    bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
    const char* argv[] = {"prog", "--audit", "wrn"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
    EXPECT_THROW(flags.finish(), Error);
  }
}

TEST(BenchCli, CostModelAndPolicyFlagsReachBenchOptions) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  const char* argv[] = {"prog",      "--cost-model", "timer",
                        "--policy",  "lookahead",    "--horizon", "7"};
  ASSERT_TRUE(bench::parse_or_usage(cli, 7, argv));
  const bench::BenchOptions o = flags.finish();
  EXPECT_EQ(o.cost_model, "timer");
  EXPECT_EQ(o.policy, "lookahead");
  EXPECT_EQ(o.horizon, 7);
}

TEST(BenchCli, CostModelDefaultsStaticAndRejectsTypos) {
  {
    Cli cli("bench under test");
    bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
    const char* argv[] = {"prog"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 1, argv));
    const bench::BenchOptions o = flags.finish();
    EXPECT_EQ(o.cost_model, "static");
    EXPECT_EQ(o.policy, "threshold");
  }
  for (const char* bad : {"wallclock", "hybrid"}) {
    Cli cli("bench under test");
    bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
    const char* argv[] = {"prog", "--cost-model", bad};
    ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
    EXPECT_THROW(flags.finish(), Error) << bad;
  }
  {
    Cli cli("bench under test");
    bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
    const char* argv[] = {"prog", "--horizon", "-1"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
    EXPECT_THROW(flags.finish(), Error);
  }
}

TEST(BenchCli, FleetFlagsReachFleetBenchOptions) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_fleet", "6", 8);
  bench::FleetFlags fleet(cli);
  const char* argv[] = {"prog",
                        "--fleet-slots",     "3",
                        "--fleet-runs",      "5",
                        "--fleet-scenarios", "nozzle,reentry",
                        "--fleet-lease",     "2",
                        "--results-dir",     "/tmp/fleet_out",
                        "--out",             "/tmp/BENCH_fleet.json"};
  ASSERT_TRUE(bench::parse_or_usage(cli, 13, argv));
  const bench::FleetBenchOptions o = fleet.finish();
  EXPECT_EQ(o.slots, 3);
  EXPECT_EQ(o.runs, 5);
  EXPECT_EQ(o.scenarios, "nozzle,reentry");
  EXPECT_EQ(o.lease, 2);
  EXPECT_EQ(o.results_dir, "/tmp/fleet_out");
  EXPECT_EQ(o.out, "/tmp/BENCH_fleet.json");
}

TEST(BenchCli, UnknownFleetFlagExitsWithUsage) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_fleet", "6", 8);
  bench::FleetFlags fleet(cli);
  const char* argv[] = {"prog", "--fleet-slot", "3"};
  EXPECT_EXIT(bench::parse_or_usage(cli, 3, argv),
              testing::ExitedWithCode(2), "unknown flag --fleet-slot");
}

TEST(BenchCli, FleetFlagDefaultsAndValidation) {
  {
    Cli cli("bench under test");
    bench::FleetFlags fleet(cli);
    const char* argv[] = {"prog"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 1, argv));
    const bench::FleetBenchOptions o = fleet.finish();
    EXPECT_EQ(o.slots, 4);
    EXPECT_EQ(o.runs, 8);
    EXPECT_TRUE(o.scenarios.empty());
    EXPECT_EQ(o.lease, 0);
  }
  {
    Cli cli("bench under test");
    bench::FleetFlags fleet(cli);
    const char* argv[] = {"prog", "--fleet-slots", "0"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
    EXPECT_THROW(fleet.finish(), Error);
  }
  {
    // Preemption needs a checkpoint on disk: lease without results dir.
    Cli cli("bench under test");
    bench::FleetFlags fleet(cli);
    const char* argv[] = {"prog", "--fleet-lease", "2"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
    EXPECT_THROW(fleet.finish(), Error);
  }
}

TEST(BenchCli, MetricsFlagsReachBenchOptions) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  const char* argv[] = {"prog", "--metrics-dir",      "/tmp/metrics",
                        "--metrics-interval", "5",    "--flight-recorder",
                        "17"};
  ASSERT_TRUE(bench::parse_or_usage(cli, 7, argv));
  const bench::BenchOptions o = flags.finish();
  EXPECT_EQ(o.metrics_dir, "/tmp/metrics");
  EXPECT_EQ(o.metrics_interval, 5);
  EXPECT_EQ(o.flight_recorder, 17);
}

TEST(BenchCli, MetricsFlagsDefaultAndRejectNonPositive) {
  {
    Cli cli("bench under test");
    bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
    const char* argv[] = {"prog"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 1, argv));
    const bench::BenchOptions o = flags.finish();
    EXPECT_TRUE(o.metrics_dir.empty());
    EXPECT_EQ(o.metrics_interval, 10);
    EXPECT_EQ(o.flight_recorder, 32);
  }
  {
    Cli cli("bench under test");
    bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
    const char* argv[] = {"prog", "--metrics-interval", "0"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
    EXPECT_THROW(flags.finish(), Error);
  }
  {
    Cli cli("bench under test");
    bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
    const char* argv[] = {"prog", "--flight-recorder", "-3"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
    EXPECT_THROW(flags.finish(), Error);
  }
}

TEST(BenchCli, MistypedMetricsFlagExitsWithUsage) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  const char* argv[] = {"prog", "--metric-interval", "5"};
  EXPECT_EXIT(bench::parse_or_usage(cli, 3, argv),
              testing::ExitedWithCode(2), "unknown flag --metric-interval");
}

// The bench mains run finish() through finish_or_usage, so a value that
// parses but fails validation exits 2 with the message — it must never
// escape to std::terminate.
TEST(BenchCli, FinishOrUsageExitsTwoOnValidationError) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  const char* argv[] = {"prog", "--metrics-interval", "0"};
  ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
  EXPECT_EXIT(bench::finish_or_usage([&] { return flags.finish(); }),
              testing::ExitedWithCode(2), "--metrics-interval must be >= 1");
}

/// Parses `args` (after the program name) with the common flags, then runs
/// finish() under finish_or_usage: a malformed value must exit 2 with a
/// message matching `message`, never abort or run.
void expect_finish_usage_exit(std::vector<const char*> args,
                              const char* message) {
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  args.insert(args.begin(), "prog");
  ASSERT_TRUE(bench::parse_or_usage(cli, static_cast<int>(args.size()),
                                    args.data()));
  EXPECT_EXIT(bench::finish_or_usage([&] { return flags.finish(); }),
              testing::ExitedWithCode(2), message);
}

TEST(BenchCli, NonNumericRanksExitsWithUsage) {
  // Not a std::invalid_argument escaping finish_or_usage.
  expect_finish_usage_exit({"--ranks", "abc"}, "--ranks: not an integer");
}

TEST(BenchCli, OverflowingRanksExitsWithUsage) {
  // Not a std::out_of_range escaping finish_or_usage.
  expect_finish_usage_exit({"--ranks", "99999999999"},
                           "--ranks: '99999999999'");
}

TEST(BenchCli, TrailingCharactersInRanksExitWithUsage) {
  // The whole item must parse: "4x" is not 4 ranks.
  expect_finish_usage_exit({"--ranks", "4x"},
                           "--ranks: not an integer: '4x'");
}

TEST(BenchCli, ZeroParticlesExitsWithUsage) {
  expect_finish_usage_exit({"--particles", "0"}, "--particles must be");
}

TEST(BenchCli, NegativeParticlesExitsWithUsage) {
  expect_finish_usage_exit({"--particles", "-5"}, "--particles must be");
}

TEST(BenchCli, NegativeStepsExitsWithUsage) {
  expect_finish_usage_exit({"--steps", "-1"}, "--steps must be >= 1");
}

TEST(BenchCli, NegativeSortEveryExitsWithUsage) {
  expect_finish_usage_exit({"--sort-every", "-1"},
                           "--sort-every must be >= 0");
}

TEST(BenchCli, FleetParkFlagReachesOptionsAndValidates) {
  {
    Cli cli("bench under test");
    bench::FleetFlags fleet(cli);
    const char* argv[] = {"prog", "--fleet-park", "3", "--results-dir",
                          "/tmp/fleet_out"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 5, argv));
    EXPECT_EQ(fleet.finish().park, 3);
  }
  {
    // Parking checkpoints to disk, so it needs a results dir too.
    Cli cli("bench under test");
    bench::FleetFlags fleet(cli);
    const char* argv[] = {"prog", "--fleet-park", "3"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
    EXPECT_THROW(fleet.finish(), Error);
  }
  {
    Cli cli("bench under test");
    bench::FleetFlags fleet(cli);
    const char* argv[] = {"prog", "--fleet-park", "-1"};
    ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
    EXPECT_THROW(fleet.finish(), Error);
  }
}

// An int flag past INT_MAX must fail, not wrap: --steps 4294967297 used to
// run one step and --steps 2147483648 none.
TEST(BenchCli, IntFlagsPastIntMaxExitTwo) {
  for (const char* value : {"2147483648", "4294967297"}) {
    for (const char* flag :
         {"--steps", "--threads", "--kernel-threads", "--sort-every",
          "--horizon", "--ranks-min", "--ranks-max", "--ranks-initial",
          "--metrics-interval", "--flight-recorder"}) {
      Cli cli("bench under test");
      bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
      const char* argv[] = {"prog", flag, value};
      ASSERT_TRUE(bench::parse_or_usage(cli, 3, argv));
      EXPECT_EXIT(bench::finish_or_usage([&] { return flags.finish(); }),
                  testing::ExitedWithCode(2),
                  std::string(flag) + " must be >= ")
          << flag << " " << value;
    }
    for (const char* flag :
         {"--fleet-slots", "--fleet-runs", "--fleet-lease", "--fleet-park"}) {
      Cli cli("bench under test");
      bench::FleetFlags fleet(cli);
      const char* argv[] = {"prog", flag, value, "--results-dir",
                            "/tmp/fleet_out"};
      ASSERT_TRUE(bench::parse_or_usage(cli, 5, argv));
      EXPECT_EXIT(bench::finish_or_usage([&] { return fleet.finish(); }),
                  testing::ExitedWithCode(2),
                  std::string(flag) + " must be >= ")
          << flag << " " << value;
    }
  }
}

// The flags bench_scale_ranks, bench_fig09_validation and bench_kernels
// register themselves narrow through the same helper.
TEST(BenchCli, IntFlagHelperRejectsValuesPastAnInt) {
  constexpr std::int64_t kMax = std::numeric_limits<int>::max();
  constexpr std::int64_t kMin = std::numeric_limits<int>::min();
  for (const char* flag : {"sparse-active", "imb-ranks", "imb-steps", "points",
                           "repeats", "radial", "axial", "reps"}) {
    EXPECT_EQ(bench::int_flag(flag, kMax), kMax) << flag;
    EXPECT_EQ(bench::int_flag(flag, kMin), kMin) << flag;
    for (const std::int64_t v : {kMax + 1, (std::int64_t{1} << 32) + 1,
                                 kMin - 1})
      EXPECT_THROW(bench::int_flag(flag, v), Error) << flag << " " << v;
  }
  EXPECT_EQ(bench::int_flag("steps", 1, 1), 1);
  EXPECT_THROW(bench::int_flag("steps", 0, 1), Error);
}

// A usage error prints its message alone and exits 2: no source path, line
// or C++ condition ("check failed") before it. Each pattern pins all of
// stderr, from its first byte to the message's newline.
TEST(BenchCli, UsageErrorsPrintTheMessageAlone) {
  expect_finish_usage_exit(
      {"--steps", "4294967297"},
      "^--steps must be >= 1 and <= 2147483647, got 4294967297\n$");
  expect_finish_usage_exit(
      {"--exec-mode", "bogus"},
      "^unknown exec mode 'bogus' \\(seq \\| threaded\\)\n$");
  expect_finish_usage_exit(
      {"--cost-model", "bogus"},
      "^unknown cost model 'bogus' \\(expected static\\|timer\\)\n$");
  expect_finish_usage_exit(
      {"--ranks", "0"}, "^flag --ranks: '0' is not in \\[1, 2\\^31 - 1\\]\n$");
  Cli cli("bench under test");
  bench::CommonFlags flags(cli, "bench_under_test", "4", 3);
  const char* argv[] = {"prog", "--steps", "abc"};
  EXPECT_EXIT(bench::parse_or_usage(cli, 3, argv), testing::ExitedWithCode(2),
              "^flag --steps: not an integer: 'abc'\n$");
}

// bench_fleet resolves --fleet-scenarios under finish_or_usage: an unknown
// name or a list naming none exits 2 with the message alone (it used to
// escape as a dsmcpic::Error into std::terminate, exit 134).
TEST(BenchCli, FleetScenarioErrorsExitTwo) {
  const fleet::ScenarioCorpus corpus;
  const auto parse = [&](const char* csv) {
    return bench::finish_or_usage(
        [&] { return bench::parse_scenarios(csv, corpus); });
  };
  const char* unknown =
      "^--fleet-scenarios: unknown scenario 'bogus' \\(corpus: nozzle reentry "
      "twin-plume pulsed-inlet\\)\n$";
  EXPECT_EXIT(parse("bogus"), testing::ExitedWithCode(2), unknown);
  EXPECT_EXIT(parse("nozzle,bogus"), testing::ExitedWithCode(2), unknown);
  EXPECT_EXIT(parse(","), testing::ExitedWithCode(2),
              "^empty --fleet-scenarios list\n$");
  EXPECT_EQ(parse("nozzle,,reentry,"),
            (std::vector<std::string>{"nozzle", "reentry"}));
  EXPECT_EQ(parse("").size(), corpus.all().size());
  EXPECT_THROW(corpus.by_name("bogus"), Error);
}

// The mode parsers' errors are usage errors too, still caught as Error.
TEST(BenchCli, ModeParsersThrowUsageErrors) {
  const auto message = [](const auto& parse) -> std::string {
    try {
      parse();
    } catch (const UsageError& e) {
      return e.what();
    }
    return "no UsageError";
  };
  EXPECT_EQ(message([] { par::parse_exec_mode("x"); }),
            "unknown exec mode 'x' (seq | threaded)");
  EXPECT_EQ(message([] { exchange::parse_strategy("x"); }),
            "unknown exchange strategy 'x' (CC|DC|HC|NC)");
  EXPECT_EQ(message([] { balance::parse_policy("x"); }),
            "unknown rebalance policy 'x' (expected threshold|lookahead)");
  EXPECT_EQ(message([] { balance::parse_cost_model("x"); }),
            "unknown cost model 'x' (expected static|timer)");
  EXPECT_EQ(message([] { balance::parse_ensemble("x"); }),
            "unknown ensemble kind 'x' (expected fixed|elastic)");
  EXPECT_EQ(message([] { obs::parse_audit_severity("x"); }),
            "unknown audit severity 'x' (expected warn|abort|count)");
  EXPECT_THROW(par::parse_exec_mode("x"), Error);
}

TEST(BenchCli, TraceCasePathInsertsBeforeExtension) {
  EXPECT_EQ(bench::trace_case_path("out.json", 0), "out.json");
  EXPECT_EQ(bench::trace_case_path("out.json", 1), "out.case1.json");
  EXPECT_EQ(bench::trace_case_path("dir.v2/out", 2), "dir.v2/out.case2");
  EXPECT_EQ(bench::trace_case_path("noext", 3), "noext.case3");
}

}  // namespace
}  // namespace dsmcpic
