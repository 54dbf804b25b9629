#pragma once
// Shared infrastructure for the paper-reproduction bench binaries: every
// bench builds a Dataset, sweeps virtual-rank counts / strategies / balancer
// settings, and prints the same rows the paper's table or figure reports.
// Times are virtual seconds from the runtime's cost model (see DESIGN.md §1).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/datasets.hpp"
#include "core/solver.hpp"
#include "fleet/scenario.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

namespace dsmcpic::trace {
class TraceRecorder;
}

namespace dsmcpic::bench {

struct BenchOptions {
  std::vector<int> ranks;       // rank sweep
  int steps = 0;                // DSMC steps per run
  double particle_scale = 1.0;  // multiplies dataset particle targets
  std::string machine = "tianhe2";
  std::uint64_t seed = 42;
  // Superstep execution backend (wall-clock only; virtual times and all
  // reported numbers are bit-identical across modes).
  par::ExecMode exec_mode = par::ExecMode::kSequential;
  int exec_threads = 0;  // <= 0: one lane per hardware thread
  // Intra-rank kernel lanes (orthogonal to exec_mode; bit-identical too).
  int kernel_threads = 1;
  // Periodic cell sort interval in DSMC steps (0 disables). Bit-identical
  // for any value — sorting only changes memory layout and wall-clock.
  int sort_every = 8;
  // When non-empty, every run_case() records a virtual-time trace and
  // writes <trace_path> (Chrome/Perfetto JSON), <trace_path>.metrics.csv,
  // and a critical-path report to stderr. Case N > 0 of a multi-case bench
  // gets ".caseN" inserted before the extension. Recording never perturbs
  // virtual clocks or physics (DESIGN.md §2e).
  std::string trace_path;
  // Bench binary name, stamped into run reports (set via CommonFlags).
  std::string bench_name;
  // When non-empty, every run_case() writes a machine-readable
  // run_report.json (DESIGN.md §2f) to this path, with the same per-case
  // ".caseN" suffix rule as trace_path. Also attaches a host wall-clock
  // profiler whose kernel stats land in the report.
  std::string report_path;
  // Health audits: "off" or an obs::AuditSeverity name (warn|abort|count).
  // Auditing never perturbs virtual clocks, physics or traces.
  std::string audit = "off";
  // Balancer weight model: static | timer (DESIGN.md §2h).
  // "static" is the paper's pure Eq.-7 path, bit-identical to before the
  // cost model existed.
  std::string cost_model = "static";
  // When-to-rebalance policy: threshold | lookahead.
  std::string policy = "threshold";
  // Look-ahead horizon H in DSMC steps (policy=lookahead; 0 falls back to
  // the threshold trigger).
  int horizon = 20;
  // Elastic rank ensemble (DESIGN.md §2i): fixed | elastic. The rank count
  // from --ranks stays the NOMINAL machine; elastic resizes the active set
  // within [ranks-min, ranks-max], starting from ranks-initial.
  std::string ensemble = "fixed";
  int ranks_min = 1;
  int ranks_max = 0;      // 0 = nominal rank count
  int ranks_initial = 0;  // 0 = all ranks active at init (fixed dense path)
  // Live telemetry (docs/observability.md §6). When metrics_dir is
  // non-empty every run_case() attaches a TelemetryHub that publishes
  // metrics.prom/metrics.json into that directory every metrics_interval
  // steps and dumps postmortem.json on abort or fault trip (per-case files
  // get the same ".caseN" suffix rule as trace_path). Telemetry never
  // perturbs results.
  std::string metrics_dir;
  int metrics_interval = 10;  // publish cadence in DSMC steps (>= 1)
  int flight_recorder = 32;   // postmortem depth in supersteps (>= 1)

  par::MachineProfile profile() const;
};

/// Registers the common flags on `cli`; call `finish(cli)` after parse.
/// `bench_name` is the bench binary's name, echoed into run reports.
class CommonFlags {
 public:
  CommonFlags(Cli& cli, std::string bench_name,
              const std::string& default_ranks, int default_steps);
  BenchOptions finish() const;

 private:
  std::string bench_name_;
  const std::string* ranks_;
  const std::int64_t* steps_;
  const double* particles_;
  const std::string* machine_;
  const std::int64_t* seed_;
  const std::string* exec_mode_;
  const std::int64_t* threads_;
  const std::int64_t* kernel_threads_;
  const std::int64_t* sort_every_;
  const std::string* trace_;
  const std::string* report_;
  const std::string* audit_;
  const std::string* cost_model_;
  const std::string* policy_;
  const std::int64_t* horizon_;
  const std::string* ensemble_;
  const std::int64_t* ranks_min_;
  const std::int64_t* ranks_max_;
  const std::int64_t* ranks_initial_;
  const std::string* metrics_dir_;
  const std::int64_t* metrics_interval_;
  const std::int64_t* flight_recorder_;
};

/// Options of the fleet-service bench (bench_fleet). Registered here (not
/// in bench_fleet.cpp) so bench_cli_test can exercise the --fleet-* flag
/// surface — including the standard usage error on unknown --fleet-* flags
/// — without linking the bench binary.
struct FleetBenchOptions {
  int slots = 4;           // --fleet-slots
  int runs = 8;            // --fleet-runs
  std::string scenarios;   // --fleet-scenarios (csv; empty = whole corpus)
  int lease = 0;           // --fleet-lease (steps per lease; 0 = no preempt)
  int park = 0;            // --fleet-park (park run 0 at step N; 0 = off)
  std::string results_dir; // --results-dir
  std::string out;         // --out (BENCH_fleet.json lanes)
};

class FleetFlags {
 public:
  explicit FleetFlags(Cli& cli);
  FleetBenchOptions finish() const;

 private:
  const std::int64_t* slots_;
  const std::int64_t* runs_;
  const std::string* scenarios_;
  const std::int64_t* lease_;
  const std::int64_t* park_;
  const std::string* results_dir_;
  const std::string* out_;
};

/// Parses argv for a bench binary. Returns false when --help was printed.
/// On any CLI error — unknown flag, malformed value, or stray positional
/// argument — prints the error plus usage to stderr and exits with status
/// 2 instead of letting the exception escape to std::terminate.
bool parse_or_usage(Cli& cli, int argc, const char* const* argv);

/// Runs a flag finisher (CommonFlags::finish / FleetFlags::finish) and
/// converts its value-validation Errors — out-of-range ints, enum typos —
/// into the same usage exit(2) parse errors get, so `--metrics-interval 0`
/// fails a bench binary exactly like `--metric-interval 10` does.
template <class Fn>
auto finish_or_usage(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

/// Narrows int flag --`name` to an int in [`lo`, INT_MAX]. A value past
/// either end throws dsmcpic::Error (exit 2 under finish_or_usage) instead
/// of wrapping in the cast.
int int_flag(const std::string& name, std::int64_t value,
             int lo = std::numeric_limits<int>::min());

/// Parses "24,48,96" into {24, 48, 96}. Each item must be a whole positive
/// int; errors name --`flag`.
std::vector<int> parse_rank_list(const std::string& csv,
                                 const std::string& flag = "ranks");

/// Splits --fleet-scenarios' comma list into scenario names of `corpus`;
/// an empty list means the whole corpus. An unknown name, or a list that
/// names none, throws UsageError (exit 2 under finish_or_usage).
std::vector<std::string> parse_scenarios(const std::string& csv,
                                         const fleet::ScenarioCorpus& corpus);

/// Output path for case `index` of a multi-case bench: index 0 maps to
/// `base`, case N > 0 gets ".caseN" inserted before the extension.
std::string trace_case_path(const std::string& base, int index);

/// Builds the parallel config for one case with paper-magnitude cost scales.
core::ParallelConfig make_parallel(const core::Dataset& ds, int nranks,
                                   exchange::Strategy strategy,
                                   bool balance_enabled,
                                   const BenchOptions& opt);

struct CaseResult {
  core::RunSummary summary;
  std::vector<core::StepDiagnostics> history;
  double total_time = 0.0;  // virtual seconds end-to-end
};

/// Runs one solver case for opt.steps DSMC steps.
CaseResult run_case(const core::Dataset& ds, const core::ParallelConfig& par,
                    const BenchOptions& opt);

/// Finishes one recorded case: writes the Chrome trace + metrics CSV to
/// `path` and prints the critical-path report to stderr. The trace half of
/// the per-case wiring every bench shares.
void write_case_trace(const trace::TraceRecorder& rec, const std::string& path);

}  // namespace dsmcpic::bench
