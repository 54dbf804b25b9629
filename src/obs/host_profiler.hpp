#pragma once
// Host wall-clock profiler (DESIGN.md §2f). Where the trace subsystem
// records *virtual* time — the machine-model seconds the paper reasons
// about — this records *real* milliseconds spent in the solver's kernels
// on the host running the simulation: inject / move / reindex / collide /
// react / deposit / field_solve / exchange / rebalance. It answers "is THIS machine getting
// slower", the question the bench regression gate
// (scripts/check_bench_regression.py) automates for bench_kernels.
//
// Contract with the deterministic core:
//  * strictly outside deterministic state — samples live only in the
//    profiler; nothing reads them back into physics, clocks, RNG streams
//    or traces, so golden digests and trace bytes are bit-identical with
//    the profiler attached or not (tests/obs_test.cpp);
//  * thread-aware — scopes may open on any thread: superstep bodies run
//    on the runtime's worker pool under ExecMode::kThreaded, and those
//    bodies call kernels that additionally fan out over a KernelExec pool.
//    Recording is mutex-protected, and the nesting stack that builds
//    hierarchical names ("rebalance/exchange") is thread-local so lanes
//    never see each other's open scopes.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <mutex>

namespace dsmcpic::obs {

class HostProfiler {
 public:
  /// Aggregated wall-clock statistics of one kernel (milliseconds).
  struct KernelStats {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double min_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double max_ms = 0.0;
  };

  /// RAII timing scope. Opening a scope pushes `name` onto the calling
  /// thread's nesting stack; nested scopes record under "outer/inner".
  class Scope {
   public:
    Scope(HostProfiler* prof, const char* name);  // prof may be null (no-op)
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostProfiler* prof_;
    double t0_ms_ = 0.0;
  };

  /// Records one sample directly (no nesting). Thread-safe.
  void record(const std::string& kernel, double ms);

  /// Aggregates every kernel's samples; keys sorted (std::map), so
  /// iteration — and hence the run-report section — is deterministic in
  /// structure. Percentiles use the nearest-rank method.
  std::map<std::string, KernelStats> stats() const;

  /// Total samples recorded (all kernels).
  std::int64_t sample_count() const;

  /// Sum of all recorded milliseconds across every kernel. O(1) bookkeeping
  /// (maintained on record), cheap enough for per-step telemetry sampling
  /// where stats() — which sorts every kernel's samples — is not.
  double total_ms() const;

  /// Drops all samples.
  void reset();

  /// Monotonic wall clock in milliseconds (steady_clock).
  static double now_ms();

 private:
  friend class Scope;
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  double total_ms_sum_ = 0.0;
};

}  // namespace dsmcpic::obs
