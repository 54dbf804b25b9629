#pragma once
// Intra-rank kernel executor: chunks an index range [0, n) across a small
// dedicated ThreadPool (the `--kernel-threads` knob, DESIGN.md §2d).
//
// This is the second level of the two-level execution model. The first
// level (par::Runtime's ExecMode) parallelizes across virtual ranks; this
// level parallelizes *inside* one rank's kernel call — over particles in
// move/deposit, over owned cells in collide/react. The two compose: rank
// bodies running concurrently on the runtime pool may all call into one
// shared KernelExec, whose batches then serialize on the kernel pool
// (see ThreadPool's dispatch rules).
//
// Determinism contract: callers must arrange that results are invariant
// under the chunk count (per-chunk stats summed in chunk order by
// sum_tasks / sum_chunks below, RNG streams keyed by particle/cell id,
// appends buffered per chunk and merged in chunk order). Chunk boundaries
// are pure arithmetic on (n, num_chunks) — no allocation, no scheduling
// dependence — so for_chunks adds no per-call state.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace dsmcpic::support {

class KernelExec {
 public:
  /// Most chunks num_chunks returns, and most tasks sum_tasks takes.
  static constexpr int kMaxChunks = 64;

  /// threads <= 1 means serial (no pool is created; for_chunks runs one
  /// chunk inline). threads > 1 spawns a dedicated pool of that many lanes.
  explicit KernelExec(int threads = 1);

  int threads() const { return threads_; }
  bool serial() const { return threads_ <= 1; }

  /// Number of chunks a range of n items is split into. 1 when serial or
  /// when the range is tiny; otherwise a few chunks per lane (capped) so
  /// dynamic index claiming can even out per-chunk cost imbalance.
  int num_chunks(std::int64_t n) const;

  /// Runs fn(chunk, begin, end) for each chunk covering [0, n). Chunks are
  /// half-open, contiguous, ascending, and their union is exactly [0, n).
  /// Serial executors run the single chunk inline on the calling thread.
  void for_chunks(std::int64_t n,
                  const std::function<void(int, std::int64_t, std::int64_t)>&
                      fn) const;

  /// Chunk boundary arithmetic, exposed so tests can assert coverage.
  static std::int64_t chunk_begin(std::int64_t n, int num_chunks, int chunk) {
    return n * chunk / num_chunks;
  }

 private:
  template <class Stats, class Body>
  friend Stats sum_tasks(const KernelExec* exec, int ntasks, Body&& body);

  int threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when serial
};

/// The one chunk reduction of the particle kernels: runs body(task, stats)
/// for each task in [0, ntasks) — on the pool, or inline and in order for a
/// null or serial executor — and returns the tasks' stats summed in task
/// order (Stats needs operator+=; the body only adds to its stats). The
/// task list is the caller's plan: the collide's cost-balanced cell chunks,
/// the deposit's fixed blocks.
template <class Stats, class Body>
Stats sum_tasks(const KernelExec* exec, int ntasks, Body&& body) {
  Stats total{};
  if (!exec || exec->serial() || ntasks <= 1) {
    for (int t = 0; t < ntasks; ++t) body(t, total);
    return total;
  }
  DSMCPIC_CHECK(ntasks <= KernelExec::kMaxChunks);
  std::array<Stats, KernelExec::kMaxChunks> per_task{};
  exec->pool_->parallel_for(ntasks, [&](int t) { body(t, per_task[t]); });
  for (int t = 0; t < ntasks; ++t) total += per_task[t];
  return total;
}

/// sum_tasks over the chunks for_chunks cuts [0, n) into:
/// body(begin, end, stats) per chunk.
template <class Stats, class Body>
Stats sum_chunks(const KernelExec* exec, std::int64_t n, Body&& body) {
  const int nc = exec ? exec->num_chunks(n) : 1;
  return sum_tasks<Stats>(exec, nc, [&](int c, Stats& stats) {
    body(KernelExec::chunk_begin(n, nc, c),
         KernelExec::chunk_begin(n, nc, c + 1), stats);
  });
}

}  // namespace dsmcpic::support
