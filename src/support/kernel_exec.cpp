#include "support/kernel_exec.hpp"

#include <algorithm>

namespace dsmcpic::support {

namespace {
// A few chunks per lane lets the pool's dynamic index claiming absorb
// per-chunk cost imbalance; the cap (kMaxChunks) bounds sum_tasks' stack
// array of per-chunk stats at a fixed small size.
constexpr int kChunksPerLane = 4;
}  // namespace

KernelExec::KernelExec(int threads) : threads_(std::max(threads, 1)) {
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
}

int KernelExec::num_chunks(std::int64_t n) const {
  if (serial() || n <= 1) return 1;
  const std::int64_t want =
      std::min<std::int64_t>(static_cast<std::int64_t>(threads_) * kChunksPerLane, kMaxChunks);
  return static_cast<int>(std::min(n, want));
}

void KernelExec::for_chunks(
    std::int64_t n,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) const {
  if (n <= 0) return;
  const int nc = num_chunks(n);
  if (nc == 1) {
    fn(0, 0, n);
    return;
  }
  pool_->parallel_for(nc, [&](int c) {
    fn(c, chunk_begin(n, nc, c), chunk_begin(n, nc, c + 1));
  });
}

}  // namespace dsmcpic::support
