#pragma once
// Event vocabulary of the tracing subsystem (DESIGN.md §2e).
//
// Everything is stamped with *virtual* time — the deterministic per-rank
// clocks of par::Runtime — so a trace is an exact record of the simulated
// machine, not a noisy wall-clock profile. The runtime emits these records
// from the driver thread only; worker threads never touch the recorder,
// which is what makes traces bit-identical across ExecMode / kernel-thread
// settings.
//
// Phase and work-kind/counter names are interned by the TraceRecorder into
// small integer ids (`phase`, `key`) to keep per-event storage flat.

#include <cstdint>
#include <string>
#include <vector>

namespace dsmcpic::trace {

enum class SpanKind : std::uint8_t {
  kCompute,  // superstep body (rank-local work charges)
  kComm,     // point-to-point routing round (NIC serialization + transfers)
  kWait,     // idle until the slowest rank arrived at a synchronizing op
  kSync,     // the collective's own cost after alignment (tree/ring terms)
};

const char* span_kind_name(SpanKind k);

/// One work-counter contribution attached to a compute span.
struct WorkItem {
  int key = -1;       // interned work-kind name
  double units = 0.0; // units charged during the span (pre-scale)
};

/// A contiguous interval on one rank's virtual clock.
struct Span {
  int rank = -1;
  int phase = -1;  // interned phase name
  SpanKind kind = SpanKind::kCompute;
  double t0 = 0.0, t1 = 0.0;  // virtual seconds
  std::uint32_t seq = 0;      // originating superstep/collective sequence
  std::vector<WorkItem> work; // nonzero work counters (compute spans only)
};

/// One routed point-to-point message: the flow edge of the trace DAG.
/// send/recv intervals bracket the per-endpoint transfer charge applied
/// during the routing round (rendezvous: both endpoints pay).
struct MessageRec {
  int src = -1, dst = -1, tag = 0;
  std::uint64_t bytes = 0;    // payload bytes; a round's accounted size
  double scaled_bytes = 0.0;  // cost-model bytes (payload x cost-class scale)
  double send_begin = 0.0, send_end = 0.0;  // on src's clock
  double recv_begin = 0.0, recv_end = 0.0;  // on dst's clock
  int phase = -1;
  std::uint32_t seq = 0;
};

/// A synchronizing collective: all clocks align to `t_max` (the wait edge
/// of the trace DAG) and then advance together to `t_end` by the
/// collective's modelled cost. `argmax_rank` is the first rank whose clock
/// equalled the maximum — the rank the others waited for.
struct SyncRec {
  int phase = -1;
  std::uint32_t seq = 0;
  double t_max = 0.0;
  double t_end = 0.0;
  int argmax_rank = 0;
  std::vector<double> arrive;  // per-rank clock on entry
};

/// A point event (rebalance decision, step marker, ...). rank -1 = global.
struct Instant {
  int rank = -1;
  double t = 0.0;
  std::string name;
};

}  // namespace dsmcpic::trace
