#pragma once
// Virtual-rank BSP runtime: the MPI + cluster substitute.
//
// The paper's solver is an MPI program on up to 1536 cores. This container
// has one core and no MPI, so the runtime executes N *virtual ranks* as
// cooperative tasks inside supersteps:
//
//   runtime.superstep("DSMC_Move", [&](Comm& c) { ...rank-local work... });
//
// Rank-local work is real (actual particles, actual matrices); what is
// virtual is *time*. Each rank has a virtual clock advanced by
//   * compute charges  — work units × machine-profile coefficients,
//   * message costs    — topology-aware Hockney α–β with a congestion term,
//   * collective costs — log-tree model,
// and synchronizing operations align clocks to the maximum (the wait time
// the paper's load-imbalance indicator is built from). Everything is
// deterministic: two runs with the same seed produce identical virtual
// times, which is what lets the bench harness regenerate the paper's tables.
//
// Message semantics: messages sent during superstep S are delivered to the
// destination inbox at the start of superstep S+1 (BSP). Collectives are
// driver-level calls between supersteps operating on per-rank values.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "par/machine.hpp"
#include "par/work.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace dsmcpic::trace {
class TraceRecorder;
enum class SpanKind : std::uint8_t;
}

namespace dsmcpic::par {

/// How superstep bodies are executed. Both modes produce bit-identical
/// results (clocks, phase stats, message ordering, physics) — kThreaded
/// only changes wall-clock time, never virtual time. See DESIGN.md §2c.
/// Orthogonal to ParallelConfig::kernel_threads (DESIGN.md §2d): rank
/// bodies may additionally chunk their own kernels over a shared kernel
/// pool; virtual clocks are computed from counted work either way, so
/// neither level of real threading moves them.
enum class ExecMode { kSequential, kThreaded };

struct ExecOptions {
  ExecMode mode = ExecMode::kSequential;
  /// Worker lanes for kThreaded; <= 0 means one per hardware thread.
  int threads = 0;
};

/// Parses "seq" / "sequential" / "threaded" (throws on anything else).
ExecMode parse_exec_mode(const std::string& name);
const char* exec_mode_name(ExecMode mode);

struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;
  double byte_scale = 1.0;  // cost-model multiplier for the payload bytes
  std::vector<std::byte> payload;

  /// Zero-copy view of the payload as elements of T (valid while the
  /// message is alive — i.e. within the receiving superstep body).
  template <typename T>
  std::span<const T> view() const {
    static_assert(std::is_trivially_copyable_v<T>);
    DSMCPIC_CHECK_MSG(payload.size() % sizeof(T) == 0,
                      "payload size " << payload.size()
                                      << " not a multiple of element size "
                                      << sizeof(T));
    return {reinterpret_cast<const T*>(payload.data()),
            payload.size() / sizeof(T)};
  }
};

class Runtime;

/// A fixed round of payload-free messages, built once by the caller and
/// routed by Runtime::superstep(phase, fn, round) after the bodies ran,
/// exactly as if each sender had sent payloads of the accounted sizes in
/// this order: same NIC serialization, congestion, clocks, busy rows, phase
/// bytes and trace records. Nothing is delivered — the data moves through
/// caller-owned buffers (par::Scatter's pack buffer) — so a round creates,
/// queues and recycles no Message.
///
/// A routing keeps the round's prices (NIC time per node, cost and scaled
/// bytes per message) in the round, and the next routing by the same
/// runtime at the same active rank count reuses them; a pending congestion
/// hint prices afresh and keeps nothing. Routing therefore writes to the
/// round: two runtimes must not route one round at the same time.
class MessageRound {
 public:
  MessageRound(int tag, CostClass cls) : tag_(tag), cls_(cls) {}

  /// Appends `src`'s next message: `nbytes` accounted bytes to `dst`.
  /// Senders must be added in ascending order (the runtime's routing order).
  void add(int src, int dst, std::size_t nbytes);

 private:
  friend class Runtime;
  struct Send {
    int src;
    int dst;
    std::size_t nbytes;
  };
  // One routing's prices: Runtime::price_round writes them and
  // Runtime::apply_round charges them, for sent messages and rounds alike.
  struct Prices {
    struct Nic {
      int lo, hi;      // the node's active ranks [lo, hi)
      double seconds;  // NIC serialization charged to each of them
    };
    struct Msg {
      double cost;   // α(src, dst) · congestion + bytes · β
      double bytes;  // accounted bytes × the class's byte scale
    };
    std::vector<Nic> nic;  // nodes with inter-node load, ascending
    std::vector<Msg> msgs;  // in (src, send order)
  };
  int tag_;
  CostClass cls_;
  std::vector<Send> sends_;
  int ranks_ = 0;  // one past the highest rank named
  // The last unhinted routing's prices, valid for the runtime whose serial
  // is priced_by_ (0: none) at priced_active_ active ranks. Written only on
  // the driver thread, after the superstep's join.
  mutable Prices prices_;
  mutable std::uint64_t priced_by_ = 0;
  mutable int priced_active_ = 0;
};

/// Per-rank handle passed to superstep bodies.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Charges `units` of compute work of the given kind to this rank's clock
  /// (scaled by the runtime's particle/grid scale per the kind's CostClass).
  void charge(WorkKind kind, double units);

  /// Sends a copy of raw bytes to `dst`; delivered at the start of the next
  /// superstep. The copy lives in a buffer from this rank's payload pool,
  /// which it returns to after delivery, so steady-state traffic allocates
  /// nothing once the pool is warm. `cls` selects the byte-cost scaling.
  void send(int dst, int tag, std::span<const std::byte> payload,
            CostClass cls = CostClass::kParticle);

  /// Sends a copy of an array of trivially copyable elements, like send.
  template <typename T>
  void send_pod(int dst, int tag, std::span<const T> elems,
                CostClass cls = CostClass::kParticle) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dst, tag, std::as_bytes(elems), cls);
  }

  /// Charges raw communication seconds to this rank (used for zero-payload
  /// handshake transactions that carry no data but still cost latency, e.g.
  /// the distributed strategy's empty send/recv pairs).
  void charge_comm_seconds(double seconds);

  /// Point-to-point latency to a peer under the current topology (no
  /// congestion term).
  double alpha_to(int peer) const;

  /// Messages delivered to this rank for the current superstep.
  const std::vector<Message>& inbox() const;

 private:
  friend class Runtime;
  Comm(Runtime* rt, int rank) : rt_(rt), rank_(rank) {}
  // Out of line, so the check leaves charge() small enough to inline.
  [[noreturn]] static void charge_outside_superstep();
  Runtime* rt_;
  int rank_;
};

/// Cumulative per-phase statistics (virtual seconds / counts).
struct PhaseStats {
  double busy_max = 0.0;   // max over ranks of busy time in this phase
  double busy_min = 0.0;   // min over ranks
  double busy_sum = 0.0;   // sum over ranks
  std::uint64_t transactions = 0;  // point-to-point messages routed
  double bytes = 0.0;              // scaled payload bytes routed
};

/// Cumulative payload-pool accounting (summed over ranks). In steady state
/// `misses` stops growing: every acquire is served from the free list, so
/// supersteps allocate no payload memory (asserted by par_test).
struct PoolStats {
  std::uint64_t acquires = 0;  // pooled buffers handed out
  std::uint64_t misses = 0;    // acquires that had to allocate fresh
  std::uint64_t recycles = 0;  // delivered payloads returned to a pool
};

class Runtime {
 public:
  /// The scales map a scaled-down run back onto paper-sized virtual
  /// workloads (see DESIGN.md §1): `particle_scale` multiplies
  /// particle-proportional charges and payload bytes, `grid_scale`
  /// grid-proportional ones (solver flops, assembly, field halos).
  Runtime(int nranks, Topology topology, double particle_scale = 1.0,
          double grid_scale = 1.0, ExecOptions exec = {});

  int size() const { return nranks_; }

  // ---- active-rank set (elastic ensembles, DESIGN.md §2i) ---------------
  //
  // The active set is a contiguous prefix [0, active). Parked ranks are
  // skipped by superstep dispatch and every collective — all per-superstep
  // work is O(active), not O(nranks) — and their clocks are frozen, so they
  // contribute zero virtual time. When active == size() (the default and
  // the `--ensemble fixed` path) every loop below visits exactly the ranks
  // it always did, bit-for-bit.

  /// Ranks currently participating in supersteps and collectives.
  int active_ranks() const { return active_; }
  /// Physical nodes spanned by the active prefix (rank/ppn node indexing,
  /// the same mapping the NIC serialization model uses).
  int active_nodes() const {
    return (active_ + topo_.profile().cores_per_node - 1) /
           topo_.profile().cores_per_node;
  }
  /// Resizes the active prefix. Driver-only, between supersteps, with no
  /// messages in flight. Growing joins the reactivated ranks' clocks to the
  /// current active frontier (a rank cannot resume in the past); shrinking
  /// freezes the parked ranks' clocks where they stand.
  void set_active_ranks(int n);

  ExecMode exec_mode() const { return exec_.mode; }
  /// Worker lanes actually used by kThreaded dispatch (1 for kSequential).
  int exec_threads() const;
  const Topology& topology() const { return topo_; }
  double scale_of(CostClass cls) const {
    switch (cls) {
      case CostClass::kParticle: return particle_scale_;
      case CostClass::kGrid: return grid_scale_;
      case CostClass::kNone: return 1.0;
    }
    return 1.0;
  }

  // ---- supersteps -------------------------------------------------------

  /// Runs `fn` once per rank, then routes all messages sent during the
  /// step; message delivery costs are charged under `phase`. Under
  /// kSequential, bodies run in rank order 0..N-1 on the calling thread;
  /// under kThreaded they run concurrently on the pool. Bodies may only
  /// write rank-indexed state (their store, their clock, their staging
  /// buffer), which makes the two modes bit-identical: every rank's sends
  /// land in a private per-rank buffer, and routing merges the buffers in
  /// (src rank, send order) — exactly the sequential schedule's order.
  void superstep(const std::string& phase, const std::function<void(Comm&)>& fn);

  /// A superstep whose messages are the fixed `round`: bodies must send
  /// nothing (a send throws dsmcpic::Error), and the round is routed under
  /// `phase` through the same routine as sent messages, consuming a pending
  /// congestion hint likewise. Every rank it names must be active.
  void superstep(const std::string& phase, const std::function<void(Comm&)>& fn,
                 const MessageRound& round);

  /// Overrides the transaction count used for the congestion term of the
  /// NEXT routing round (one-shot). The distributed exchange performs
  /// N(N-1) logical transactions even when most payloads are empty; the
  /// implementation only ships non-empty ones, so it hints the true count.
  /// Driver-owned: must be called between supersteps (never from a body),
  /// so the hint is consumed exactly once, by the next routing round.
  void hint_round_transactions(std::uint64_t n) {
    DSMCPIC_CHECK_MSG(!in_superstep_,
                      "hint_round_transactions inside a superstep body");
    congestion_hint_ = n;
  }

  /// Hints the dense all-pairs transaction count N(N-1) over the ACTIVE
  /// rank set for the next routing round. Sparse exchanges (neighbor lists)
  /// that stand in for a logically dense round must use this instead of
  /// computing the count themselves — the runtime owns the active-rank
  /// count, so the congestion model stays honest under elastic ensembles.
  void hint_round_transactions_all_pairs() {
    hint_round_transactions(static_cast<std::uint64_t>(active_) *
                            static_cast<std::uint64_t>(active_ - 1));
  }

  /// Supersteps executed so far (the denominator of the benches'
  /// wall-clock-per-superstep lanes).
  std::uint64_t supersteps() const { return supersteps_; }

  /// Aggregate payload-pool counters (summed over ranks).
  PoolStats pool_stats() const;

  // ---- synchronizing collectives (driver level) -------------------------

  /// Aligns all clocks to the maximum plus a tree-barrier cost.
  void barrier(const std::string& phase);

  /// Element-wise sum-allreduce of per-rank vectors (all of equal length);
  /// cost modelled as a ring allreduce of `len * 8` bytes. Returns the sum.
  std::vector<double> allreduce_sum_vec(
      const std::string& phase,
      const std::vector<std::vector<double>>& per_rank);

  /// Exclusive prefix sum over one value per rank (Reindex numbering).
  std::vector<std::int64_t> exscan_sum(const std::string& phase,
                                       std::span<const std::int64_t> vals);

  /// Allgather of one double per rank.
  std::vector<double> allgather(const std::string& phase,
                                std::span<const double> vals);

  /// Charges the cost of broadcasting `bytes` from `root` to all ranks.
  void charge_bcast(const std::string& phase, int root, double bytes);

  /// Charges the cost of gathering `bytes_per_rank` to `root` (root pays the
  /// serialized receive cost, others one send).
  void charge_gather(const std::string& phase, int root, double bytes_per_rank);

  /// Charges compute on a single rank outside a superstep (e.g. the root
  /// re-running the partitioner during Rebalance); synchronizing afterwards
  /// is the caller's choice.
  void charge_rank(const std::string& phase, int rank, WorkKind kind,
                   double units);

  // ---- accounting -------------------------------------------------------

  /// Virtual clock of one rank / end-to-end virtual time (max clock).
  double clock(int rank) const { return clocks_.at(rank); }
  double total_time() const;

  /// Cumulative stats for one phase (zeros if never used).
  PhaseStats phase_stats(const std::string& phase) const;
  /// Per-rank cumulative busy time in one phase.
  std::vector<double> phase_busy(const std::string& phase) const;
  /// Per-rank busy time summed over the given phases.
  std::vector<double> busy_totals(std::span<const std::string> phases) const;
  /// Per-rank busy summed over ALL phases.
  std::vector<double> busy_all() const;
  /// Names of all phases seen so far, in first-use order.
  std::vector<std::string> phases() const;

  /// Messages sitting in the BSP pipeline right now: staged sends of an
  /// in-flight superstep plus pending deliveries for the next one. Between
  /// whole solver steps every mailbox must be drained (an exchange protocol
  /// that ends with an unread message leaked particles) — the health
  /// auditor's mailbox invariant checks exactly this. Read-only.
  std::size_t undelivered_messages() const;

  /// Binary checkpoint of the accounting state (clocks, per-phase busy
  /// matrices). Message queues must be empty (between supersteps).
  void save(std::ostream& os) const;
  void load(std::istream& is);

  // ---- tracing (DESIGN.md §2e) ------------------------------------------
  /// Attaches a trace recorder; nullptr detaches. Recording is pure
  /// observation — it never moves a clock or touches physics state — and
  /// all hooks run on the driver thread, so traces are bit-identical
  /// across ExecMode / kernel-thread settings. The recorder must be sized
  /// for this runtime's rank count and must outlive the attachment. Not
  /// part of the checkpoint state.
  void set_tracer(trace::TraceRecorder* rec);
  trace::TraceRecorder* tracer() const { return tracer_; }

 private:
  friend class Comm;

  int phase_id(const std::string& phase);
  void charge_busy(int rank, int phase, double seconds) {
    busy_[phase][rank] += seconds;
  }
  void sync_clocks(double extra_cost_per_rank, int phase);
  void run_superstep(const std::string& phase,
                     const std::function<void(Comm&)>& fn,
                     const MessageRound* round);
  // Every routed message, sent or in a round, goes through these two
  // routines. The round's messages are given as `visit(f)` calling
  // f(src, dst, tag, nbytes, byte_scale) in (src, send order).
  /// Prices `count` messages: each node's NIC serialization (see
  /// MachineProfile::nic_overhead) and each message's cost under the
  /// congestion of `hint` transactions (0: the messages themselves).
  template <typename Visit>
  void price_round(std::size_t count, std::uint64_t hint, const Visit& visit,
                   MessageRound::Prices& out);
  /// Charges priced messages under `phase`: the NIC time first, then per
  /// message both endpoints' clocks and busy rows, the phase's transaction
  /// and byte counters and the trace records.
  template <typename Visit>
  void apply_round(int phase, const MessageRound::Prices& prices,
                   const Visit& visit);
  /// Interns runtime phase `pid` into the attached recorder (cached).
  int trace_phase(int pid);
  /// Emits one span per rank for clock movement since `pre` (tracer only).
  void trace_spans_since(const std::vector<double>& pre, int pid,
                         trace::SpanKind kind, std::uint32_t seq,
                         bool with_work);
  double tree_stages() const;
  std::size_t staged_count() const;
  /// Copies `payload` into the best-fit buffer (smallest capacity >= its
  /// size) popped from `rank`'s pool, or into a fresh one on a miss.
  std::vector<std::byte> pool_acquire(int rank,
                                      std::span<const std::byte> payload);
  /// Returns a delivered payload to `rank`'s pool (capacity-sorted insert).
  void pool_recycle(int rank, std::vector<std::byte>&& buf);

  std::uint64_t serial_;  // process-unique; keys the prices kept in rounds
  int nranks_;
  int active_;  // active prefix [0, active_); == nranks_ unless elastic
  Topology topo_;
  double particle_scale_;
  double grid_scale_;
  ExecOptions exec_;
  std::unique_ptr<support::ThreadPool> pool_;  // non-null iff kThreaded

  std::vector<double> clocks_;

  // busy_[phase][rank]; phase registry keeps first-use order.
  std::map<std::string, int> phase_ids_;
  std::vector<std::string> phase_names_;
  std::vector<std::vector<double>> busy_;
  std::vector<std::uint64_t> phase_transactions_;
  std::vector<double> phase_bytes_;

  std::vector<std::vector<Message>> pending_;  // delivery at next superstep
  std::vector<std::vector<Message>> inbox_;    // current superstep
  // Per-SENDER staging for the current superstep: rank r's body appends
  // only to staged_[r], so concurrent bodies never share a buffer. Routing
  // walks staged_[0..N-1] in order, which reproduces the sequential
  // schedule's global send order bit-for-bit.
  std::vector<std::vector<Message>> staged_;
  // Per-rank payload free lists, sorted ascending by capacity. A rank's
  // body acquires only from its own pool (no locks, deterministic reuse
  // order); delivered payloads are recycled back to their SENDER's pool on
  // the driver thread at the end of the receiving superstep, so a
  // steady-state communication pattern cycles the same buffers forever.
  struct PayloadPool {
    std::vector<std::vector<std::byte>> free;
    std::uint64_t acquires = 0, misses = 0, recycles = 0;
  };
  std::vector<PayloadPool> pools_;
  std::vector<double> nic_load_;  // per-node scratch (price_round)
  // Prices of sent messages and of hinted rounds, reused across supersteps.
  MessageRound::Prices scratch_prices_;
  std::uint64_t supersteps_ = 0;
  bool in_superstep_ = false;
  const MessageRound* round_ = nullptr;  // the round superstep in flight
  int current_phase_for_comm_ = -1;
  std::uint64_t congestion_hint_ = 0;  // one-shot; 0 = use staged count

  // Tracing state (inert when tracer_ == nullptr; the hot paths pay one
  // branch). Scratch buffers are reused so steady-state recording does not
  // allocate per superstep.
  trace::TraceRecorder* tracer_ = nullptr;
  std::vector<double> trace_pre_, trace_mid_;       // clock snapshots
  std::vector<std::array<double, kNumWorkKinds>> trace_work_;  // per rank
  std::vector<int> trace_phase_ids_;  // runtime pid -> recorder phase id
  std::array<int, kNumWorkKinds> trace_work_keys_{};
  bool trace_work_keys_ready_ = false;
  std::uint32_t trace_seq_ = 0;  // seq of the superstep in flight
};

inline void Comm::charge(WorkKind kind, double units) {
  if (!rt_->in_superstep_) charge_outside_superstep();
  const double cost =
      units * rt_->topo_.profile().costs[static_cast<int>(kind)] *
      rt_->scale_of(cost_class(kind));
  rt_->clocks_[rank_] += cost;
  rt_->charge_busy(rank_, rt_->current_phase_for_comm_, cost);
  // Rank-private slot: safe under concurrent bodies, read after the join.
  if (rt_->tracer_)
    rt_->trace_work_[rank_][static_cast<int>(kind)] += units;
}

}  // namespace dsmcpic::par
