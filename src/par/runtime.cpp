#include "par/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "support/serialize.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::par {

// ---- Comm -----------------------------------------------------------------

int Comm::size() const { return rt_->size(); }

void Comm::charge_outside_superstep() {
  detail::throw_check_failure("rt_->in_superstep_", __FILE__, __LINE__,
                              "charge() outside a superstep");
}

void Comm::send(int dst, int tag, std::span<const std::byte> payload,
                CostClass cls) {
  // Copy into a pooled buffer instead of a fresh allocation: the buffer
  // returns to this rank's pool after delivery, so steady-state traffic
  // recycles the same memory superstep after superstep.
  auto buf = acquire_payload(payload.size());
  if (!payload.empty())
    std::memcpy(buf.data(), payload.data(), payload.size());
  send_owned(dst, tag, std::move(buf), cls);
}

std::vector<std::byte> Comm::acquire_payload(std::size_t nbytes) {
  DSMCPIC_CHECK_MSG(rt_->in_superstep_,
                    "acquire_payload outside a superstep");
  return rt_->pool_acquire(rank_, nbytes);
}

void Comm::send_owned(int dst, int tag, std::vector<std::byte>&& payload,
                      CostClass cls) {
  DSMCPIC_CHECK_MSG(rt_->in_superstep_, "send() outside a superstep");
  DSMCPIC_CHECK_MSG(!rt_->round_,
                    "send() in a round superstep (the round is its messages)");
  DSMCPIC_CHECK_MSG(dst >= 0 && dst < rt_->active_,
                    "bad destination rank " << dst << " (active set is [0, "
                                            << rt_->active_ << "))");
  Message m;
  m.src = rank_;
  m.dst = dst;
  m.tag = tag;
  m.byte_scale = rt_->scale_of(cls);
  m.payload = std::move(payload);
  // Sender-private buffer: safe under concurrent superstep bodies.
  rt_->staged_[rank_].push_back(std::move(m));
}

const std::vector<Message>& Comm::inbox() const {
  return rt_->inbox_[rank_];
}

void Comm::charge_comm_seconds(double seconds) {
  DSMCPIC_CHECK_MSG(rt_->in_superstep_, "charge_comm_seconds outside superstep");
  rt_->clocks_[rank_] += seconds;
  rt_->charge_busy(rank_, rt_->current_phase_for_comm_, seconds);
}

double Comm::alpha_to(int peer) const {
  return rt_->topo_.alpha(rank_, peer);
}

// ---- MessageRound -----------------------------------------------------------

void MessageRound::add(int src, int dst, std::size_t nbytes) {
  DSMCPIC_CHECK_MSG(src >= 0 && dst >= 0,
                    "bad round message " << src << " -> " << dst);
  DSMCPIC_CHECK_MSG(sends_.empty() || src >= sends_.back().src,
                    "round sender " << src << " added after sender "
                                    << sends_.back().src);
  sends_.push_back({src, dst, nbytes});
  ranks_ = std::max({ranks_, src + 1, dst + 1});
  priced_by_ = 0;
}

// ---- Runtime ----------------------------------------------------------------

namespace {

// Names a runtime to the rounds it prices: unlike an address, a serial is
// never reused by a later runtime.
std::uint64_t next_runtime_serial() {
  static std::atomic<std::uint64_t> last{0};
  return ++last;
}

}  // namespace

Runtime::Runtime(int nranks, Topology topology, double particle_scale,
                 double grid_scale, ExecOptions exec)
    : serial_(next_runtime_serial()),
      nranks_(nranks),
      active_(nranks),
      topo_(std::move(topology)),
      particle_scale_(particle_scale),
      grid_scale_(grid_scale),
      exec_(exec),
      clocks_(nranks, 0.0),
      pending_(nranks),
      inbox_(nranks),
      staged_(nranks),
      pools_(nranks) {
  DSMCPIC_CHECK_MSG(nranks >= 1, "runtime needs at least one rank");
  DSMCPIC_CHECK_MSG(topo_.nranks() == nranks,
                    "topology sized for " << topo_.nranks() << " ranks, not "
                                          << nranks);
  DSMCPIC_CHECK(particle_scale > 0.0 && grid_scale > 0.0);
  if (exec_.mode == ExecMode::kThreaded && nranks > 1)
    pool_ = std::make_unique<support::ThreadPool>(exec_.threads);
}

int Runtime::exec_threads() const { return pool_ ? pool_->num_threads() : 1; }

ExecMode parse_exec_mode(const std::string& name) {
  if (name == "seq" || name == "sequential") return ExecMode::kSequential;
  if (name == "threaded") return ExecMode::kThreaded;
  throw UsageError("unknown exec mode '" + name + "' (seq | threaded)");
}

const char* exec_mode_name(ExecMode mode) {
  return mode == ExecMode::kThreaded ? "threaded" : "seq";
}

void Runtime::set_tracer(trace::TraceRecorder* rec) {
  if (rec) {
    DSMCPIC_CHECK_MSG(rec->nranks() == nranks_,
                      "trace recorder sized for " << rec->nranks()
                                                  << " ranks, not " << nranks_);
  }
  tracer_ = rec;
  trace_phase_ids_.assign(phase_names_.size(), -1);
  trace_work_keys_ready_ = false;
  trace_work_.assign(rec ? nranks_ : 0, {});
}

int Runtime::trace_phase(int pid) {
  if (static_cast<std::size_t>(pid) >= trace_phase_ids_.size())
    trace_phase_ids_.resize(phase_names_.size(), -1);
  int& id = trace_phase_ids_[pid];
  if (id < 0) id = tracer_->intern_phase(phase_names_[pid]);
  return id;
}

void Runtime::trace_spans_since(const std::vector<double>& pre, int pid,
                                trace::SpanKind kind, std::uint32_t seq,
                                bool with_work) {
  if (with_work && !trace_work_keys_ready_) {
    for (std::size_t k = 0; k < kNumWorkKinds; ++k)
      trace_work_keys_[k] =
          tracer_->intern_key(work_kind_name(static_cast<WorkKind>(k)));
    trace_work_keys_ready_ = true;
  }
  const int tp = trace_phase(pid);
  for (int r = 0; r < active_; ++r) {
    if (!(clocks_[r] > pre[r])) continue;
    trace::Span s;
    s.rank = r;
    s.phase = tp;
    s.kind = kind;
    s.t0 = pre[r];
    s.t1 = clocks_[r];
    s.seq = seq;
    if (with_work) {
      for (std::size_t k = 0; k < kNumWorkKinds; ++k)
        if (trace_work_[r][k] > 0.0)
          s.work.push_back(
              trace::WorkItem{trace_work_keys_[k], trace_work_[r][k]});
    }
    tracer_->add_span(std::move(s));
  }
}

int Runtime::phase_id(const std::string& phase) {
  auto [it, inserted] = phase_ids_.try_emplace(
      phase, static_cast<int>(phase_names_.size()));
  if (inserted) {
    phase_names_.push_back(phase);
    busy_.emplace_back(nranks_, 0.0);
    phase_transactions_.push_back(0);
    phase_bytes_.push_back(0.0);
  }
  return it->second;
}

double Runtime::tree_stages() const {
  return std::ceil(std::log2(std::max(2, active_)));
}

void Runtime::set_active_ranks(int n) {
  DSMCPIC_CHECK_MSG(!in_superstep_,
                    "set_active_ranks inside a superstep body");
  DSMCPIC_CHECK_MSG(undelivered_messages() == 0,
                    "set_active_ranks with messages in flight");
  DSMCPIC_CHECK_MSG(n >= 1 && n <= nranks_,
                    "active rank count " << n << " out of [1, " << nranks_
                                         << "]");
  if (n > active_) {
    // Reactivated ranks resume at the active frontier: a parked rank cannot
    // rejoin in the past (its frozen clock may predate work the active set
    // already did), and joining to the max keeps virtual time monotone.
    double frontier = 0.0;
    for (int r = 0; r < active_; ++r)
      frontier = std::max(frontier, clocks_[r]);
    for (int r = active_; r < n; ++r)
      clocks_[r] = std::max(clocks_[r], frontier);
  }
  active_ = n;
}

std::vector<std::byte> Runtime::pool_acquire(int rank, std::size_t nbytes) {
  PayloadPool& p = pools_[rank];
  ++p.acquires;
  // Best fit: smallest free buffer whose capacity covers the request. The
  // free list is sorted ascending by capacity, so this is a lower_bound and
  // the reuse order is deterministic.
  auto it = std::lower_bound(p.free.begin(), p.free.end(), nbytes,
                             [](const std::vector<std::byte>& b,
                                std::size_t n) { return b.capacity() < n; });
  if (it == p.free.end()) {
    ++p.misses;
    return std::vector<std::byte>(nbytes);  // zero-filled, like the hit path
  }
  std::vector<std::byte> buf = std::move(*it);
  p.free.erase(it);
  buf.clear();
  buf.resize(nbytes);  // value-initializes (zeros) without reallocating
  return buf;
}

void Runtime::pool_recycle(int rank, std::vector<std::byte>&& buf) {
  if (buf.capacity() == 0) return;  // nothing worth keeping
  PayloadPool& p = pools_[rank];
  ++p.recycles;
  buf.clear();
  const std::size_t cap = buf.capacity();
  auto it = std::lower_bound(p.free.begin(), p.free.end(), cap,
                             [](const std::vector<std::byte>& b,
                                std::size_t n) { return b.capacity() < n; });
  p.free.insert(it, std::move(buf));
}

PoolStats Runtime::pool_stats() const {
  PoolStats s;
  for (const PayloadPool& p : pools_) {
    s.acquires += p.acquires;
    s.misses += p.misses;
    s.recycles += p.recycles;
  }
  return s;
}

std::size_t Runtime::staged_count() const {
  std::size_t n = 0;
  // Parked ranks never run a body, so only the active prefix can stage.
  for (int r = 0; r < active_; ++r) n += staged_[r].size();
  return n;
}

std::size_t Runtime::undelivered_messages() const {
  std::size_t n = staged_count();
  for (const auto& p : pending_) n += p.size();
  return n;
}

template <typename Visit>
void Runtime::price_round(std::size_t count, std::uint64_t hint,
                          const Visit& visit, MessageRound::Prices& out) {
  const MachineProfile& prof = topo_.profile();
  const int ppn = prof.cores_per_node;
  const int nodes = active_nodes();
  // Per-node inter-node message load. Ranks on one physical node share a
  // NIC, which processes messages serially (and slower under incast). A
  // single node has no inter-node traffic unless a hint says otherwise.
  // Member scratch: sized once, zeroed per pricing, no steady-state
  // allocation.
  const bool nic = prof.nic_overhead > 0.0 && (nodes > 1 || hint != 0);
  if (nic) nic_load_.assign(static_cast<std::size_t>(nodes), 0.0);
  if (nic && hint) {
    // Logical all-pairs round (distributed exchange): assume the hinted
    // transactions are spread uniformly over ordered rank pairs; only the
    // inter-node share hits the NICs. Parked ranks send nothing, so the
    // pair population is the active prefix.
    const double inter_share =
        active_ > 1
            ? std::max(0.0, 1.0 - static_cast<double>(ppn - 1) / (active_ - 1))
            : 0.0;
    const double per_node = static_cast<double>(hint) * inter_share / nodes;
    std::fill(nic_load_.begin(), nic_load_.end(), per_node);
  }
  const bool count_nic = nic && !hint;

  // Congestion: extra latency when a routing round carries many concurrent
  // transactions per node (switch/NIC pressure); this is what separates the
  // distributed N(N-1)-transaction strategy from the centralized 2N one at
  // scale (paper Sec. IV-B3, Fig. 11).
  const double round_transactions =
      hint ? static_cast<double>(hint) : static_cast<double>(count);
  const double per_node = round_transactions / std::max(1, nodes);
  const double congestion_mult = 1.0 + prof.congestion * per_node;
  out.msgs.clear();
  visit([&](int src, int dst, int, std::size_t nbytes, double scale) {
    const double bytes = static_cast<double>(nbytes) * scale;
    out.msgs.push_back(
        {topo_.alpha(src, dst) * congestion_mult + bytes * prof.beta, bytes});
    if (!count_nic) return;
    const int ns = src / ppn;
    const int nd = dst / ppn;
    if (ns == nd) return;
    nic_load_[ns] += 1.0;
    nic_load_[nd] += 1.0;
  });

  out.nic.clear();
  if (!nic) return;
  for (int node = 0; node < nodes; ++node) {
    if (nic_load_[node] <= 0.0) continue;
    const double t = nic_load_[node] * prof.nic_overhead *
                     (1.0 + nic_load_[node] * prof.nic_contention);
    const int lo = node * ppn;
    out.nic.push_back({lo, std::min(active_, lo + ppn), t});
  }
}

template <typename Visit>
void Runtime::apply_round(int phase, const MessageRound::Prices& prices,
                          const Visit& visit) {
  std::vector<double>& busy = busy_[phase];
  for (const MessageRound::Prices::Nic& n : prices.nic)
    for (int r = n.lo; r < n.hi; ++r) {
      clocks_[r] += n.seconds;
      busy[r] += n.seconds;
    }
  const MessageRound::Prices::Msg* price = prices.msgs.data();
  double phase_bytes = phase_bytes_[phase];
  visit([&](int src, int dst, int tag, std::size_t nbytes, double) {
    const auto [cost, bytes] = *price++;
    const double send_begin = clocks_[src];
    const double recv_begin = clocks_[dst];
    // Rendezvous: both endpoints are busy for the transfer.
    clocks_[src] += cost;
    busy[src] += cost;
    clocks_[dst] += cost;
    busy[dst] += cost;
    phase_bytes += bytes;
    if (tracer_) {
      trace::MessageRec rec;
      rec.src = src;
      rec.dst = dst;
      rec.tag = tag;
      rec.bytes = nbytes;
      rec.scaled_bytes = bytes;
      rec.send_begin = send_begin;
      rec.send_end = clocks_[src];
      rec.recv_begin = recv_begin;
      rec.recv_end = clocks_[dst];
      rec.phase = trace_phase(phase);
      rec.seq = trace_seq_;
      tracer_->add_message(std::move(rec));
    }
  });
  phase_bytes_[phase] = phase_bytes;
  phase_transactions_[phase] += prices.msgs.size();
}

void Runtime::superstep(const std::string& phase,
                        const std::function<void(Comm&)>& fn) {
  run_superstep(phase, fn, nullptr);
}

void Runtime::superstep(const std::string& phase,
                        const std::function<void(Comm&)>& fn,
                        const MessageRound& round) {
  DSMCPIC_CHECK_MSG(round.ranks_ <= active_,
                    "round names rank " << round.ranks_ - 1
                                        << " outside the active set [0, "
                                        << active_ << ")");
  run_superstep(phase, fn, &round);
}

void Runtime::run_superstep(const std::string& phase,
                            const std::function<void(Comm&)>& fn,
                            const MessageRound* round) {
  // The phase id is registered here, on the driver thread, before any body
  // runs: Comm::charge on worker threads only ever *reads* the id, so the
  // phase registry map is never mutated concurrently.
  const int pid = phase_id(phase);
  // Deliver messages produced in the previous superstep. swap (not move +
  // clear) so pending_ keeps its vector capacity — steady-state supersteps
  // reuse the same Message arrays without reallocating. Only the active
  // prefix can hold messages (send_owned rejects parked destinations).
  for (int r = 0; r < active_; ++r) std::swap(inbox_[r], pending_[r]);

  if (tracer_) {
    trace_seq_ = tracer_->next_seq();
    trace_pre_ = clocks_;
    for (auto& w : trace_work_) w.fill(0.0);
  }

  in_superstep_ = true;
  round_ = round;
  current_phase_for_comm_ = pid;
  for (int r = 0; r < active_; ++r) staged_[r].clear();
  if (pool_) {
    // Each rank writes only its own slots (clock, busy row entry, staging
    // buffer, its caller-side state), so the dynamic schedule cannot change
    // any result. parallel_for's join orders all writes before the merge.
    // Parked ranks are not dispatched at all: O(active) per superstep.
    pool_->parallel_for(active_, [&](int r) {
      Comm c(this, r);
      fn(c);
    });
  } else {
    for (int r = 0; r < active_; ++r) {
      Comm c(this, r);
      fn(c);
    }
  }
  in_superstep_ = false;
  round_ = nullptr;
  if (tracer_) {
    trace_spans_since(trace_pre_, pid, trace::SpanKind::kCompute, trace_seq_,
                      /*with_work=*/true);
    trace_mid_ = clocks_;
  }
  const std::uint64_t hint = congestion_hint_;
  congestion_hint_ = 0;  // one-shot
  if (round) {
    const double scale = scale_of(round->cls_);
    const auto visit = [round, scale](auto&& f) {
      for (const MessageRound::Send& s : round->sends_)
        f(s.src, s.dst, round->tag_, s.nbytes, scale);
    };
    // The prices are a function of the round, this runtime's topology and
    // scales (fixed at construction), the active count and the hint, so the
    // round keeps them across unhinted routings by this runtime.
    const std::size_t count = round->sends_.size();
    const MessageRound::Prices* prices = &round->prices_;
    if (hint) {
      price_round(count, hint, visit, scratch_prices_);
      prices = &scratch_prices_;
    } else if (round->priced_by_ != serial_ ||
               round->priced_active_ != active_) {
      round->priced_by_ = 0;  // stale until the pricing completes
      price_round(count, 0, visit, round->prices_);
      round->priced_by_ = serial_;
      round->priced_active_ = active_;
    }
    apply_round(pid, *prices, visit);
  } else {
    // Merge the per-sender buffers in (src rank, send order): each inbox
    // receives its messages sorted by source rank, ties broken by the order
    // the source sent them. This is a documented guarantee (par_test
    // InboxOrderingIsSrcMajorSendOrder) and matches what the sequential
    // 0..N-1 execution produced before per-rank staging existed. Only the
    // active prefix can have staged sends.
    const auto visit = [this](auto&& f) {
      for (int src = 0; src < active_; ++src)
        for (const Message& m : staged_[src])
          f(m.src, m.dst, m.tag, m.payload.size(), m.byte_scale);
    };
    price_round(staged_count(), hint, visit, scratch_prices_);
    apply_round(pid, scratch_prices_, visit);
    for (int src = 0; src < active_; ++src) {
      for (Message& m : staged_[src]) pending_[m.dst].push_back(std::move(m));
      staged_[src].clear();
    }
  }
  if (tracer_)
    trace_spans_since(trace_mid_, pid, trace::SpanKind::kComm, trace_seq_,
                      /*with_work=*/false);
  // Consumed inboxes: recycle each payload back to its SENDER's pool (the
  // rank that will size a like payload next step), in deterministic
  // dst-major, src-major order, on the driver thread.
  for (int r = 0; r < active_; ++r) {
    for (Message& m : inbox_[r]) pool_recycle(m.src, std::move(m.payload));
    inbox_[r].clear();
  }
  ++supersteps_;
}

void Runtime::sync_clocks(double extra_cost_per_rank, int phase) {
  // Parked ranks neither arrive at nor leave the barrier: their clocks stay
  // frozen and contribute nothing to the maximum.
  double mx = 0.0;
  int argmax = 0;
  for (int r = 0; r < active_; ++r) {
    if (clocks_[r] > mx) {
      mx = clocks_[r];
      argmax = r;
    }
  }
  if (tracer_) {
    trace::SyncRec s;
    s.phase = trace_phase(phase);
    s.seq = tracer_->next_seq();
    s.t_max = mx;
    s.t_end = mx + extra_cost_per_rank;
    s.argmax_rank = argmax;
    s.arrive = clocks_;
    tracer_->add_sync(std::move(s));
  }
  for (int r = 0; r < active_; ++r) {
    clocks_[r] = mx + extra_cost_per_rank;
    charge_busy(r, phase, extra_cost_per_rank);
  }
}

void Runtime::barrier(const std::string& phase) {
  const int pid = phase_id(phase);
  sync_clocks(tree_stages() * topo_.profile().alpha_tree, pid);
}

std::vector<double> Runtime::allreduce_sum_vec(
    const std::string& phase, const std::vector<std::vector<double>>& per_rank) {
  DSMCPIC_CHECK(static_cast<int>(per_rank.size()) == active_);
  const std::size_t len = per_rank.empty() ? 0 : per_rank[0].size();
  for (const auto& v : per_rank) DSMCPIC_CHECK(v.size() == len);
  const int pid = phase_id(phase);
  // Ring allreduce: 2(N-1)/N * bytes through each rank + latency terms.
  const double bytes = static_cast<double>(len) * 8.0;
  const double cost = 2.0 * tree_stages() * topo_.profile().alpha_tree +
                      2.0 * bytes * topo_.profile().beta;
  sync_clocks(cost, pid);
  std::vector<double> out(len, 0.0);
  for (const auto& v : per_rank)
    for (std::size_t i = 0; i < len; ++i) out[i] += v[i];
  return out;
}

std::vector<std::int64_t> Runtime::exscan_sum(
    const std::string& phase, std::span<const std::int64_t> vals) {
  DSMCPIC_CHECK(static_cast<int>(vals.size()) == active_);
  const int pid = phase_id(phase);
  sync_clocks(tree_stages() * topo_.profile().alpha_tree, pid);
  std::vector<std::int64_t> out(active_, 0);
  std::int64_t acc = 0;
  for (int r = 0; r < active_; ++r) {
    out[r] = acc;
    acc += vals[r];
  }
  return out;
}

std::vector<double> Runtime::allgather(const std::string& phase,
                                       std::span<const double> vals) {
  DSMCPIC_CHECK(static_cast<int>(vals.size()) == active_);
  const int pid = phase_id(phase);
  const double cost = tree_stages() * topo_.profile().alpha_tree +
                      8.0 * active_ * topo_.profile().beta;
  sync_clocks(cost, pid);
  return std::vector<double>(vals.begin(), vals.end());
}

void Runtime::charge_bcast(const std::string& phase, int root, double bytes) {
  DSMCPIC_CHECK(root >= 0 && root < active_);
  const int pid = phase_id(phase);
  const double cost = tree_stages() * (topo_.profile().alpha_tree +
                                       bytes * topo_.profile().beta);
  sync_clocks(cost, pid);
}

void Runtime::charge_gather(const std::string& phase, int root,
                            double bytes_per_rank) {
  DSMCPIC_CHECK(root >= 0 && root < active_);
  const int pid = phase_id(phase);
  const MachineProfile& prof = topo_.profile();
  std::uint32_t seq = 0;
  if (tracer_) {
    seq = tracer_->next_seq();
    trace_pre_ = clocks_;
  }
  // Root receives N-1 serialized messages; every other active rank pays one
  // send (parked ranks have nothing to contribute).
  double root_cost = 0.0;
  for (int r = 0; r < active_; ++r) {
    if (r == root) continue;
    const double c = topo_.alpha(r, root) + bytes_per_rank * prof.beta;
    clocks_[r] += c;
    charge_busy(r, pid, c);
    root_cost += c;
  }
  clocks_[root] += root_cost;
  charge_busy(root, pid, root_cost);
  if (tracer_)
    trace_spans_since(trace_pre_, pid, trace::SpanKind::kComm, seq,
                      /*with_work=*/false);
}

void Runtime::charge_rank(const std::string& phase, int rank, WorkKind kind,
                          double units) {
  DSMCPIC_CHECK(rank >= 0 && rank < active_);
  const int pid = phase_id(phase);
  const double cost = units * topo_.profile().costs[static_cast<int>(kind)] *
                      scale_of(cost_class(kind));
  const double pre = clocks_[rank];
  clocks_[rank] += cost;
  charge_busy(rank, pid, cost);
  if (tracer_ && clocks_[rank] > pre) {
    trace::Span s;
    s.rank = rank;
    s.phase = trace_phase(pid);
    s.kind = trace::SpanKind::kCompute;
    s.t0 = pre;
    s.t1 = clocks_[rank];
    s.seq = tracer_->next_seq();
    s.work.push_back(trace::WorkItem{
        tracer_->intern_key(work_kind_name(kind)), units});
    tracer_->add_span(std::move(s));
  }
}

double Runtime::total_time() const {
  double mx = 0.0;
  for (double c : clocks_) mx = std::max(mx, c);
  return mx;
}

PhaseStats Runtime::phase_stats(const std::string& phase) const {
  PhaseStats s;
  auto it = phase_ids_.find(phase);
  if (it == phase_ids_.end()) return s;
  const auto& row = busy_[it->second];
  s.busy_max = *std::max_element(row.begin(), row.end());
  s.busy_min = *std::min_element(row.begin(), row.end());
  for (double v : row) s.busy_sum += v;
  s.transactions = phase_transactions_[it->second];
  s.bytes = phase_bytes_[it->second];
  return s;
}

std::vector<double> Runtime::phase_busy(const std::string& phase) const {
  auto it = phase_ids_.find(phase);
  if (it == phase_ids_.end()) return std::vector<double>(nranks_, 0.0);
  return busy_[it->second];
}

std::vector<double> Runtime::busy_totals(
    std::span<const std::string> phases) const {
  std::vector<double> out(nranks_, 0.0);
  for (const auto& p : phases) {
    auto it = phase_ids_.find(p);
    if (it == phase_ids_.end()) continue;
    const auto& row = busy_[it->second];
    for (int r = 0; r < nranks_; ++r) out[r] += row[r];
  }
  return out;
}

std::vector<double> Runtime::busy_all() const {
  std::vector<double> out(nranks_, 0.0);
  for (const auto& row : busy_)
    for (int r = 0; r < nranks_; ++r) out[r] += row[r];
  return out;
}

std::vector<std::string> Runtime::phases() const { return phase_names_; }

void Runtime::save(std::ostream& os) const {
  DSMCPIC_CHECK_MSG(staged_count() == 0, "cannot checkpoint mid-superstep");
  for (const auto& p : pending_)
    DSMCPIC_CHECK_MSG(p.empty(), "cannot checkpoint with undelivered messages");
  io::write_pod<std::int32_t>(os, active_);
  io::write_pod<std::uint64_t>(os, supersteps_);
  io::write_vec(os, clocks_);
  io::write_pod<std::uint64_t>(os, phase_names_.size());
  for (std::size_t i = 0; i < phase_names_.size(); ++i) {
    io::write_string(os, phase_names_[i]);
    io::write_vec(os, busy_[i]);
    io::write_pod(os, phase_transactions_[i]);
    io::write_pod(os, phase_bytes_[i]);
  }
}

void Runtime::load(std::istream& is) {
  const auto active = io::read_pod<std::int32_t>(is);
  DSMCPIC_CHECK_MSG(active >= 1 && active <= nranks_,
                    "checkpoint active-rank count " << active
                                                    << " out of range");
  active_ = active;  // restored verbatim; clocks below carry the frontier
  supersteps_ = io::read_pod<std::uint64_t>(is);
  clocks_ = io::read_vec<double>(is);
  DSMCPIC_CHECK_MSG(static_cast<int>(clocks_.size()) == nranks_,
                    "checkpoint rank count mismatch");
  const auto np = io::read_pod<std::uint64_t>(is);
  phase_ids_.clear();
  phase_names_.clear();
  busy_.clear();
  phase_transactions_.clear();
  phase_bytes_.clear();
  for (std::uint64_t i = 0; i < np; ++i) {
    const std::string name = io::read_string(is);
    phase_ids_.emplace(name, static_cast<int>(i));
    phase_names_.push_back(name);
    busy_.push_back(io::read_vec<double>(is));
    DSMCPIC_CHECK_MSG(static_cast<int>(busy_.back().size()) == nranks_,
                      "checkpoint busy row of phase '"
                          << name << "' holds " << busy_.back().size()
                          << " ranks, not " << nranks_);
    phase_transactions_.push_back(io::read_pod<std::uint64_t>(is));
    phase_bytes_.push_back(io::read_pod<double>(is));
  }
  // Phase ids were renumbered; drop any cached recorder mapping.
  trace_phase_ids_.assign(phase_names_.size(), -1);
}

}  // namespace dsmcpic::par
