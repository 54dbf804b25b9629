#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "par/machine.hpp"
#include "par/runtime.hpp"
#include "trace/recorder.hpp"

namespace dsmcpic::par {
namespace {

Runtime make_runtime(int n, double pscale = 1.0, double gscale = 1.0,
                     Placement placement = Placement::kInnerFrame) {
  return Runtime(n, Topology(MachineProfile::tianhe2(), n, placement), pscale,
                 gscale);
}

TEST(Topology, NodeMappingDense) {
  const Topology t(MachineProfile::tianhe2(), 96);  // 24 cores/node
  EXPECT_EQ(t.nodes_in_use(), 4);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(23), 0);
  EXPECT_EQ(t.node_of(24), 1);
  EXPECT_EQ(t.node_of(95), 3);
}

TEST(Topology, AlphaTiersOrdered) {
  const MachineProfile p = MachineProfile::tianhe2();
  // 24 cores/node, 32 nodes/frame, 4 frames/rack.
  const int n = 24 * 32 * 4 * 2;  // spans two racks
  const Topology t(p, n);
  const double intra = t.alpha(0, 1);            // same node
  const double frame = t.alpha(0, 24);           // same frame, other node
  const double rack = t.alpha(0, 24 * 32);       // other frame, same rack
  const double inter = t.alpha(0, 24 * 32 * 4);  // other rack
  EXPECT_EQ(intra, p.alpha_intra_node);
  EXPECT_EQ(frame, p.alpha_inner_frame);
  EXPECT_EQ(rack, p.alpha_inner_rack);
  EXPECT_EQ(inter, p.alpha_inter_rack);
  EXPECT_LT(intra, frame);
  EXPECT_LT(frame, rack);
  EXPECT_LT(rack, inter);
}

TEST(Topology, PlacementChangesDistance) {
  const MachineProfile p = MachineProfile::tianhe2();
  const int n = 96;  // 4 nodes
  const Topology dense(p, n, Placement::kInnerFrame);
  const Topology spread(p, n, Placement::kInterRack);
  // Ranks on different nodes: dense keeps them in one frame, inter-rack
  // placement puts every node in its own rack.
  EXPECT_EQ(dense.alpha(0, 95), p.alpha_inner_frame);
  EXPECT_EQ(spread.alpha(0, 95), p.alpha_inter_rack);
  // Same node is intra-node under every placement.
  EXPECT_EQ(spread.alpha(0, 1), p.alpha_intra_node);
}

TEST(Topology, InnerRackSpreadsAcrossFrames) {
  const MachineProfile p = MachineProfile::tianhe2();
  const Topology t(p, 24 * 8, Placement::kInnerRack);
  // Slots 0 and 1 land in different frames of the same rack.
  EXPECT_NE(t.frame_of(0), t.frame_of(24));
  EXPECT_EQ(t.rack_of(0), t.rack_of(24));
}

TEST(Runtime, MessageDeliveryNextSuperstep) {
  Runtime rt = make_runtime(3);
  rt.superstep("send", [](Comm& c) {
    if (c.rank() == 0) {
      const std::vector<int> payload{1, 2, 3};
      c.send_pod<int>(2, 5, payload);
    }
    EXPECT_TRUE(c.inbox().empty());
  });
  int delivered = 0;
  rt.superstep("recv", [&](Comm& c) {
    for (const auto& m : c.inbox()) {
      EXPECT_EQ(c.rank(), 2);
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.tag, 5);
      const auto v = m.view<int>();
      ASSERT_EQ(v.size(), 3u);
      EXPECT_EQ(v[2], 3);
      ++delivered;
    }
  });
  EXPECT_EQ(delivered, 1);
}

TEST(Runtime, InboxClearedAfterSuperstep) {
  Runtime rt = make_runtime(2);
  rt.superstep("a", [](Comm& c) {
    if (c.rank() == 0) c.send(1, 0, {});
  });
  rt.superstep("b", [](Comm& c) {
    if (c.rank() == 1) {
      EXPECT_EQ(c.inbox().size(), 1u);
    }
  });
  rt.superstep("c", [](Comm& c) { EXPECT_TRUE(c.inbox().empty()); });
}

TEST(Runtime, ChargeAdvancesClockAndBusy) {
  Runtime rt = make_runtime(2);
  rt.superstep("work", [](Comm& c) {
    if (c.rank() == 0) c.charge(WorkKind::kMove, 1000.0);
  });
  const double cost =
      1000.0 *
      MachineProfile::tianhe2().costs[static_cast<int>(WorkKind::kMove)];
  EXPECT_DOUBLE_EQ(rt.clock(0), cost);
  EXPECT_DOUBLE_EQ(rt.clock(1), 0.0);
  EXPECT_DOUBLE_EQ(rt.phase_stats("work").busy_max, cost);
  EXPECT_DOUBLE_EQ(rt.phase_stats("work").busy_min, 0.0);
}

TEST(Runtime, CostClassScalesApply) {
  Runtime rt = make_runtime(1, /*pscale=*/100.0, /*gscale=*/3.0);
  rt.superstep("p", [](Comm& c) { c.charge(WorkKind::kMove, 1.0); });
  rt.superstep("g", [](Comm& c) { c.charge(WorkKind::kSpmvFlop, 1.0); });
  const auto& costs = MachineProfile::tianhe2().costs;
  EXPECT_DOUBLE_EQ(rt.phase_stats("p").busy_max,
                   100.0 * costs[static_cast<int>(WorkKind::kMove)]);
  EXPECT_DOUBLE_EQ(rt.phase_stats("g").busy_max,
                   3.0 * costs[static_cast<int>(WorkKind::kSpmvFlop)]);
}

TEST(Runtime, BarrierAlignsClocks) {
  Runtime rt = make_runtime(3);
  rt.superstep("w", [](Comm& c) {
    c.charge(WorkKind::kGeneric, 1e6 * (c.rank() + 1));
  });
  EXPECT_LT(rt.clock(0), rt.clock(2));
  rt.barrier("sync");
  EXPECT_DOUBLE_EQ(rt.clock(0), rt.clock(2));
  EXPECT_GE(rt.clock(0), 3e-3);  // at least the largest pre-barrier clock
}

TEST(Runtime, AllreduceSumVecElementwise) {
  Runtime rt = make_runtime(3);
  const std::vector<std::vector<double>> per_rank{{1, 10}, {2, 20}, {3, 30}};
  const auto sum = rt.allreduce_sum_vec("x", per_rank);
  ASSERT_EQ(sum.size(), 2u);
  EXPECT_DOUBLE_EQ(sum[0], 6.0);
  EXPECT_DOUBLE_EQ(sum[1], 60.0);
}

TEST(Runtime, ExscanSum) {
  Runtime rt = make_runtime(4);
  const std::vector<std::int64_t> vals{5, 3, 2, 7};
  const auto off = rt.exscan_sum("x", vals);
  EXPECT_EQ(off, (std::vector<std::int64_t>{0, 5, 8, 10}));
}

TEST(Runtime, MessageCostChargedToBothEndpoints) {
  Runtime rt = make_runtime(2);
  std::vector<std::byte> payload(1000);
  rt.superstep("comm", [&](Comm& c) {
    if (c.rank() == 0) c.send(1, 0, payload);
  });
  const MachineProfile p = MachineProfile::tianhe2();
  // Both ranks are on one node: alpha intra; small congestion for 1 message.
  const double expected_min = p.alpha_intra_node + 1000.0 * p.beta;
  EXPECT_GE(rt.clock(0), expected_min);
  EXPECT_GE(rt.clock(1), expected_min);
  EXPECT_EQ(rt.phase_stats("comm").transactions, 1u);
  EXPECT_DOUBLE_EQ(rt.phase_stats("comm").bytes, 1000.0);
}

TEST(Runtime, CongestionHintRaisesCost) {
  Runtime rt1 = make_runtime(2);
  Runtime rt2 = make_runtime(2);
  std::vector<std::byte> payload(8);
  rt1.superstep("c", [&](Comm& c) {
    if (c.rank() == 0) c.send(1, 0, payload);
  });
  rt2.hint_round_transactions(1000000);
  rt2.superstep("c", [&](Comm& c) {
    if (c.rank() == 0) c.send(1, 0, payload);
  });
  EXPECT_GT(rt2.clock(0), rt1.clock(0) * 10.0);
}

TEST(Runtime, GatherSerializesAtRoot) {
  Runtime rt = make_runtime(8);
  rt.charge_gather("g", 0, 1000.0);
  // Root pays ~7 transfers, everyone else one.
  EXPECT_GT(rt.clock(0), 5.0 * rt.clock(1));
}

TEST(Runtime, BusyTotalsAcrossPhases) {
  Runtime rt = make_runtime(2);
  rt.superstep("a", [](Comm& c) {
    if (c.rank() == 0) c.charge(WorkKind::kGeneric, 1e6);
  });
  rt.superstep("b", [](Comm& c) {
    if (c.rank() == 1) c.charge(WorkKind::kGeneric, 1e6);
  });
  const std::vector<std::string> both{"a", "b"};
  const auto tot = rt.busy_totals(both);
  EXPECT_DOUBLE_EQ(tot[0], tot[1]);
  EXPECT_GT(tot[0], 0.0);
  const auto all = rt.busy_all();
  EXPECT_DOUBLE_EQ(all[0], tot[0]);
}

TEST(Runtime, DeterministicAcrossRuns) {
  auto run = [] {
    Runtime rt = make_runtime(4);
    for (int s = 0; s < 5; ++s) {
      rt.superstep("w", [s](Comm& c) {
        c.charge(WorkKind::kMove, 100.0 * (c.rank() + s));
        const std::vector<double> x{1.0};
        if (c.rank() > 0) c.send_pod<double>(c.rank() - 1, 0, x);
      });
    }
    rt.barrier("end");
    return rt.total_time();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Runtime, SendOwnedAndViewRoundTrip) {
  Runtime rt = make_runtime(2);
  rt.superstep("a", [](Comm& c) {
    if (c.rank() != 0) return;
    std::vector<double> vals{1.5, -2.5, 3.25};
    c.send_pod<double>(1, 9, vals, CostClass::kGrid);
  });
  rt.superstep("b", [](Comm& c) {
    if (c.rank() != 1) return;
    ASSERT_EQ(c.inbox().size(), 1u);
    const auto v = c.inbox()[0].view<double>();
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[0], 1.5);
    EXPECT_DOUBLE_EQ(v[1], -2.5);
    EXPECT_DOUBLE_EQ(v[2], 3.25);
  });
}

TEST(Runtime, GridScaleAppliesToGridPayloads) {
  // Same payload, particle- vs grid-class: byte costs differ by the scale
  // ratio (latency term subtracted out by comparing against a baseline).
  auto comm_cost = [](CostClass cls, double pscale, double gscale) {
    Runtime rt(2, Topology(MachineProfile::tianhe2(), 2), pscale, gscale);
    std::vector<std::byte> payload(100000);
    rt.superstep("x", [&](Comm& c) {
      if (c.rank() == 0) c.send(1, 0, payload, cls);
    });
    return rt.phase_stats("x").bytes;
  };
  EXPECT_DOUBLE_EQ(comm_cost(CostClass::kParticle, 7.0, 3.0), 700000.0);
  EXPECT_DOUBLE_EQ(comm_cost(CostClass::kGrid, 7.0, 3.0), 300000.0);
}

TEST(Runtime, PhaseStatsForUnknownPhaseAreZero) {
  Runtime rt = make_runtime(2);
  const PhaseStats s = rt.phase_stats("never-used");
  EXPECT_EQ(s.busy_max, 0.0);
  EXPECT_EQ(s.transactions, 0u);
}

TEST(Runtime, ChargeRankOutsideSuperstep) {
  Runtime rt = make_runtime(3);
  rt.charge_rank("p", 1, WorkKind::kPartitionEdge, 1e6);
  EXPECT_GT(rt.clock(1), 0.0);
  EXPECT_EQ(rt.clock(0), 0.0);
  EXPECT_GT(rt.phase_stats("p").busy_max, 0.0);
}

// The routing contract after per-rank staging: every inbox receives its
// messages sorted by source rank, ties broken by the order the source sent
// them ("src-major, send-order"). This is what the sequential 0..N-1
// schedule always produced; the per-sender staging buffers preserve it
// under threaded execution by merging buffers in rank order.
TEST(Runtime, InboxOrderingIsSrcMajorSendOrder) {
  for (const ExecMode mode : {ExecMode::kSequential, ExecMode::kThreaded}) {
    Runtime rt(4, Topology(MachineProfile::tianhe2(), 4), 1.0, 1.0,
               ExecOptions{mode, 3});
    rt.superstep("send", [](Comm& c) {
      // Every rank sends two tagged messages to rank 0, second one first to
      // a different destination so buffers interleave destinations too.
      c.send(0, /*tag=*/c.rank() * 10 + 0, {});
      c.send(1, /*tag=*/c.rank() * 10 + 5, {});
      c.send(0, /*tag=*/c.rank() * 10 + 1, {});
    });
    rt.superstep("recv", [&](Comm& c) {
      if (c.rank() == 0) {
        ASSERT_EQ(c.inbox().size(), 8u);
        for (int src = 0; src < 4; ++src) {
          EXPECT_EQ(c.inbox()[2 * src].src, src);
          EXPECT_EQ(c.inbox()[2 * src].tag, src * 10 + 0);
          EXPECT_EQ(c.inbox()[2 * src + 1].src, src);
          EXPECT_EQ(c.inbox()[2 * src + 1].tag, src * 10 + 1);
        }
      }
      if (c.rank() == 1) {
        ASSERT_EQ(c.inbox().size(), 4u);
        for (int src = 0; src < 4; ++src) {
          EXPECT_EQ(c.inbox()[src].src, src);
          EXPECT_EQ(c.inbox()[src].tag, src * 10 + 5);
        }
      }
    });
  }
}

// Threaded dispatch must be invisible in every accounted number: same
// clocks (bitwise), same phase stats, same message costs.
TEST(Runtime, ThreadedSuperstepsMatchSequentialBitwise) {
  auto run = [](ExecMode mode) {
    Runtime rt(8, Topology(MachineProfile::tianhe2(), 8), 3.0, 2.0,
               ExecOptions{mode, 4});
    for (int s = 0; s < 6; ++s) {
      rt.superstep("work", [s](Comm& c) {
        c.charge(WorkKind::kMove, 137.0 * (c.rank() + 1) + s);
        const std::vector<double> x{1.0 + c.rank(), 2.0};
        c.send_pod<double>((c.rank() + 1 + s) % c.size(), s, x);
        if (c.rank() % 2 == 0)
          c.send_pod<double>((c.rank() + 3) % c.size(), 100 + s, x,
                             CostClass::kGrid);
      });
      rt.superstep("drain", [](Comm& c) {
        double acc = 0.0;
        for (const auto& m : c.inbox())
          for (const double v : m.view<double>()) acc += v;
        c.charge(WorkKind::kVecFlop, acc);
      });
    }
    rt.barrier("end");
    return rt;
  };
  const Runtime a = run(ExecMode::kSequential);
  const Runtime b = run(ExecMode::kThreaded);
  for (int r = 0; r < a.size(); ++r) EXPECT_EQ(a.clock(r), b.clock(r));
  ASSERT_EQ(a.phases(), b.phases());
  for (const auto& p : a.phases()) {
    const PhaseStats sa = a.phase_stats(p);
    const PhaseStats sb = b.phase_stats(p);
    EXPECT_EQ(sa.busy_max, sb.busy_max) << p;
    EXPECT_EQ(sa.busy_min, sb.busy_min) << p;
    EXPECT_EQ(sa.busy_sum, sb.busy_sum) << p;
    EXPECT_EQ(sa.transactions, sb.transactions) << p;
    EXPECT_EQ(sa.bytes, sb.bytes) << p;
    EXPECT_EQ(a.phase_busy(p), b.phase_busy(p)) << p;
  }
}

TEST(Runtime, ThreadedExposesLaneCount) {
  Runtime seq = make_runtime(4);
  EXPECT_EQ(seq.exec_mode(), ExecMode::kSequential);
  EXPECT_EQ(seq.exec_threads(), 1);
  Runtime thr(4, Topology(MachineProfile::tianhe2(), 4), 1.0, 1.0,
              ExecOptions{ExecMode::kThreaded, 3});
  EXPECT_EQ(thr.exec_mode(), ExecMode::kThreaded);
  EXPECT_EQ(thr.exec_threads(), 3);
}

TEST(Runtime, HintInsideSuperstepBodyThrows) {
  Runtime rt = make_runtime(2);
  EXPECT_THROW(
      rt.superstep("bad", [&](Comm& c) {
        if (c.rank() == 0) rt.hint_round_transactions(7);
      }),
      Error);
}

TEST(Runtime, PayloadPoolStopsAllocatingInSteadyState) {
  // A fixed communication pattern repeated over supersteps: after the first
  // two rounds (messages recycle to the sender's pool one superstep after
  // delivery), acquires keep growing but misses — fresh allocations — stop.
  Runtime rt = make_runtime(4);
  auto round = [&] {
    rt.superstep("ring", [](Comm& c) {
      std::vector<double> vals(16, static_cast<double>(c.rank()));
      c.send_pod<double>((c.rank() + 1) % c.size(), 0, vals,
                         CostClass::kParticle);
    });
  };
  for (int i = 0; i < 3; ++i) round();
  const PoolStats warm = rt.pool_stats();
  EXPECT_GT(warm.acquires, 0u);
  for (int i = 0; i < 5; ++i) round();
  const PoolStats steady = rt.pool_stats();
  EXPECT_EQ(steady.misses, warm.misses) << "steady-state supersteps allocated";
  EXPECT_GT(steady.acquires, warm.acquires);
  EXPECT_GT(steady.recycles, warm.recycles);
}

// Every number a routing accounts for: clocks, busy rows, phase stats and,
// when a recorder is attached, its message records.
struct Routed {
  std::vector<double> clocks;
  std::vector<PhaseStats> stats;
  std::vector<std::vector<double>> busy;
  std::vector<trace::MessageRec> msgs;
};

Routed routed(const Runtime& rt, const trace::TraceRecorder* rec) {
  Routed o;
  for (int r = 0; r < rt.size(); ++r) o.clocks.push_back(rt.clock(r));
  for (const auto& p : rt.phases()) {
    o.stats.push_back(rt.phase_stats(p));
    o.busy.push_back(rt.phase_busy(p));
  }
  if (rec) o.msgs = rec->messages();
  return o;
}

void expect_same_routing(const Routed& a, const Routed& b) {
  EXPECT_EQ(a.clocks, b.clocks);
  EXPECT_EQ(a.busy, b.busy);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].busy_max, b.stats[i].busy_max);
    EXPECT_EQ(a.stats[i].busy_min, b.stats[i].busy_min);
    EXPECT_EQ(a.stats[i].busy_sum, b.stats[i].busy_sum);
    EXPECT_EQ(a.stats[i].transactions, b.stats[i].transactions);
    EXPECT_EQ(a.stats[i].bytes, b.stats[i].bytes);
  }
  ASSERT_EQ(a.msgs.size(), b.msgs.size());
  for (std::size_t i = 0; i < a.msgs.size(); ++i) {
    const trace::MessageRec& x = a.msgs[i];
    const trace::MessageRec& y = b.msgs[i];
    EXPECT_EQ(std::tie(x.src, x.dst, x.tag, x.bytes, x.phase, x.seq),
              std::tie(y.src, y.dst, y.tag, y.bytes, y.phase, y.seq));
    EXPECT_EQ(std::tie(x.scaled_bytes, x.send_begin, x.send_end,
                       x.recv_begin, x.recv_end),
              std::tie(y.scaled_bytes, y.send_begin, y.send_end,
                       y.recv_begin, y.recv_end));
  }
}

// A MessageRound must be indistinguishable from the same messages sent as
// pooled payloads in every accounted number — clocks, busy rows, phase
// stats and trace message records — on the per-message NIC-serialization
// path and on the hinted congestion path, under both exec modes, with and
// without a recorder attached. It queues nothing for delivery and touches
// no payload pool.
TEST(Runtime, RoundMatchesPooledPayloadMessages) {
  // Rank r's k-th message carries 24 r k bytes to rank r + k + 1 (mod 6).
  auto dst_of = [](int r, int k) { return (r + k + 1) % 6; };
  auto bytes_of = [](int r, int k) {
    return 24 * static_cast<std::size_t>(r * k);
  };
  auto run = [&](bool as_round, bool hinted, ExecMode mode, bool nic,
                 bool traced, PoolStats* pool = nullptr) {
    MachineProfile prof = MachineProfile::tianhe2();
    prof.cores_per_node = 2;  // 6 ranks on 3 nodes: inter-node NIC traffic
    if (!nic) prof.nic_overhead = 0.0;
    Runtime rt(6, Topology(prof, 6), 3.0, 2.0, ExecOptions{mode, 3});
    trace::TraceRecorder rec(6);
    if (traced) rt.set_tracer(&rec);
    MessageRound round(/*tag=*/7, CostClass::kGrid);
    for (int r = 0; r < 6; ++r)
      for (int k = 0; k < 4; ++k) round.add(r, dst_of(r, k), bytes_of(r, k));
    if (hinted) rt.hint_round_transactions(30);
    const auto body = [&](Comm& c) {
      for (int k = 0; k < 4; ++k) {
        const std::size_t nbytes = bytes_of(c.rank(), k);
        c.charge(WorkKind::kPackByte, static_cast<double>(nbytes));
        if (!as_round)
          c.send_pod<std::byte>(dst_of(c.rank(), k), 7,
                                std::vector<std::byte>(nbytes),
                                CostClass::kGrid);
      }
    };
    if (as_round)
      rt.superstep("round", body, round);
    else
      rt.superstep("round", body);
    EXPECT_EQ(rt.undelivered_messages(), as_round ? 0u : 24u);
    rt.superstep("drain", [&](Comm& c) {
      EXPECT_EQ(c.inbox().size(), as_round ? 0u : 4u);
    });
    rt.barrier("end");
    if (pool) *pool = rt.pool_stats();
    return routed(rt, traced ? &rec : nullptr);
  };
  for (const bool hinted : {false, true}) {
    SCOPED_TRACE(hinted ? "hinted round" : "NIC-serialized round");
    PoolStats pool;
    const Routed b = run(/*as_round=*/false, hinted, ExecMode::kSequential,
                         /*nic=*/true, /*traced=*/true, &pool);
    EXPECT_EQ(pool.acquires, 24u);
    ASSERT_EQ(b.msgs.size(), 24u);
    for (const ExecMode mode : {ExecMode::kSequential, ExecMode::kThreaded})
      for (const bool traced : {true, false}) {
        SCOPED_TRACE(std::string(exec_mode_name(mode)) +
                     (traced ? ", traced" : ", untraced"));
        const Routed a = run(/*as_round=*/true, hinted, mode, /*nic=*/true,
                             traced, &pool);
        EXPECT_EQ(pool.acquires, 0u);
        EXPECT_EQ(pool.recycles, 0u);
        Routed want = b;
        if (!traced) want.msgs.clear();
        expect_same_routing(a, want);
      }
    // The NIC term is live on this path: without it the clocks differ.
    EXPECT_NE(run(true, hinted, ExecMode::kSequential, /*nic=*/false,
                  /*traced=*/false)
                  .clocks,
              b.clocks);
  }
}

// A round keeps its prices from one routing to the next only while the
// routing runtime and its active rank count stay the same and no congestion
// hint is pending. Whatever it reuses, each routing must equal the same
// messages sent as pooled payloads: one round routed four times across a
// shrink and a grow of the active set, with a pending hint on each routing
// in turn or on none, and one round routed alternately on two runtimes with
// different profiles; under both exec modes, with the NIC term on and off,
// with and without a recorder.
TEST(Runtime, RoundReusesPricesBitForBit) {
  // Ranks 0-5 of 8 (2 per node) each send 3 messages among themselves, so
  // the round stays routable with 6 active ranks, on 3 nodes instead of 4.
  auto dst_of = [](int r, int k) { return (r + 2 * k + 1) % 6; };
  auto bytes_of = [](int r, int k) {
    return 16 * static_cast<std::size_t>(1 + r + 3 * k);
  };
  MessageRound round(/*tag=*/5, CostClass::kGrid);
  for (int r = 0; r < 6; ++r)
    for (int k = 0; k < 3; ++k) round.add(r, dst_of(r, k), bytes_of(r, k));

  struct Side {
    Runtime rt;
    trace::TraceRecorder rec;
    Side(const MachineProfile& prof, ExecMode mode, bool traced)
        : rt(8, Topology(prof, 8), 3.0, 2.0, ExecOptions{mode, 3}), rec(8) {
      if (traced) rt.set_tracer(&rec);
    }
  };
  // One routing on `s`: the round itself, or its messages as pooled sends
  // (rank 5 sending `rank5_sends`). The body charges rank-dependent work,
  // so every clock differs.
  auto route = [&](Side& s, bool as_round, bool hinted, int rank5_sends = 3) {
    if (hinted) s.rt.hint_round_transactions(40);
    const auto body = [&](Comm& c) {
      c.charge(WorkKind::kVecFlop, 1000.0 * (c.rank() + 1));
      if (as_round || c.rank() >= 6) return;
      for (int k = 0; k < (c.rank() == 5 ? rank5_sends : 3); ++k)
        c.send_pod<std::byte>(dst_of(c.rank(), k), 5,
                              std::vector<std::byte>(bytes_of(c.rank(), k)),
                              CostClass::kGrid);
    };
    if (as_round)
      s.rt.superstep("halo", body, round);
    else
      s.rt.superstep("halo", body);
    s.rt.superstep("drain", [](Comm&) {});
  };
  auto profile = [](MachineProfile prof, bool nic) {
    prof.cores_per_node = 2;
    if (!nic) prof.nic_overhead = 0.0;
    return prof;
  };

  for (const ExecMode mode : {ExecMode::kSequential, ExecMode::kThreaded})
    for (const bool nic : {true, false})
      for (const bool traced : {false, true}) {
        SCOPED_TRACE(std::string(exec_mode_name(mode)) +
                     (nic ? ", NIC on" : ", NIC off") +
                     (traced ? ", traced" : ", untraced"));
        const MachineProfile t2 = profile(MachineProfile::tianhe2(), nic);
        for (const int hinted_at : {-1, 0, 1, 2, 3}) {
          SCOPED_TRACE("hint on routing " + std::to_string(hinted_at));
          Side a(t2, mode, traced), b(t2, mode, traced);
          for (int i = 0; i < 4; ++i) {
            SCOPED_TRACE("routing " + std::to_string(i));
            const int active = i == 1 ? 6 : 8;  // shrink, then grow back
            a.rt.set_active_ranks(active);
            b.rt.set_active_ranks(active);
            route(a, /*as_round=*/true, i == hinted_at);
            route(b, /*as_round=*/false, i == hinted_at);
            expect_same_routing(routed(a.rt, traced ? &a.rec : nullptr),
                                routed(b.rt, traced ? &b.rec : nullptr));
          }
        }
        // Two runtimes of different profiles take turns with one round.
        const MachineProfile t3 = profile(MachineProfile::tianhe3(), nic);
        Side a2(t2, mode, traced), b2(t2, mode, traced);
        Side a3(t3, mode, traced), b3(t3, mode, traced);
        for (int i = 0; i < 3; ++i) {
          SCOPED_TRACE("turn " + std::to_string(i));
          route(a2, true, false);
          route(b2, false, false);
          route(a3, true, false);
          route(b3, false, false);
          expect_same_routing(routed(a2.rt, traced ? &a2.rec : nullptr),
                              routed(b2.rt, traced ? &b2.rec : nullptr));
          expect_same_routing(routed(a3.rt, traced ? &a3.rec : nullptr),
                              routed(b3.rt, traced ? &b3.rec : nullptr));
        }
      }

  // A message added after a routing drops the kept prices: the next
  // routing prices the longer round.
  const MachineProfile t2 = profile(MachineProfile::tianhe2(), true);
  Side a(t2, ExecMode::kSequential, false), b(t2, ExecMode::kSequential, false);
  route(a, true, false);
  route(b, false, false);
  round.add(5, dst_of(5, 3), bytes_of(5, 3));
  route(a, true, false, 4);
  route(b, false, false, 4);
  expect_same_routing(routed(a.rt, nullptr), routed(b.rt, nullptr));
}

TEST(Runtime, RoundSuperstepRejectsSendsAndBadRanks) {
  for (const ExecMode mode : {ExecMode::kSequential, ExecMode::kThreaded}) {
    SCOPED_TRACE(exec_mode_name(mode));
    Runtime rt(4, Topology(MachineProfile::tianhe2(), 4), 1.0, 1.0,
               ExecOptions{mode, 3});
    MessageRound round(0, CostClass::kGrid);
    round.add(0, 1, 8);
    round.add(2, 3, 8);
    // The round is the superstep's messages: a body may not add its own.
    const auto sends = [](Comm& c) {
      if (c.rank() == 1) c.send_pod<int>(0, 0, std::vector<int>{1});
    };
    EXPECT_THROW(rt.superstep("bad", sends, round), Error);
  }
  MessageRound round(0, CostClass::kGrid);
  round.add(1, 0, 8);
  EXPECT_THROW(round.add(0, 1, 8), Error) << "senders must ascend";
  EXPECT_THROW(round.add(1, -1, 8), Error);
  round.add(3, 0, 8);
  Runtime rt = make_runtime(4);
  rt.set_active_ranks(3);
  EXPECT_THROW(rt.superstep("parked", [](Comm&) {}, round), Error)
      << "rank 3 is parked";
}

// A busy row shorter or longer than the rank count would let the next
// charge write past it; load rejects it instead.
TEST(Runtime, LoadRejectsBusyRowOfWrongLength) {
  Runtime a = make_runtime(4);
  a.superstep("work", [](Comm& c) {
    c.charge(WorkKind::kMove, 1e6 * (c.rank() + 1));
  });
  std::stringstream ss;
  a.save(ss);
  const std::string saved = ss.str();
  {
    std::istringstream is(saved);
    Runtime b = make_runtime(4);
    EXPECT_NO_THROW(b.load(is));
  }
  // The row's u64 length follows the phase name.
  const std::size_t at = saved.find("work") + 4;
  std::uint64_t len = 0;
  std::memcpy(&len, saved.data() + at, sizeof(len));
  ASSERT_EQ(len, 4u);
  for (const std::uint64_t bad : {std::uint64_t{3}, std::uint64_t{5}}) {
    std::string patched = saved;
    std::memcpy(patched.data() + at, &bad, sizeof(bad));
    std::istringstream is(patched);
    Runtime b = make_runtime(4);
    EXPECT_THROW(b.load(is), Error) << "row of " << bad;
  }
}

TEST(Runtime, AcquiredPayloadsAreZeroFilled) {
  // A recycled buffer must come back holding the new message alone, exactly
  // like a fresh one — otherwise a send would leak the previous message.
  Runtime rt = make_runtime(2);
  rt.superstep("dirty", [](Comm& c) {
    if (c.rank() != 0) return;
    c.send_pod<std::byte>(1, 0, std::vector<std::byte>(64, std::byte{0xFF}),
                          CostClass::kParticle);
  });
  rt.superstep("deliver", [](Comm& c) {
    if (c.rank() == 1) {
      ASSERT_EQ(c.inbox().size(), 1u);
    }
  });
  // The dirty buffer recycled to rank 0's pool; a smaller send must
  // best-fit it and still deliver zeroes.
  rt.superstep("reuse", [](Comm& c) {
    if (c.rank() != 0) return;
    c.send_pod<std::byte>(1, 0, std::vector<std::byte>(32),
                          CostClass::kParticle);
  });
  const PoolStats st = rt.pool_stats();
  EXPECT_EQ(st.recycles, 1u);
  EXPECT_EQ(st.misses, 1u) << "the second send reuses the recycled buffer";
  rt.superstep("check", [](Comm& c) {
    if (c.rank() != 1) return;
    ASSERT_EQ(c.inbox().size(), 1u);
    const auto p = c.inbox()[0].view<std::byte>();
    ASSERT_EQ(p.size(), 32u);
    for (const std::byte b : p) EXPECT_EQ(b, std::byte{0});
  });
}

TEST(Runtime, ActiveRankShrinkFreezesParkedClocks) {
  Runtime rt = make_runtime(4);
  rt.superstep("warm", [](Comm& c) { c.charge(WorkKind::kGeneric, 100.0); });
  rt.barrier("warm");
  const double frozen = rt.clock(3);
  rt.set_active_ranks(2);
  EXPECT_EQ(rt.active_ranks(), 2);
  std::vector<int> ran(4, 0);
  rt.superstep("shrunk", [&](Comm& c) {
    ran[static_cast<std::size_t>(c.rank())] = 1;
    c.charge(WorkKind::kGeneric, 50.0);
  });
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 0, 0}));
  EXPECT_EQ(rt.clock(3), frozen) << "parked clocks must not advance";
  EXPECT_GT(rt.clock(0), frozen);
}

TEST(Runtime, ActiveRankGrowJoinsAtFrontier) {
  Runtime rt = make_runtime(4);
  rt.set_active_ranks(2);
  rt.superstep("half", [](Comm& c) { c.charge(WorkKind::kGeneric, 1000.0); });
  rt.barrier("half");
  const double frontier = rt.clock(0);
  rt.set_active_ranks(4);
  // Reactivated ranks cannot time-travel: they rejoin at the active
  // frontier, never behind it.
  EXPECT_GE(rt.clock(2), frontier);
  EXPECT_GE(rt.clock(3), frontier);
  std::vector<int> ran(4, 0);
  rt.superstep("full", [&](Comm& c) {
    ran[static_cast<std::size_t>(c.rank())] = 1;
  });
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1}));
}

TEST(Runtime, SetActiveRanksValidation) {
  Runtime rt = make_runtime(4);
  EXPECT_THROW(rt.set_active_ranks(0), Error);
  EXPECT_THROW(rt.set_active_ranks(5), Error);
  rt.superstep("fly", [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> v{1.0};
      c.send_pod<double>(1, 0, v, CostClass::kParticle);
    }
  });
  // Messages in flight: resizing would strand them.
  EXPECT_THROW(rt.set_active_ranks(2), Error);
  rt.superstep("drain", [](Comm&) {});
  rt.set_active_ranks(2);
  EXPECT_EQ(rt.active_ranks(), 2);
}

TEST(Runtime, SendToParkedRankThrows) {
  Runtime rt = make_runtime(4);
  rt.set_active_ranks(2);
  EXPECT_THROW(rt.superstep("bad",
                            [](Comm& c) {
                              if (c.rank() != 0) return;
                              std::vector<double> v{1.0};
                              c.send_pod<double>(3, 0, v,
                                                 CostClass::kParticle);
                            }),
               Error);
}

TEST(Runtime, HintAllPairsMatchesExplicitDenseHint) {
  // The runtime-owned all-pairs hint must charge exactly what the dense
  // exchange's explicit N(N-1) hint charges — and track the active set.
  auto phase_time = [](int nranks, int active, bool explicit_hint) {
    Runtime rt(6, Topology(MachineProfile::tianhe2(), 6), 1.0, 1.0);
    if (active < nranks) rt.set_active_ranks(active);
    if (explicit_hint)
      rt.hint_round_transactions(static_cast<std::uint64_t>(active) *
                                 static_cast<std::uint64_t>(active - 1));
    else
      rt.hint_round_transactions_all_pairs();
    std::vector<std::byte> payload(4096);
    rt.superstep("x", [&](Comm& c) {
      if (c.rank() == 0) c.send(1, 0, payload, CostClass::kParticle);
    });
    rt.barrier("x");
    return rt.total_time();
  };
  EXPECT_EQ(phase_time(6, 6, true), phase_time(6, 6, false));
  EXPECT_EQ(phase_time(6, 4, true), phase_time(6, 4, false));
  // Fewer active pairs -> less congestion -> strictly cheaper round.
  EXPECT_LT(phase_time(6, 4, false), phase_time(6, 6, false));
}

TEST(Runtime, SuperstepCounterCounts) {
  Runtime rt = make_runtime(2);
  EXPECT_EQ(rt.supersteps(), 0u);
  rt.superstep("a", [](Comm&) {});
  rt.superstep("b", [](Comm&) {});
  EXPECT_EQ(rt.supersteps(), 2u);
}

TEST(ExecMode, ParseAndName) {
  EXPECT_EQ(parse_exec_mode("seq"), ExecMode::kSequential);
  EXPECT_EQ(parse_exec_mode("sequential"), ExecMode::kSequential);
  EXPECT_EQ(parse_exec_mode("threaded"), ExecMode::kThreaded);
  EXPECT_THROW(parse_exec_mode("gpu"), Error);
  EXPECT_STREQ(exec_mode_name(ExecMode::kThreaded), "threaded");
  EXPECT_STREQ(exec_mode_name(ExecMode::kSequential), "seq");
}

TEST(MachineProfiles, ThreePlatformsDiffer) {
  const auto t2 = MachineProfile::tianhe2();
  const auto bs = MachineProfile::bscc();
  const auto t3 = MachineProfile::tianhe3();
  EXPECT_EQ(t2.cores_per_node, 24);
  EXPECT_EQ(bs.cores_per_node, 96);
  EXPECT_EQ(t3.cores_per_node, 64);
  // ARM cores are slower per-core, BSCC faster than Tianhe-2.
  const int mv = static_cast<int>(WorkKind::kMove);
  EXPECT_GT(t3.costs[mv], t2.costs[mv]);
  EXPECT_LT(bs.costs[mv], t2.costs[mv]);
  // Bandwidth ordering: Tianhe-3 200Gbps > Tianhe-2 160 > BSCC 100.
  EXPECT_LT(t3.beta, t2.beta);
  EXPECT_LT(t2.beta, bs.beta);
}

}  // namespace
}  // namespace dsmcpic::par
