#include "exchange/exchange.hpp"

#include <algorithm>
#include <map>

#include "support/error.hpp"

namespace dsmcpic::exchange {

namespace {

using dsmc::ParticleRecord;
using dsmc::ParticleStore;

/// Extracts (and removes from the store) every live particle whose cell is
/// owned by another rank; drops particles flagged as removed. Returns the
/// number of pre-flagged (dead) particles dropped; the extracted records
/// are grouped per destination in `outgoing`.
///
/// Each destination batch is canonicalized by ascending particle id before
/// it ships. Without this a batch inherits the SOURCE store's iteration
/// order, which is memory-layout history (it differs between cell-sorted
/// and unsorted runs, DESIGN.md §2g) — so message payloads, and the
/// receiver's store layout, would depend on the sender's layout. Per-cell
/// traversal semantics are already layout-independent (CellIndex
/// canonicalizes by id), so this sort is about keeping the wire format and
/// the delivered append order deterministic functions of the particle SET.
/// Ids are unique per step (reindex reassigns them globally; spawned-ion
/// ids are 63-bit draws, collision odds ~N/2^63); the stable sort pins any
/// tie to source order.
std::int64_t extract_outgoing(ParticleStore& store,
                              std::vector<std::uint8_t>& removed,
                              std::span<const std::int32_t> cell_owner,
                              int my_rank,
                              std::map<int, std::vector<ParticleRecord>>& outgoing) {
  DSMCPIC_CHECK(removed.size() == store.size());
  const auto cells = store.cells();
  std::int64_t dropped = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (removed[i]) {
      ++dropped;
      continue;
    }
    const int dest = cell_owner[cells[i]];
    if (dest == my_rank) continue;
    outgoing[dest].push_back(store.record(i));
    removed[i] = 1;  // reuse the flag to drop it in the compaction below
  }
  for (auto& [dest, recs] : outgoing)
    std::stable_sort(recs.begin(), recs.end(),
                     [](const ParticleRecord& a, const ParticleRecord& b) {
                       return a.id < b.id;
                     });
  store.remove_flagged(removed);
  removed.assign(store.size(), 0);
  return dropped;
}

/// Charges the packing of `recs` and sends them to `dst` as one payload.
void ship(par::Comm& c, int dst, std::span<const ParticleRecord> recs) {
  c.charge(par::WorkKind::kPackByte, static_cast<double>(recs.size_bytes()));
  c.send_pod<ParticleRecord>(dst, 0, recs);
}

void append_records(ParticleStore& store, std::span<const ParticleRecord> recs) {
  for (const auto& r : recs) store.add(r);
}

/// The last superstep of every strategy: each rank appends what it received
/// and resets its removal flags. Then the per-rank migration and drop
/// counts are summed here; the bodies wrote one slot per rank, as they may
/// run on worker threads.
ExchangeStats deliver(par::Runtime& rt, const std::string& phase,
                      std::vector<ParticleStore>& stores,
                      std::vector<std::vector<std::uint8_t>>& removed,
                      std::span<const std::int64_t> migrated,
                      std::span<const std::int64_t> dropped) {
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    for (const auto& msg : c.inbox())
      append_records(stores[r], msg.view<ParticleRecord>());
    removed[r].assign(stores[r].size(), 0);
  });

  ExchangeStats stats;
  for (const std::int64_t m : migrated) stats.migrated += m;
  for (const std::int64_t d : dropped) stats.dropped += d;
  for (int r = 0; r < rt.active_ranks(); ++r)
    stats.kept += static_cast<std::int64_t>(stores[r].size());
  stats.kept -= stats.migrated;
  return stats;
}

ExchangeStats exchange_centralized(par::Runtime& rt, const std::string& phase,
                                   std::vector<ParticleStore>& stores,
                                   std::vector<std::vector<std::uint8_t>>& removed,
                                   std::span<const std::int32_t> cell_owner,
                                   int root) {
  const int nranks = rt.active_ranks();
  // Root-side staging for classify: records pooled from everyone.
  std::vector<ParticleRecord> root_pool;
  // Only the root relays, so only its migration slot fills.
  std::vector<std::int64_t> migrated(nranks, 0), dropped(nranks, 0);

  // Stage 1 — gather: every rank ships ALL its outgoing to the root in one
  // message (root's own outgoing goes straight to the pool).
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    std::map<int, std::vector<ParticleRecord>> outgoing;
    dropped[r] = extract_outgoing(stores[r], removed[r], cell_owner, r, outgoing);
    std::vector<ParticleRecord> all;
    for (auto& [dest, recs] : outgoing)
      all.insert(all.end(), recs.begin(), recs.end());
    c.charge(par::WorkKind::kScan, static_cast<double>(stores[r].size()));
    c.charge(par::WorkKind::kClassify, static_cast<double>(all.size()));
    if (r == root) {
      root_pool.insert(root_pool.end(), all.begin(), all.end());
    } else if (!all.empty()) {
      ship(c, root, all);
    }
  });

  // Stage 2 — classify at the root, then scatter per destination.
  rt.superstep(phase, [&](par::Comm& c) {
    if (c.rank() != root) return;
    for (const auto& msg : c.inbox()) {
      const auto recs = msg.view<ParticleRecord>();
      root_pool.insert(root_pool.end(), recs.begin(), recs.end());
    }
    // Classification by destination process (paper Fig. 3 "classify"):
    // the root makes three serialized passes over every record it relays —
    // unpack from the gather buffers, classify by destination, repack into
    // the scatter buffers. This root-side processing is what makes CC lose
    // to DC on Tianhe-2 at scale (paper Table II).
    c.charge(par::WorkKind::kClassify, 3.0 * static_cast<double>(root_pool.size()));
    std::map<int, std::vector<ParticleRecord>> by_dest;
    for (const auto& rec : root_pool)
      by_dest[cell_owner[rec.cell]].push_back(rec);
    migrated[root] = static_cast<std::int64_t>(root_pool.size());
    root_pool.clear();
    for (auto& [dest, recs] : by_dest) {
      if (dest == root) {
        append_records(stores[root], recs);
        continue;
      }
      ship(c, dest, recs);
    }
  });

  // Stage 3 — deliver.
  return deliver(rt, phase, stores, removed, migrated, dropped);
}

ExchangeStats exchange_distributed(par::Runtime& rt, const std::string& phase,
                                   std::vector<ParticleStore>& stores,
                                   std::vector<std::vector<std::uint8_t>>& removed,
                                   std::span<const std::int32_t> cell_owner) {
  const int nranks = rt.active_ranks();
  std::vector<std::int64_t> migrated(nranks, 0), dropped(nranks, 0);

  // The paper's implementation performs a synchronized two-round send/recv
  // across ALL ordered pairs (Sec. IV-B2), i.e. N(N-1) transactions even
  // when a pair has nothing to exchange. We ship real payloads only where
  // non-empty, charge the empty pairs' handshake latency explicitly, and
  // hint the full transaction count to the congestion model (the runtime
  // computes it from the active rank set, so the hint never drifts from the
  // population that actually exchanged).
  rt.hint_round_transactions_all_pairs();
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    std::map<int, std::vector<ParticleRecord>> outgoing;
    dropped[r] = extract_outgoing(stores[r], removed[r], cell_owner, r, outgoing);
    c.charge(par::WorkKind::kScan, static_cast<double>(stores[r].size()));
    for (int peer = 0; peer < nranks; ++peer) {
      if (peer == r) continue;
      const auto it = outgoing.find(peer);
      if (it == outgoing.end() || it->second.empty()) {
        // Empty ordered pair: still pays send+recv latency in both rounds.
        c.charge_comm_seconds(2.0 * c.alpha_to(peer));
        continue;
      }
      migrated[r] += static_cast<std::int64_t>(it->second.size());
      c.charge(par::WorkKind::kClassify, static_cast<double>(it->second.size()));
      ship(c, peer, it->second);
    }
  });

  return deliver(rt, phase, stores, removed, migrated, dropped);
}

/// Hierarchical exchange: intra-node funnel to the node leader, all-to-all
/// between node leaders, intra-node fan-out. Three supersteps.
ExchangeStats exchange_hierarchical(par::Runtime& rt, const std::string& phase,
                                    std::vector<ParticleStore>& stores,
                                    std::vector<std::vector<std::uint8_t>>& removed,
                                    std::span<const std::int32_t> cell_owner) {
  const int nranks = rt.active_ranks();
  const int ppn = rt.topology().profile().cores_per_node;
  const int nodes = rt.active_nodes();
  auto leader_of = [ppn](int rank) { return (rank / ppn) * ppn; };

  std::vector<std::int64_t> migrated(nranks, 0), dropped(nranks, 0);

  // Stage 1 — funnel: every rank classifies and ships its whole outgoing
  // set to its node leader (leaders keep theirs locally).
  std::vector<std::vector<ParticleRecord>> leader_pool(nranks);
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    std::map<int, std::vector<ParticleRecord>> outgoing;
    dropped[r] = extract_outgoing(stores[r], removed[r], cell_owner, r, outgoing);
    c.charge(par::WorkKind::kScan, static_cast<double>(stores[r].size()));
    std::vector<ParticleRecord> all;
    for (auto& [dest, recs] : outgoing) {
      migrated[r] += static_cast<std::int64_t>(recs.size());
      all.insert(all.end(), recs.begin(), recs.end());
    }
    const int leader = leader_of(r);
    if (r == leader) {
      leader_pool[r].insert(leader_pool[r].end(), all.begin(), all.end());
    } else if (!all.empty()) {
      ship(c, leader, all);
    }
  });

  // Stage 2 — leaders exchange between nodes (all ordered leader pairs pay
  // the handshake, like DC but with N_nodes instead of N).
  rt.hint_round_transactions(static_cast<std::uint64_t>(nodes) *
                             std::max(0, nodes - 1));
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    if (r != leader_of(r)) return;
    for (const auto& msg : c.inbox()) {
      const auto recs = msg.view<ParticleRecord>();
      leader_pool[r].insert(leader_pool[r].end(), recs.begin(), recs.end());
    }
    c.charge(par::WorkKind::kClassify,
             static_cast<double>(leader_pool[r].size()));
    // Split the pool by destination node leader; keep same-node records.
    std::map<int, std::vector<ParticleRecord>> by_leader;
    for (const auto& rec : leader_pool[r])
      by_leader[leader_of(cell_owner[rec.cell])].push_back(rec);
    leader_pool[r].clear();
    for (int peer = 0; peer < nranks; peer += ppn) {
      if (peer == r) continue;
      const auto it = by_leader.find(peer);
      if (it == by_leader.end() || it->second.empty()) {
        c.charge_comm_seconds(2.0 * c.alpha_to(peer));
        continue;
      }
      ship(c, peer, it->second);
    }
    if (auto it = by_leader.find(r); it != by_leader.end())
      leader_pool[r] = std::move(it->second);
  });

  // Stage 3 — fan out within each node to the final owners.
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    if (r != leader_of(r)) return;
    for (const auto& msg : c.inbox()) {
      const auto recs = msg.view<ParticleRecord>();
      leader_pool[r].insert(leader_pool[r].end(), recs.begin(), recs.end());
    }
    c.charge(par::WorkKind::kClassify,
             static_cast<double>(leader_pool[r].size()));
    std::map<int, std::vector<ParticleRecord>> by_rank;
    for (const auto& rec : leader_pool[r])
      by_rank[cell_owner[rec.cell]].push_back(rec);
    leader_pool[r].clear();
    for (auto& [dest, recs] : by_rank) {
      if (dest == r) {
        append_records(stores[r], recs);
        continue;
      }
      ship(c, dest, recs);
    }
  });

  // Stage 4 — deliver.
  return deliver(rt, phase, stores, removed, migrated, dropped);
}

/// Neighbor exchange: DC's two-round semantics, but each rank's handshake
/// loop walks only its partition-adjacency neighbor list — O(degree) host
/// work per rank instead of O(N). Particles whose destination is NOT a
/// neighbor (long migrations) still ship directly; they just skip the
/// handshake charge, which DC also folds into the payload cost for
/// non-empty pairs. The dense N(N-1) logical-transaction cost is preserved
/// through hint_round_transactions_all_pairs, so NC and DC see the same
/// congestion pressure; what changes is the host-side loop count.
ExchangeStats exchange_neighbor(par::Runtime& rt, const std::string& phase,
                                std::vector<ParticleStore>& stores,
                                std::vector<std::vector<std::uint8_t>>& removed,
                                std::span<const std::int32_t> cell_owner,
                                const std::vector<std::vector<int>>& neighbors) {
  const int nranks = rt.active_ranks();
  DSMCPIC_CHECK_MSG(static_cast<int>(neighbors.size()) >= nranks,
                    "neighbor lists cover " << neighbors.size()
                                            << " ranks, need " << nranks);
  std::vector<std::int64_t> migrated(nranks, 0), dropped(nranks, 0);

  rt.hint_round_transactions_all_pairs();
  rt.superstep(phase, [&](par::Comm& c) {
    const int r = c.rank();
    std::map<int, std::vector<ParticleRecord>> outgoing;
    dropped[r] = extract_outgoing(stores[r], removed[r], cell_owner, r, outgoing);
    c.charge(par::WorkKind::kScan, static_cast<double>(stores[r].size()));
    // Handshake with adjacency neighbors that got no payload this round
    // (the synchronized pattern still probes them); non-neighbors are never
    // probed — that's the O(degree) win.
    for (const int peer : neighbors[r]) {
      if (peer == r || peer < 0 || peer >= nranks) continue;
      const auto it = outgoing.find(peer);
      if (it == outgoing.end() || it->second.empty())
        c.charge_comm_seconds(2.0 * c.alpha_to(peer));
    }
    for (auto& [dest, recs] : outgoing) {
      if (recs.empty()) continue;
      migrated[r] += static_cast<std::int64_t>(recs.size());
      c.charge(par::WorkKind::kClassify, static_cast<double>(recs.size()));
      ship(c, dest, recs);
    }
  });

  return deliver(rt, phase, stores, removed, migrated, dropped);
}

}  // namespace

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kCentralized: return "CC";
    case Strategy::kDistributed: return "DC";
    case Strategy::kHierarchical: return "HC";
    case Strategy::kNeighbor: return "NC";
  }
  return "?";
}

Strategy parse_strategy(const std::string& name) {
  if (name == "CC") return Strategy::kCentralized;
  if (name == "DC") return Strategy::kDistributed;
  if (name == "HC") return Strategy::kHierarchical;
  if (name == "NC") return Strategy::kNeighbor;
  throw UsageError("unknown exchange strategy '" + name + "' (CC|DC|HC|NC)");
}

ExchangeStats exchange_particles(
    par::Runtime& rt, const std::string& phase, Strategy strategy,
    std::vector<dsmc::ParticleStore>& stores,
    std::vector<std::vector<std::uint8_t>>& removed,
    std::span<const std::int32_t> cell_owner, int root,
    const std::vector<std::vector<int>>* neighbors) {
  DSMCPIC_CHECK(static_cast<int>(stores.size()) == rt.size());
  DSMCPIC_CHECK(removed.size() == stores.size());
  DSMCPIC_CHECK(root >= 0 && root < rt.active_ranks());
  switch (strategy) {
    case Strategy::kCentralized:
      return exchange_centralized(rt, phase, stores, removed, cell_owner, root);
    case Strategy::kHierarchical:
      return exchange_hierarchical(rt, phase, stores, removed, cell_owner);
    case Strategy::kNeighbor:
      // No adjacency from the caller -> dense fallback (never under-charge).
      if (neighbors)
        return exchange_neighbor(rt, phase, stores, removed, cell_owner,
                                 *neighbors);
      break;
    case Strategy::kDistributed:
      break;
  }
  return exchange_distributed(rt, phase, stores, removed, cell_owner);
}

}  // namespace dsmcpic::exchange
