#pragma once
// Shared-node communication for the PIC field quantities (paper Sec. IV-C:
// "for boundary nodes belonging to multiple parallel processes, their charge
// density should be the sum of the charge densities from all neighboring
// processes ... we first apply reduction summation").
//
// Each rank holds compact per-node vectors over the fine-grid nodes its
// local fine cells touch. Nodes shared across ranks have a unique owner
// (the smallest touching rank); reduce_to_owners ships ghost contributions
// to owners, broadcast_from_owners ships owner values back to ghosts.
//
// The particle kernels (E-field gather, charge deposit) read those vectors
// at a fine tet's four nodes. Their slots are resolved once per layout, in
// a table built with the exchange (DESIGN.md §2g), so no kernel searches
// the node list per ion.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "par/runtime.hpp"
#include "pic/fine_grid.hpp"

namespace dsmcpic::pic {

class NodeExchange {
 public:
  /// `coarse_owner` maps each coarse cell to its rank; fine cells inherit
  /// their parent's owner.
  NodeExchange(const FineGrid& grid, std::span<const std::int32_t> coarse_owner,
               int nranks);

  int nranks() const { return nranks_; }

  /// Global node -> owning rank (every node touched by at least one cell).
  const std::vector<std::int32_t>& node_owner() const { return node_owner_; }

  /// Sorted global node ids used by rank r's fine cells.
  const std::vector<std::int32_t>& rank_nodes(int r) const {
    return rank_nodes_[r];
  }

  /// Local index of global node g on rank r (-1 when absent). O(log n).
  std::int32_t local_index(int r, std::int32_t g) const;

  /// The slots of fine tet fc's four nodes in rank_nodes(r). Read from the
  /// per-layout table when r owns fc's parent cell; otherwise (a fallback
  /// walk in FineGrid::locate can land in a neighbouring cell) found by
  /// FineGrid::find_slots, which throws dsmcpic::Error if r's list lacks a
  /// node.
  TetSlots tet_slots(int r, std::int32_t fc) const {
    if (cell_owner_[static_cast<std::size_t>(grid_.parent_of(fc))] == r)
      return tet_slots_[static_cast<std::size_t>(fc)];
    return grid_.find_slots(fc, rank_nodes_[r]);
  }

  /// values[r] is indexed like rank_nodes(r). Sums every ghost entry into
  /// its owner's entry. Ghost entries are left untouched (stale) — call
  /// broadcast_from_owners to refresh them.
  void reduce_to_owners(par::Runtime& rt, const std::string& phase,
                        std::vector<std::vector<double>>& values) const;

  /// Copies each owned entry out to all ranks holding the node as a ghost.
  void broadcast_from_owners(par::Runtime& rt, const std::string& phase,
                             std::vector<std::vector<double>>& values) const;

  /// Convenience: fresh zeroed per-rank value vectors.
  std::vector<std::vector<double>> make_values() const;

  /// Sum of the OWNED entries of per-rank values (each global node counted
  /// exactly once, at its owner). After reduce_to_owners this is the global
  /// total of the reduced field — the number the health auditor balances
  /// against the particle charge. Pure read.
  double sum_owned(const std::vector<std::vector<double>>& values) const;

 private:
  struct Plan {
    int peer = -1;
    std::vector<std::int32_t> idx;  // local indices on *this* rank
  };

  int nranks_;
  FineGrid grid_;
  std::vector<std::int32_t> cell_owner_;  // coarse cell -> rank
  std::vector<std::int32_t> node_owner_;
  std::vector<std::vector<std::int32_t>> rank_nodes_;
  // Per fine tet: its nodes' slots in its parent cell owner's rank_nodes.
  std::vector<TetSlots> tet_slots_;
  // ghost_plan_[r]: per owner-peer, r's local indices of ghosts owned by peer.
  std::vector<std::vector<Plan>> ghost_plan_;
  // owner_plan_[o]: per ghost-peer, o's local indices in matching order.
  std::vector<std::vector<Plan>> owner_plan_;
};

}  // namespace dsmcpic::pic
