#pragma once
// Multilevel k-way graph partitioner — the METIS_PartGraphKway substitute.
//
// Algorithm (the same family as METIS):
//   1. Coarsen by heavy-edge matching until the graph is small.
//   2. Initial bisection by greedy graph growing (several random seeds).
//   3. Uncoarsen, running Fiduccia–Mattheyses boundary refinement with
//      rollback at every level.
//   4. k-way is obtained by recursive bisection with weight-proportional
//      targets (handles non-power-of-two k).
//
// Vertex weights are the paper's weighted load model wlm_i (Eq. 7); edge
// weights default to 1 (dual-graph faces).
//
// As the paper calls METIS_PartGraphKway (Sec. IV-A), a caller passes only
// the graph, its weights and k. The balance tolerance (1.05), coarsening
// floor, FM passes, initial tries and seed are constants in partitioner.cpp;
// the one option left switches off the final k-way refinement, for the
// ablation bench's raw-bisection lane.

#include <cstdint>
#include <vector>

#include "partition/graph.hpp"

namespace dsmcpic::partition {

struct PartitionOptions {
  /// Greedy k-way boundary refinement passes applied to the final
  /// partition (0 disables; recursive bisection alone cannot move vertices
  /// between non-sibling parts, this pass can).
  int kway_refine_passes = 2;
};

struct PartitionResult {
  std::vector<std::int32_t> part;  // vertex -> part in [0, nparts)
  std::int64_t cut = 0;            // edge cut achieved
  double imbalance = 1.0;          // max part weight / ideal
};

/// Partitions `g` into `nparts` parts minimizing edge cut subject to the
/// balance tolerance (max part within 1.05x of ideal). Deterministic: the
/// random visit orders and initial seeds come from one fixed seed.
PartitionResult part_graph_kway(const Graph& g, int nparts,
                                const PartitionOptions& options = {});

/// Greedy direct k-way refinement: repeatedly moves boundary vertices to
/// the adjacent part with the highest cut gain, subject to the balance
/// tolerance. Mutates `part` in place; returns the total cut reduction.
std::int64_t kway_refine(const Graph& g, std::vector<std::int32_t>& part,
                         int nparts, double imbalance_tol, int passes);

}  // namespace dsmcpic::partition
