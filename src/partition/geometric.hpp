#pragma once
// Geometric decomposition baselines from the coupled-DSMC/PIC literature,
// for comparison against the paper's graph-based approach:
//
//  * Octree partitioning (CHAOS, paper ref. [23]): recursively split the
//    bounding box into octants until each leaf's weight is small, then
//    assign leaves to ranks in octant order. Balances particle counts but
//    ignores the dual-graph cut (communication volume).
//  * Morton space-filling-curve partitioning: order cells by their
//    centroid's Morton code and slice the curve into weight-balanced
//    chunks. The classic cheap decomposition with decent locality.
//
// Both take the same inputs as the weighted graph partitioner (cell
// centroids + weights) and nothing else, so the ablation bench and the
// rebalancer can swap them in directly.

#include <cstdint>
#include <span>
#include <vector>

#include "support/vec3.hpp"

namespace dsmcpic::partition {

struct GeometricResult {
  std::vector<std::int32_t> part;  // cell -> part
  double imbalance = 1.0;          // max part weight / ideal
};

/// Morton-order decomposition: cells sorted by 3-D Morton code of their
/// centroids, then the curve is cut into `nparts` weight-balanced slices.
GeometricResult morton_partition(std::span<const Vec3> centroids,
                                 std::span<const double> weights, int nparts);

/// Octree decomposition in the style of CHAOS: a node splits while its
/// weight exceeds total/(8 nparts), down to depth 12; leaves are visited in
/// octant (Morton) order and greedily packed into ranks by weight.
GeometricResult octree_partition(std::span<const Vec3> centroids,
                                 std::span<const double> weights, int nparts);

/// 63-bit Morton code of a point inside the given bounding box (21 bits per
/// axis). Exposed for tests.
std::uint64_t morton_code(const Vec3& p, const Vec3& lo, const Vec3& hi);

}  // namespace dsmcpic::partition
