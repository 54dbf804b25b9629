#pragma once
// The dynamic load balancer (paper Sec. V, Algorithm 1).
//
//  * Load imbalance indicator lii (Eq. 6): the ratio of the busiest rank's
//    pure compute time to the idlest rank's, with particle-migration and
//    Poisson-solve times subtracted (those are the synchronization-dominated
//    phases and are largely constant).
//  * Weighted load model (Eq. 7, balance::wlm): N_i + R*C_i + W_cell per
//    coarse cell — N_i neutrals, C_i charged, R the PIC:DSMC timestep
//    ratio, W_cell the per-cell (grid computation) weight.
//  * Re-decomposition via the multilevel partitioner, then Kuhn–Munkres
//    remapping of new parts onto old owners, maximizing kept particles and
//    thus minimizing migration (Sec. V-C).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "balance/cost_model.hpp"
#include "balance/ensemble.hpp"
#include "balance/hungarian.hpp"
#include "balance/policy.hpp"
#include "partition/geometric.hpp"
#include "par/runtime.hpp"
#include "partition/graph.hpp"
#include "partition/partitioner.hpp"

namespace dsmcpic::obs {
class HostProfiler;
}

namespace dsmcpic::balance {

/// Which decomposition algorithm the rebalancer uses. kGraph is the
/// paper's approach (weighted METIS-style dual-graph partitioning);
/// kOctree and kMorton are the geometric baselines from the related work
/// (CHAOS-style particle-count balancing), for comparison benches.
enum class Repartitioner { kGraph, kOctree, kMorton };

const char* repartitioner_name(Repartitioner r);

struct RebalanceConfig {
  bool enabled = true;
  Repartitioner repartitioner = Repartitioner::kGraph;
  int period = 20;          // T: steps between lii checks (paper: T = 20)
  double threshold = 2.0;   // lii trigger (paper: 2.0)
  double weight_ratio = 2.0;  // R: PIC timesteps per DSMC timestep
  double cell_weight = 1.0;   // W_cell (paper Table VI sweeps 1..10000)
  bool use_km = true;         // KM remap ablation (paper Table V)
  partition::PartitionOptions partition_options;
  /// Timer-augmented weight model (DESIGN.md §2h). kStatic is the pure
  /// Eq.-7 model.
  CostModelConfig cost_model;
  /// When-to-rebalance policy. Its baseline trigger is `threshold` above.
  PolicyConfig policy;
  /// Elastic rank ensemble (DESIGN.md §2i): how many of the nominal ranks
  /// are active. kFixed with initial == 0 reproduces the dense runtime
  /// bit-for-bit.
  EnsembleConfig ensemble;
};

struct RebalanceStats {
  int checks = 0;
  int rebalances = 0;
  double last_lii = 0.0;
  std::int64_t cells_reassigned = 0;       // cells whose owner changed
  std::int64_t matching_operations = 0;    // KM inner ops (work accounting)
};

/// Computes lii from per-rank accumulated times over the evaluation window
/// (Eq. 6). `total`, `migration`, `poisson` are per-rank seconds; the
/// migration and Poisson components of the extreme ranks are subtracted.
double load_imbalance_indicator(std::span<const double> total,
                                std::span<const double> migration,
                                std::span<const double> poisson);

/// Remaps a fresh partition onto the previous owners: builds the
/// (rank x part) shared-weight matrix from `keep_weight` per cell (e.g.
/// particle counts) and solves maximum-weight matching; returns the
/// relabeled owner array. `ops_out` reports KM work for cost accounting.
std::vector<std::int32_t> km_remap(std::span<const std::int32_t> old_owner,
                                   std::span<const std::int32_t> new_part,
                                   std::span<const double> keep_weight,
                                   int nranks, std::int64_t* ops_out = nullptr);

/// Runs the re-decomposition half of Algorithm 1 (lines 6-12): partitions
/// the dual graph on the root by `cell_weights` (one per coarse cell: Eq.-7
/// weights, or the timer cost model's, see CostModel::cell_weights),
/// optionally KM-remaps, and charges/broadcasts everything on `rt` under
/// `phase`. Returns the new owner array.
///
/// `nparts` is the part count of the NEW decomposition: 0 (the default)
/// partitions for the runtime's current active rank set; the elastic
/// ensemble passes its target count when resizing. A resize that shrinks
/// the part count below an existing owner label skips the KM remap (the
/// matching is non-square — old owners cannot all keep a part).
///
/// `prof`, when set, times the partitioner and the KM remap on the host in
/// "partition" and "km" scopes, nested under the scope the caller has open
/// (the solver's "rebalance"); null opens none.
std::vector<std::int32_t> redecompose(
    par::Runtime& rt, const std::string& phase, const partition::Graph& dual,
    std::span<const Vec3> cell_centroids, std::span<const double> cell_weights,
    std::span<const std::int32_t> current_owner, const RebalanceConfig& cfg,
    RebalanceStats& stats, int nparts = 0, obs::HostProfiler* prof = nullptr);

}  // namespace dsmcpic::balance
