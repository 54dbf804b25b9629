#include "balance/rebalancer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/host_profiler.hpp"
#include "support/error.hpp"

namespace dsmcpic::balance {

double load_imbalance_indicator(std::span<const double> total,
                                std::span<const double> migration,
                                std::span<const double> poisson) {
  DSMCPIC_CHECK(!total.empty());
  DSMCPIC_CHECK(total.size() == migration.size());
  DSMCPIC_CHECK(total.size() == poisson.size());
  std::size_t amax = 0, amin = 0;
  for (std::size_t r = 1; r < total.size(); ++r) {
    if (total[r] > total[amax]) amax = r;
    if (total[r] < total[amin]) amin = r;
  }
  const double num = total[amax] - migration[amax] - poisson[amax];
  const double den = total[amin] - migration[amin] - poisson[amin];
  if (den <= 0.0) {
    // The idlest rank did essentially no compute: maximal imbalance.
    return num > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
  }
  return num / den;
}

std::vector<std::int32_t> km_remap(std::span<const std::int32_t> old_owner,
                                   std::span<const std::int32_t> new_part,
                                   std::span<const double> keep_weight,
                                   int nranks, std::int64_t* ops_out) {
  DSMCPIC_CHECK(old_owner.size() == new_part.size());
  DSMCPIC_CHECK(old_owner.size() == keep_weight.size());

  // overlap[r][p]: weight that stays put if new part p keeps rank label r.
  std::vector<double> overlap(static_cast<std::size_t>(nranks) * nranks, 0.0);
  for (std::size_t c = 0; c < old_owner.size(); ++c) {
    DSMCPIC_CHECK(old_owner[c] >= 0 && old_owner[c] < nranks);
    DSMCPIC_CHECK(new_part[c] >= 0 && new_part[c] < nranks);
    overlap[static_cast<std::size_t>(old_owner[c]) * nranks + new_part[c]] +=
        keep_weight[c] + 1e-9;  // epsilon keeps empty cells slightly sticky
  }

  const AssignmentResult match = hungarian_max(overlap, nranks);
  if (ops_out) *ops_out = match.operations;

  // match.row_to_col[r] = part assigned to rank r; invert to part -> rank.
  std::vector<int> part_to_rank(nranks, -1);
  for (int r = 0; r < nranks; ++r) part_to_rank[match.row_to_col[r]] = r;

  std::vector<std::int32_t> owner(old_owner.size());
  for (std::size_t c = 0; c < owner.size(); ++c)
    owner[c] = part_to_rank[new_part[c]];
  return owner;
}

const char* repartitioner_name(Repartitioner r) {
  switch (r) {
    case Repartitioner::kGraph: return "graph";
    case Repartitioner::kOctree: return "octree";
    case Repartitioner::kMorton: return "morton";
  }
  return "?";
}

std::vector<std::int32_t> redecompose(
    par::Runtime& rt, const std::string& phase, const partition::Graph& dual,
    std::span<const Vec3> cell_centroids, std::span<const double> cell_weights,
    std::span<const std::int32_t> current_owner, const RebalanceConfig& cfg,
    RebalanceStats& stats, int nparts, obs::HostProfiler* prof) {
  const auto ncells = static_cast<std::int32_t>(current_owner.size());
  DSMCPIC_CHECK(dual.num_vertices() == ncells);
  DSMCPIC_CHECK_MSG(static_cast<std::int32_t>(cell_weights.size()) == ncells,
                    "cell_weights must cover every coarse cell");
  const int nranks = nparts > 0 ? nparts : rt.active_ranks();
  const int root = 0;

  // Gather per-cell counts to the root (each rank contributes its cells).
  rt.charge_gather(phase, root,
                   16.0 * static_cast<double>(ncells) / std::max(1, nranks));

  // The partitioner takes integer weights; scale to preserve fractional R.
  partition::Graph weighted = dual;
  weighted.vwgt.resize(static_cast<std::size_t>(ncells));
  for (std::int32_t c = 0; c < ncells; ++c)
    weighted.vwgt[c] = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(cell_weights[c] * 16.0)));
  rt.charge_rank(phase, root, par::WorkKind::kGeneric,
                 static_cast<double>(ncells));

  // Re-decomposition on the root: the paper's weighted graph partitioner,
  // or one of the geometric baselines (octree/Morton) for ablations.
  std::vector<std::int32_t> new_part;
  {
    const obs::HostProfiler::Scope prof_partition(prof, "partition");
    switch (cfg.repartitioner) {
      case Repartitioner::kGraph: {
        new_part =
            partition::part_graph_kway(weighted, nranks, cfg.partition_options)
                .part;
        rt.charge_rank(
            phase, root, par::WorkKind::kPartitionEdge,
            static_cast<double>(dual.num_edges()) *
                std::ceil(std::log2(std::max(2, nranks))));
        break;
      }
      case Repartitioner::kOctree:
      case Repartitioner::kMorton: {
        DSMCPIC_CHECK_MSG(static_cast<std::int32_t>(cell_centroids.size()) ==
                              ncells,
                          "geometric repartitioner needs cell centroids");
        std::vector<double> w(static_cast<std::size_t>(ncells));
        for (std::int32_t c = 0; c < ncells; ++c)
          w[c] = static_cast<double>(weighted.vwgt[c]);
        const partition::GeometricResult gr =
            cfg.repartitioner == Repartitioner::kOctree
                ? partition::octree_partition(cell_centroids, w, nranks)
                : partition::morton_partition(cell_centroids, w, nranks);
        new_part = gr.part;
        // Sort-dominated cost: ~n log n.
        rt.charge_rank(phase, root, par::WorkKind::kPartitionEdge,
                       static_cast<double>(ncells) *
                           std::ceil(std::log2(std::max(2, ncells))) / 4.0);
        break;
      }
    }
  }

  // Remap new parts onto old owners. Skipped when the target part count
  // dropped below an existing owner label (elastic shrink): the matching
  // would be non-square, and a shrink moves cells wholesale anyway.
  std::int32_t max_owner = -1;
  for (const std::int32_t o : current_owner)
    max_owner = std::max(max_owner, o);
  std::vector<std::int32_t> new_owner;
  if (cfg.use_km && max_owner < nranks) {
    std::vector<double> keep(static_cast<std::size_t>(ncells));
    for (std::int32_t c = 0; c < ncells; ++c)
      keep[c] = static_cast<double>(weighted.vwgt[c]);
    std::int64_t ops = 0;
    {
      const obs::HostProfiler::Scope prof_km(prof, "km");
      new_owner = km_remap(current_owner, new_part, keep, nranks, &ops);
    }
    stats.matching_operations += ops;
    rt.charge_rank(phase, root, par::WorkKind::kMatchingOp,
                   static_cast<double>(ops));
  } else {
    // Ablation: identity labeling (the "random remapping" of Fig. 6b —
    // parts keep the partitioner's arbitrary numbering).
    new_owner = std::move(new_part);
  }

  // Broadcast the new mapping to every rank.
  rt.charge_bcast(phase, root, 4.0 * static_cast<double>(ncells));

  for (std::int32_t c = 0; c < ncells; ++c)
    if (new_owner[c] != current_owner[c]) ++stats.cells_reassigned;
  ++stats.rebalances;
  return new_owner;
}

}  // namespace dsmcpic::balance
