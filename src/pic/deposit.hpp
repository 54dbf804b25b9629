#pragma once
// Charge deposition: interpolates each charged particle's charge to the four
// nodes of its fine-grid cell with linear (barycentric) weights — the
// "interpolating the particle charge to the grid nodes" step of the paper's
// PIC cycle (Sec. III-C).
//
// Traversal is cell-major (coarse cell ascending, ascending particle id
// within each cell), built by the same rank-local dsmc::CellIndex the
// collide kernel walks, so it costs O(candidates + occupied cells) and
// after the periodic cell sort (DESIGN.md §2g) it visits each cell's one
// contiguous slot range in turn. The accumulation schedule is a FIXED
// number of contiguous blocks of that traversal, each scattering into its
// own node buffer, reduced per node in ascending block order — a
// deterministic tree reduction whose floating-point grouping depends only
// on the particle population, never on the executor, so node_charge is
// bit-identical for every kernel-thread count and exec mode.

#include <cstdint>
#include <span>
#include <vector>

#include "dsmc/particles.hpp"
#include "dsmc/species.hpp"
#include "pic/fine_grid.hpp"
#include "support/kernel_exec.hpp"

namespace dsmcpic::pic {

struct DepositStats {
  std::int64_t deposited = 0;  // charged particles scattered
  std::int64_t lost = 0;       // particles whose fine cell could not be found

  DepositStats& operator+=(const DepositStats& o) {
    deposited += o.deposited;
    lost += o.lost;
    return *this;
  }
};

/// Reusable per-rank scratch for the blocked deposit: the cell-major
/// traversal order and the per-block node-accumulation buffers. Capacities
/// persist across steps so the deposit allocates nothing in steady state.
struct DepositScratch {
  dsmc::CellIndex order;              // cell-major candidate traversal
  std::vector<double> block_charge;   // kDepositBlocks x nnodes accumulators
};

class NodeExchange;

/// Scatters charge (q * fnum, in coulomb) of all charged particles into
/// `node_charge`, a compact per-rank vector indexed like `sorted_nodes`
/// (ascending global fine-node ids — see NodeExchange::rank_nodes).
/// Particles flagged in `removed` are skipped; `removed` is empty or has
/// one flag per particle.
///
/// The blocked schedule is identical with or without `exec` (serial
/// executors run the same blocks inline, in order), so the result is
/// bit-identical across serial / kernel-thread configurations; `exec` only
/// decides whether blocks run concurrently. `scratch` (optional) carries
/// the traversal and block buffers across steps.
///
/// Each particle's four nodes are found by binary search in `sorted_nodes`.
DepositStats deposit_charge(const dsmc::ParticleStore& store,
                            const FineGrid& grid,
                            const dsmc::SpeciesTable& table,
                            std::span<const std::int32_t> sorted_nodes,
                            std::span<const std::uint8_t> removed,
                            std::span<double> node_charge,
                            const support::KernelExec* exec = nullptr,
                            DepositScratch* scratch = nullptr);

/// The same deposit for rank `rank` of a layout: `node_charge` is indexed
/// like `nodes.rank_nodes(rank)`, and each particle's four nodes come from
/// `nodes.tet_slots` (the per-layout table, or the search as a fallback).
/// Bit-identical to the call above with `sorted_nodes = rank_nodes(rank)`.
DepositStats deposit_charge(const dsmc::ParticleStore& store,
                            const FineGrid& grid,
                            const dsmc::SpeciesTable& table,
                            const NodeExchange& nodes, int rank,
                            std::span<const std::uint8_t> removed,
                            std::span<double> node_charge,
                            const support::KernelExec* exec = nullptr,
                            DepositScratch* scratch = nullptr);

}  // namespace dsmcpic::pic
