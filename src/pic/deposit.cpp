#include "pic/deposit.hpp"

#include <algorithm>

#include "pic/node_exchange.hpp"
#include "support/error.hpp"

namespace dsmcpic::pic {

namespace {

// Fixed block count of the deterministic reduction. Chosen as a function of
// the candidate count ALONE (never the thread count), so the floating-point
// grouping is invariant across executors; 16 blocks keep any realistic
// kernel pool busy while the per-block node buffers stay cache-resident.
constexpr int kDepositBlocks = 16;
constexpr std::int64_t kDepositBlockCutoff = 4096;

// The deposit of both public forms; `slots_of(fc)` gives fine tet fc's four
// nodes as indices into node_charge.
template <class SlotsOf>
DepositStats deposit(const dsmc::ParticleStore& store, const FineGrid& grid,
                     const dsmc::SpeciesTable& table, SlotsOf slots_of,
                     std::span<const std::uint8_t> removed,
                     std::span<double> node_charge,
                     const support::KernelExec* exec, DepositScratch* scratch) {
  DSMCPIC_CHECK(removed.empty() || removed.size() == store.size());
  DepositStats stats;
  const auto px = store.px();
  const auto py = store.py();
  const auto pz = store.pz();
  const auto cells = store.cells();
  const auto species = store.species();
  const mesh::TetMesh& fine = grid.fine();

  DepositScratch local;
  DepositScratch& scr = scratch ? *scratch : local;

  // Cell-major traversal order over the deposit candidates (charged, not
  // removed): ascending coarse cell, then ascending particle id within each
  // cell. The id order matters: store slots are layout history (intra-rank
  // cell changes keep their old slot), so slot order within a cell differs
  // between sorted and unsorted runs — ids do not. With it, the traversal
  // and every floating-point grouping derived from it below are invariant
  // across executors and sort-every settings.
  const auto candidate = [&](std::size_t i) {
    if (!removed.empty() && removed[i]) return false;
    return table[species[i]].charged();
  };
  scr.order.group(cells, grid.coarse().num_tets(), candidate);
  scr.order.order_by_id(store.ids());
  const std::span<const std::int32_t> order = scr.order.items();
  const auto m = static_cast<std::int64_t>(order.size());
  if (m == 0) return stats;

  const auto scatter_one = [&](std::int32_t i, std::span<double> acc,
                               DepositStats& out) {
    const Vec3 pos{px[i], py[i], pz[i]};
    const std::int32_t fc = grid.locate(cells[i], pos);
    if (fc < 0) {
      ++out.lost;
      return;
    }
    const auto w = fine.barycentric(fc, pos);
    const dsmc::Species& sp = table[species[i]];
    const double q = sp.charge * sp.fnum;
    const TetSlots slots = slots_of(fc);
    for (int k = 0; k < 4; ++k)
      acc[static_cast<std::size_t>(slots[k])] += q * w[k];
    ++out.deposited;
  };

  const int nblocks = (m >= kDepositBlockCutoff) ? kDepositBlocks : 1;
  if (nblocks == 1) {
    for (std::int64_t t = 0; t < m; ++t)
      scatter_one(order[static_cast<std::size_t>(t)], node_charge, stats);
    return stats;
  }

  // Phase A: each block scatters its contiguous slice of the traversal into
  // a private node buffer. Block boundaries are an arithmetic split of the
  // candidate count; they need not align to cell boundaries because the
  // within-block accumulation order is position in `order`, not cell.
  const std::size_t nnodes = node_charge.size();
  scr.block_charge.resize(static_cast<std::size_t>(nblocks) * nnodes);
  const auto run_block = [&](int b, DepositStats& out) {
    const std::int64_t begin = m * b / nblocks;
    const std::int64_t end = m * (b + 1) / nblocks;
    const std::span<double> acc(
        scr.block_charge.data() + static_cast<std::size_t>(b) * nnodes, nnodes);
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::int64_t t = begin; t < end; ++t)
      scatter_one(order[static_cast<std::size_t>(t)], acc, out);
  };
  stats = support::sum_tasks<DepositStats>(exec, nblocks, run_block);

  // Phase B: reduce each node over the blocks in ascending order — a left
  // fold whose grouping is fixed by (m, nnodes) alone. Nodes are
  // independent, so the reduction itself may be chunked freely.
  const auto reduce_range = [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t j = begin; j < end; ++j) {
      double s = node_charge[static_cast<std::size_t>(j)];
      for (int b = 0; b < nblocks; ++b)
        s += scr.block_charge[static_cast<std::size_t>(b) * nnodes +
                              static_cast<std::size_t>(j)];
      node_charge[static_cast<std::size_t>(j)] = s;
    }
  };
  if (exec) {
    exec->for_chunks(static_cast<std::int64_t>(nnodes),
                     [&](int, std::int64_t b, std::int64_t e) {
                       reduce_range(b, e);
                     });
  } else {
    reduce_range(0, static_cast<std::int64_t>(nnodes));
  }
  return stats;
}

}  // namespace

DepositStats deposit_charge(const dsmc::ParticleStore& store,
                            const FineGrid& grid,
                            const dsmc::SpeciesTable& table,
                            std::span<const std::int32_t> sorted_nodes,
                            std::span<const std::uint8_t> removed,
                            std::span<double> node_charge,
                            const support::KernelExec* exec,
                            DepositScratch* scratch) {
  DSMCPIC_CHECK(node_charge.size() == sorted_nodes.size());
  return deposit(
      store, grid, table,
      [&](std::int32_t fc) { return grid.find_slots(fc, sorted_nodes); },
      removed, node_charge, exec, scratch);
}

DepositStats deposit_charge(const dsmc::ParticleStore& store,
                            const FineGrid& grid,
                            const dsmc::SpeciesTable& table,
                            const NodeExchange& nodes, int rank,
                            std::span<const std::uint8_t> removed,
                            std::span<double> node_charge,
                            const support::KernelExec* exec,
                            DepositScratch* scratch) {
  DSMCPIC_CHECK(node_charge.size() == nodes.rank_nodes(rank).size());
  return deposit(
      store, grid, table,
      [&](std::int32_t fc) { return nodes.tet_slots(rank, fc); }, removed,
      node_charge, exec, scratch);
}

}  // namespace dsmcpic::pic
