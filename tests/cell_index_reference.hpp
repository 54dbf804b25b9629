#pragma once
// Test-only reference implementations of the per-rank cell orderings,
// kept as the straightforward versions the rank-local dsmc::CellIndex must
// match bit for bit:
//   * CellIndex       — the counting sort over every coarse cell of the
//     mesh, each cell's list then stable-sorted by particle id;
//   * deposit_order   — the deposit's candidate traversal, the same
//     counting sort restricted to charged, unremoved particles;
//   * deposit_charge  — the serial blocked deposit walking that traversal.
// Storage and cost here are O(particles + global cells); the optimized
// versions are O(particles + occupied cells) and must give the same lists,
// the same traversal and the same node charges.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "dsmc/particles.hpp"
#include "dsmc/species.hpp"
#include "pic/deposit.hpp"
#include "pic/fine_grid.hpp"
#include "support/error.hpp"

namespace dsmcpic::reference {

/// Counting sort of the slots i with keep(i) over all `num_cells` cells,
/// then a stable sort of each cell's slots by ascending id.
template <class Keep>
void cell_major_by_id(const dsmc::ParticleStore& store, std::int32_t num_cells,
                      Keep keep, std::vector<std::int64_t>& start,
                      std::vector<std::int32_t>& items) {
  const auto cells = store.cells();
  const auto ids = store.ids();
  start.assign(static_cast<std::size_t>(num_cells) + 1, 0);
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (!keep(i)) continue;
    DSMCPIC_CHECK_MSG(cells[i] >= 0 && cells[i] < num_cells,
                      "particle in invalid cell " << cells[i]);
    ++start[static_cast<std::size_t>(cells[i]) + 1];
  }
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  std::vector<std::int64_t> cursor(start.begin(), start.end() - 1);
  items.resize(static_cast<std::size_t>(start.back()));
  for (std::size_t i = 0; i < store.size(); ++i)
    if (keep(i))
      items[static_cast<std::size_t>(cursor[cells[i]]++)] =
          static_cast<std::int32_t>(i);
  for (std::int32_t c = 0; c < num_cells; ++c)
    std::stable_sort(items.begin() + start[c], items.begin() + start[c + 1],
                     [&ids](std::int32_t a, std::int32_t b) {
                       return ids[a] < ids[b];
                     });
}

class CellIndex {
 public:
  CellIndex(const dsmc::ParticleStore& store, std::int32_t num_cells) {
    cell_major_by_id(store, num_cells, [](std::size_t) { return true; },
                     start_, items_);
  }
  std::span<const std::int32_t> particles_in(std::int32_t cell) const {
    return {items_.data() + start_[cell],
            static_cast<std::size_t>(start_[cell + 1] - start_[cell])};
  }
  std::span<const std::int32_t> items() const { return items_; }
  std::int32_t num_cells() const {
    return static_cast<std::int32_t>(start_.size() - 1);
  }

 private:
  std::vector<std::int64_t> start_;
  std::vector<std::int32_t> items_;
};

inline std::vector<std::int32_t> deposit_order(
    const dsmc::ParticleStore& store, const dsmc::SpeciesTable& table,
    std::span<const std::uint8_t> removed, std::int32_t num_cells) {
  const auto species = store.species();
  std::vector<std::int64_t> start;
  std::vector<std::int32_t> order;
  cell_major_by_id(
      store, num_cells,
      [&](std::size_t i) {
        if (!removed.empty() && removed[i]) return false;
        return table[species[i]].charged();
      },
      start, order);
  return order;
}

/// Serial deposit over deposit_order: the same fixed block schedule (16
/// blocks at 4,096 candidates and above, else one pass) and ascending-block
/// node reduction as pic::deposit_charge.
inline pic::DepositStats deposit_charge(
    const dsmc::ParticleStore& store, const pic::FineGrid& grid,
    const dsmc::SpeciesTable& table, std::span<const std::int32_t> sorted_nodes,
    std::span<const std::uint8_t> removed, std::span<double> node_charge) {
  const std::vector<std::int32_t> order =
      deposit_order(store, table, removed, grid.coarse().num_tets());
  const auto m = static_cast<std::int64_t>(order.size());
  const int nblocks = m >= 4096 ? 16 : 1;
  const std::size_t nnodes = node_charge.size();
  std::vector<std::vector<double>> acc(
      static_cast<std::size_t>(nblocks),
      std::vector<double>(nblocks == 1 ? 0 : nnodes, 0.0));
  pic::DepositStats stats;
  for (int b = 0; b < nblocks; ++b) {
    const std::span<double> out =
        nblocks == 1 ? node_charge : std::span<double>(acc[b]);
    for (std::int64_t t = m * b / nblocks; t < m * (b + 1) / nblocks; ++t) {
      const std::int32_t i = order[static_cast<std::size_t>(t)];
      const Vec3 pos = store.position(static_cast<std::size_t>(i));
      const std::int32_t fc = grid.locate(store.cells()[i], pos);
      if (fc < 0) {
        ++stats.lost;
        continue;
      }
      const auto w = grid.fine().barycentric(fc, pos);
      const dsmc::Species& sp = table[store.species()[i]];
      const auto& nd = grid.fine().tet(fc);
      for (int k = 0; k < 4; ++k) {
        const auto it =
            std::lower_bound(sorted_nodes.begin(), sorted_nodes.end(), nd[k]);
        out[static_cast<std::size_t>(it - sorted_nodes.begin())] +=
            sp.charge * sp.fnum * w[k];
      }
      ++stats.deposited;
    }
  }
  if (nblocks > 1)
    for (std::size_t j = 0; j < nnodes; ++j) {
      double s = node_charge[j];
      for (int b = 0; b < nblocks; ++b) s += acc[b][j];
      node_charge[j] = s;
    }
  return stats;
}

}  // namespace dsmcpic::reference
