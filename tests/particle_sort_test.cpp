// Unit tests for the SoA ParticleStore reordering primitives that the
// periodic cell sort (DESIGN.md §2g) is built on: apply_gather permutation
// semantics, sort_by_cell correctness + STABILITY (the determinism
// contract), remove_flagged stability, and a checkpoint round-trip of the
// component-vector layout — and the rank-local CellIndex checked bitwise
// against the global-mesh counting sort in cell_index_reference.hpp. The
// end-to-end invariance claims live in determinism_test.cpp
// (SortDeterminism) and golden_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <sstream>
#include <vector>

#include "cell_index_reference.hpp"
#include "dsmc/particles.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace dsmcpic::dsmc {
namespace {

/// A store whose particle i is fully identified by its id: every field is a
/// distinct function of i, so any mix-up between arrays or slots shows.
ParticleStore make_store(std::size_t n, std::int32_t num_cells,
                         std::uint64_t seed = 17) {
  ParticleStore store;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ParticleRecord p;
    const double d = static_cast<double>(i);
    p.position = {d + 0.125, d + 0.25, d + 0.375};
    p.velocity = {-d - 0.5, -d - 0.625, -d - 0.75};
    p.id = static_cast<std::int64_t>(i);
    p.species = static_cast<std::int32_t>(i % 2);
    p.cell = static_cast<std::int32_t>(rng.next_u64() %
                                       static_cast<std::uint64_t>(num_cells));
    store.add(p);
  }
  return store;
}

void expect_same_particle(const ParticleStore& got, std::size_t slot,
                          const ParticleRecord& want) {
  EXPECT_EQ(got.ids()[slot], want.id);
  EXPECT_EQ(got.species()[slot], want.species);
  EXPECT_EQ(got.cells()[slot], want.cell);
  EXPECT_EQ(got.position(slot), want.position);
  EXPECT_EQ(got.velocity(slot), want.velocity);
}

TEST(ParticleSort, ApplyGatherPermutesEveryArray) {
  const std::size_t n = 37;
  ParticleStore store = make_store(n, 5);
  const ParticleStore orig = store;

  // Reverse permutation plus flags that tag odd OLD slots.
  std::vector<std::int32_t> gather(n);
  for (std::size_t k = 0; k < n; ++k)
    gather[k] = static_cast<std::int32_t>(n - 1 - k);
  std::vector<std::uint8_t> flags(n, 0);
  for (std::size_t i = 1; i < n; i += 2) flags[i] = 1;

  SortScratch scratch;
  store.apply_gather(gather, scratch, flags);

  ASSERT_EQ(store.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    expect_same_particle(store, k, orig.record(n - 1 - k));
    EXPECT_EQ(flags[k], (n - 1 - k) % 2 == 1 ? 1 : 0) << "slot " << k;
  }
}

TEST(ParticleSort, SortByCellGroupsCellsAscending) {
  const std::int32_t num_cells = 7;
  ParticleStore store = make_store(113, num_cells);
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);

  ASSERT_EQ(store.size(), 113u);
  const auto cells = store.cells();
  for (std::size_t i = 1; i < store.size(); ++i)
    EXPECT_LE(cells[i - 1], cells[i]) << "slot " << i;
}

// Stability keeps the layout predictable: within one cell, particles keep
// the relative order they had before the sort. (Traversal ORDER semantics
// are owned by CellIndex, which canonicalizes per-cell lists by id — see
// CellIndexSortsEachCellById below. The sort keeps slot order, the index
// id order, so after a sort the index is generally not the identity; what
// holds is that each cell's particles form one contiguous slot range — see
// CellIndexFollowsIdsWithinContiguousSortedRanges.)
TEST(ParticleSort, SortByCellIsStableWithinCells) {
  const std::int32_t num_cells = 6;
  ParticleStore store = make_store(211, num_cells);
  const ParticleStore orig = store;
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);

  // Expected per-cell id sequences in original store order.
  std::vector<std::vector<std::int64_t>> want(num_cells);
  for (std::size_t i = 0; i < orig.size(); ++i)
    want[orig.cells()[i]].push_back(orig.ids()[i]);

  std::vector<std::vector<std::int64_t>> got(num_cells);
  for (std::size_t i = 0; i < store.size(); ++i)
    got[store.cells()[i]].push_back(store.ids()[i]);
  for (std::int32_t c = 0; c < num_cells; ++c)
    EXPECT_EQ(got[c], want[c]) << "cell " << c;
}

TEST(ParticleSort, SortIsIdempotentAndPreservesMultiset) {
  const std::int32_t num_cells = 9;
  ParticleStore store = make_store(64, num_cells);
  const ParticleStore orig = store;
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);
  const ParticleStore once = store;
  store.sort_by_cell(num_cells, scratch);

  // Second sort is the identity on an already-sorted store.
  ASSERT_EQ(store.size(), once.size());
  for (std::size_t i = 0; i < store.size(); ++i)
    expect_same_particle(store, i, once.record(i));

  // Same particles as before sorting, found via id.
  std::vector<std::size_t> slot_of(orig.size());
  for (std::size_t i = 0; i < store.size(); ++i)
    slot_of[static_cast<std::size_t>(store.ids()[i])] = i;
  for (std::size_t i = 0; i < orig.size(); ++i)
    expect_same_particle(store, slot_of[i], orig.record(i));
}

TEST(ParticleSort, SortCarriesRemovalFlags) {
  const std::int32_t num_cells = 4;
  ParticleStore store = make_store(50, num_cells);
  std::vector<std::uint8_t> flags(store.size(), 0);
  // Flag the particles with id divisible by 5.
  for (std::size_t i = 0; i < store.size(); ++i)
    if (store.ids()[i] % 5 == 0) flags[i] = 1;

  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch, flags);
  for (std::size_t i = 0; i < store.size(); ++i)
    EXPECT_EQ(flags[i], store.ids()[i] % 5 == 0 ? 1 : 0) << "slot " << i;
}

TEST(ParticleSort, EmptyStoreAndSingleCellAreNoOps) {
  SortScratch scratch;
  ParticleStore empty;
  empty.sort_by_cell(3, scratch);
  EXPECT_TRUE(empty.empty());

  ParticleStore one_cell = make_store(20, 1);
  const ParticleStore orig = one_cell;
  one_cell.sort_by_cell(1, scratch);
  ASSERT_EQ(one_cell.size(), orig.size());
  for (std::size_t i = 0; i < orig.size(); ++i)
    expect_same_particle(one_cell, i, orig.record(i));
}

// remove_flagged must preserve survivor order — the sort's invariance proof
// leans on every compaction in the pipeline being stable.
TEST(ParticleSort, RemoveFlaggedIsStable) {
  ParticleStore store = make_store(40, 3);
  const ParticleStore orig = store;
  std::vector<std::uint8_t> flags(store.size(), 0);
  for (std::size_t i = 0; i < store.size(); i += 3) flags[i] = 1;

  const std::size_t removed = store.remove_flagged(flags);
  EXPECT_EQ(removed, 14u);  // ceil(40 / 3)
  ASSERT_EQ(store.size(), orig.size() - removed);

  std::size_t k = 0;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (i % 3 == 0) continue;
    expect_same_particle(store, k, orig.record(i));
    ++k;
  }
}

TEST(ParticleSort, CheckpointRoundTripsSortedSoALayout) {
  const std::int32_t num_cells = 8;
  ParticleStore store = make_store(77, num_cells);
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);

  std::stringstream ss;
  store.save(ss);
  ParticleStore loaded;
  loaded.load(ss);

  ASSERT_EQ(loaded.size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i)
    expect_same_particle(loaded, i, store.record(i));
}

// The canonical per-cell traversal order is ascending particle id, NOT
// store slot: slots are memory-layout history (a particle changing cell
// intra-rank keeps its slot), ids are layout-independent. Build a store
// whose slot order disagrees with id order and check the index ignores it.
TEST(ParticleSort, CellIndexSortsEachCellById) {
  const std::int32_t num_cells = 4;
  ParticleStore store;
  Rng rng(29);
  const std::size_t n = 60;
  for (std::size_t i = 0; i < n; ++i) {
    ParticleRecord p;
    const double d = static_cast<double>(i);
    p.position = {d, d, d};
    p.velocity = {-d, -d, -d};
    p.id = static_cast<std::int64_t>(n - 1 - i);  // descending in slot order
    p.species = 0;
    p.cell = static_cast<std::int32_t>(rng.next_u64() %
                                       static_cast<std::uint64_t>(num_cells));
    store.add(p);
  }

  const CellIndex index(store, num_cells);
  std::size_t seen = 0;
  for (std::int32_t c = 0; c < num_cells; ++c) {
    const auto parts = index.particles_in(c);
    for (std::size_t k = 0; k < parts.size(); ++k) {
      EXPECT_EQ(store.cells()[parts[k]], c);
      if (k > 0) {
        EXPECT_LT(store.ids()[parts[k - 1]], store.ids()[parts[k]])
            << "cell " << c << " item " << k;
      }
    }
    seen += parts.size();
  }
  EXPECT_EQ(seen, n);
}

TEST(ParticleSort, CellIndexSpansAreContiguousAfterSort) {
  const std::int32_t num_cells = 5;
  ParticleStore store = make_store(90, num_cells);
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);

  const CellIndex index(store, num_cells);
  std::int32_t next = 0;
  for (std::int32_t c = 0; c < num_cells; ++c) {
    const auto parts = index.particles_in(c);
    for (const std::int32_t p : parts) EXPECT_EQ(p, next++);
  }
  EXPECT_EQ(next, static_cast<std::int32_t>(store.size()));
}

// The claim the periodic sort can make: each cell's particles occupy one
// contiguous slot range, cells ascending. Within that range the index
// follows id order, so on a store whose ids disagree with slot order most
// items are not at their own slot.
TEST(ParticleSort, CellIndexFollowsIdsWithinContiguousSortedRanges) {
  const std::int32_t num_cells = 5;
  ParticleStore store = make_store(90, num_cells);
  Rng rng(41);
  for (auto& id : store.ids())
    id = static_cast<std::int64_t>(rng.next_u64() >> 1);
  SortScratch scratch;
  store.sort_by_cell(num_cells, scratch);

  const CellIndex index(store, num_cells);
  std::int32_t next = 0;
  std::size_t at_own_slot = 0;
  for (std::int32_t c = 0; c < num_cells; ++c) {
    const auto parts = index.particles_in(c);
    const std::int32_t begin = next;
    next += static_cast<std::int32_t>(parts.size());
    for (std::size_t k = 0; k < parts.size(); ++k) {
      EXPECT_GE(parts[k], begin);
      EXPECT_LT(parts[k], next);
      if (k > 0) {
        EXPECT_LT(store.ids()[parts[k - 1]], store.ids()[parts[k]]);
      }
      at_own_slot += parts[k] == begin + static_cast<std::int32_t>(k);
    }
  }
  EXPECT_EQ(next, static_cast<std::int32_t>(store.size()));
  EXPECT_LT(at_own_slot, store.size() / 2);
}

// ---- rank-local CellIndex vs the global-mesh counting sort ---------------

/// A store of `n` particles over the cells `cells` (drawn uniformly), ids
/// drawn from [0, id_range) — a small range forces duplicate ids.
ParticleStore random_store(std::size_t n, std::span<const std::int32_t> cells,
                           std::uint64_t id_range, std::uint64_t seed) {
  ParticleStore store;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ParticleRecord p;
    p.id = static_cast<std::int64_t>(rng.next_u64() % id_range);
    p.species = static_cast<std::int32_t>(i % 2);
    p.cell = cells[rng.next_u64() % cells.size()];
    store.add(p);
  }
  return store;
}

/// Every cell's list, and the whole cell-major sequence, equal the
/// reference's bit for bit.
void expect_matches_reference(const CellIndex& index,
                              const ParticleStore& store,
                              std::int32_t num_cells) {
  const reference::CellIndex ref(store, num_cells);
  EXPECT_EQ(index.num_cells(), ref.num_cells());
  const auto got = index.items();
  const auto want = ref.items();
  ASSERT_EQ(std::vector<std::int32_t>(got.begin(), got.end()),
            std::vector<std::int32_t>(want.begin(), want.end()));
  for (std::int32_t c = 0; c < num_cells; ++c) {
    const auto a = index.particles_in(c);
    const auto b = ref.particles_in(c);
    ASSERT_EQ(std::vector<std::int32_t>(a.begin(), a.end()),
              std::vector<std::int32_t>(b.begin(), b.end()))
        << "cell " << c;
  }
}

TEST(CellIndexReference, EmptyStore) {
  const ParticleStore store;
  const CellIndex index(store, 7);
  EXPECT_TRUE(index.items().empty());
  expect_matches_reference(index, store, 7);
}

TEST(CellIndexReference, ThreeOccupiedOfHundredThousandCells) {
  const std::int32_t num_cells = 100000;
  const std::vector<std::int32_t> cells{99999, 7, 50000};
  const ParticleStore store = random_store(500, cells, 1u << 30, 3);
  const CellIndex index(store, num_cells);
  expect_matches_reference(index, store, num_cells);
  EXPECT_TRUE(index.particles_in(8).empty());
}

TEST(CellIndexReference, EveryParticleInOneCell) {
  const std::vector<std::int32_t> cells{4};
  const ParticleStore store = random_store(300, cells, 1u << 30, 5);
  const CellIndex index(store, 9);
  expect_matches_reference(index, store, 9);
  EXPECT_EQ(index.particles_in(4).size(), store.size());
}

TEST(CellIndexReference, DuplicateIdsKeepSlotOrder) {
  const std::vector<std::int32_t> cells{0, 2, 3, 11};
  const ParticleStore store = random_store(400, cells, 6, 8);
  const CellIndex index(store, 12);
  expect_matches_reference(index, store, 12);
  for (const std::int32_t c : cells) {
    const auto parts = index.particles_in(c);
    for (std::size_t k = 1; k < parts.size(); ++k)
      if (store.ids()[parts[k - 1]] == store.ids()[parts[k]]) {
        EXPECT_LT(parts[k - 1], parts[k]) << "cell " << c;
      }
  }
}

TEST(CellIndexReference, OutOfRangeCellThrows) {
  for (const std::int32_t bad : {-1, 10, 1 << 30}) {
    const std::vector<std::int32_t> cells{3, 5};
    ParticleStore store = random_store(20, cells, 100, 13);
    store.cells()[11] = bad;
    EXPECT_THROW(reference::CellIndex(store, 10), Error) << bad;
    EXPECT_THROW(CellIndex(store, 10), Error) << bad;
    SortScratch scratch;
    EXPECT_THROW(store.sort_by_cell(10, scratch), Error) << bad;
  }
}

// One index rebuilt over stores whose occupancy grows and shrinks, so the
// table is regrown and resized across rebuilds, with sorted and unsorted
// layouts.
TEST(CellIndexReference, RandomStoresMatchAcrossRebuilds) {
  CellIndex index;
  Rng rng(97);
  for (int trial = 0; trial < 40; ++trial) {
    const auto num_cells = static_cast<std::int32_t>(1 + rng.next_u64() % 5000);
    std::vector<std::int32_t> cells(1 + rng.next_u64() % 300);
    for (auto& c : cells)
      c = static_cast<std::int32_t>(rng.next_u64() %
                                    static_cast<std::uint64_t>(num_cells));
    ParticleStore store = random_store(rng.next_u64() % 3000, cells,
                                       1 + rng.next_u64() % 5000, trial);
    if (trial % 3 == 0) {
      SortScratch scratch;
      store.sort_by_cell(num_cells, scratch);
    }
    index.rebuild(store, num_cells);
    expect_matches_reference(index, store, num_cells);
  }
}

/// A store whose cell c holds lengths[c] particles, the cells interleaved
/// at random across slots. Within a cell, slot order follows k, the
/// particle's rank in its cell, and `ids` picks the id pattern along k:
/// 0 ascending, 1 descending, 2 random in [0, id_range).
ParticleStore store_with_lengths(std::span<const std::int64_t> lengths,
                                 int ids, std::uint64_t id_range,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> slot_cell;
  for (std::size_t c = 0; c < lengths.size(); ++c)
    slot_cell.insert(slot_cell.end(), static_cast<std::size_t>(lengths[c]),
                     static_cast<std::int32_t>(c));
  for (std::size_t i = slot_cell.size(); i > 1; --i)
    std::swap(slot_cell[i - 1], slot_cell[rng.next_u64() % i]);
  std::vector<std::int64_t> next(lengths.size(), 0);
  ParticleStore store;
  for (const std::int32_t c : slot_cell) {
    ParticleRecord p;
    p.cell = c;
    const std::int64_t k = next[c]++;
    p.id = ids == 0   ? k
           : ids == 1 ? lengths[c] - k
                      : static_cast<std::int64_t>(rng.next_u64() % id_range);
    store.add(p);
  }
  return store;
}

// order_by_id insertion-sorts runs of 16 and merges pairs of runs at
// doubling widths; it must equal std::stable_sort (the reference) at every
// cell length from 0 to 300, for ascending, descending and random ids.
TEST(CellIndexReference, CellLengthsZeroToThreeHundred) {
  std::vector<std::int64_t> lengths(301);
  std::iota(lengths.begin(), lengths.end(), 0);
  const auto num_cells = static_cast<std::int32_t>(lengths.size());
  for (const int ids : {0, 1, 2}) {
    const ParticleStore store = store_with_lengths(lengths, ids, 1u << 30, 7);
    const CellIndex index(store, num_cells);
    expect_matches_reference(index, store, num_cells);
    EXPECT_TRUE(index.particles_in(0).empty());
    EXPECT_EQ(index.particles_in(300).size(), 300u);
  }
}

// Lengths on both sides of the run (16) and merge-width (32, 64, ... 512)
// boundaries, with ids drawn from a handful of values, so nearly every
// comparison is a tie that must keep slot order.
TEST(CellIndexReference, ManyDuplicateIdsAcrossRunAndMergeBoundaries) {
  std::vector<std::int64_t> lengths;
  for (std::int64_t b = 16; b <= 1024; b *= 2)
    for (const std::int64_t d : {-1, 0, 1}) lengths.push_back(b + d);
  lengths.push_back(1);
  lengths.push_back(2);
  lengths.push_back(3 * 16 + 5);
  const auto num_cells = static_cast<std::int32_t>(lengths.size());
  for (const std::uint64_t id_range : {1u, 2u, 3u, 7u}) {
    const ParticleStore store =
        store_with_lengths(lengths, 2, id_range, id_range);
    const CellIndex index(store, num_cells);
    expect_matches_reference(index, store, num_cells);
  }
}

// One index rebuilt while a cell grows past and shrinks below the lengths
// its merge buffer has held, so a stale buffer tail would show.
TEST(CellIndexReference, ReusedMergeBufferAcrossGrowingAndShrinkingCells) {
  CellIndex index;
  std::uint64_t seed = 1;
  for (const std::int64_t n : {1, 300, 2, 1000, 17, 513, 0, 33, 2048, 64}) {
    const std::vector<std::int64_t> lengths{n / 3, n, 5};
    for (const int ids : {1, 2}) {
      const ParticleStore store =
          store_with_lengths(lengths, ids, 1 + n / 4, seed++);
      index.rebuild(store, 3);
      expect_matches_reference(index, store, 3);
    }
  }
}

}  // namespace
}  // namespace dsmcpic::dsmc
