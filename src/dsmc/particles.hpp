#pragma once
// Particle storage. Per-scalar structure-of-arrays for the hot loops: the
// Vec3 position/velocity fields are split into six component vectors
// (px/py/pz, vx/vy/vz) so move, Boris push, VHS candidate selection and
// deposit stream flat double arrays the compiler can vectorize
// (DESIGN.md §2g). A trivially copyable ParticleRecord remains the wire
// format used when particles migrate between ranks (DSMC_Exchange /
// PIC_Exchange payloads) — the SoA split never changes what goes over the
// wire.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "support/error.hpp"
#include "support/vec3.hpp"

namespace dsmcpic::dsmc {

/// Wire/record format for one particle; memcpy-serializable.
struct ParticleRecord {
  Vec3 position;
  Vec3 velocity;
  std::int64_t id = 0;
  std::int32_t species = 0;
  std::int32_t cell = -1;  // coarse-grid cell index
};
static_assert(std::is_trivially_copyable_v<ParticleRecord>);

class ParticleStore;

/// Cell -> particle-index lists, rank-local: storage and rebuild cost are
/// O(particles + occupied cells), never O(global cells), so a rank holding
/// a dozen of 12,000 cells pays for a dozen (DESIGN.md §2g). Occupied cells
/// map to dense slots through an open-addressing table, particles are
/// counting-sorted over those slots, and the slots are ordered by ascending
/// cell.
///
/// rebuild() lists every particle of a store and sorts each cell's list by
/// ascending particle id — the canonical per-cell traversal order, chosen
/// because store slots are layout history (intra-rank cell changes keep
/// their slot) while ids are layout-independent. After
/// ParticleStore::sort_by_cell each cell's particles occupy one contiguous
/// slot range, but within that range the list follows id order, not slot
/// order. group() is the slot-stable grouping underneath, shared with the
/// periodic cell sort and the deposit traversal.
class CellIndex {
 public:
  CellIndex() = default;
  CellIndex(const ParticleStore& store, std::int32_t num_cells);

  /// Rebuilds the index in place over every particle of `store`, each
  /// cell's list in ascending id order (equal ids keep slot order). Reuses
  /// its storage, so steady-state steps allocate nothing. Throws
  /// dsmcpic::Error if a particle's cell is outside [0, num_cells).
  void rebuild(const ParticleStore& store, std::int32_t num_cells);

  /// Lists the slots i in [0, cells.size()) with keep(i), grouped by
  /// cells[i]: occupied cells ascending, slot order within each cell.
  /// Throws dsmcpic::Error if a kept slot's cell is outside [0, num_cells).
  template <class Keep>
  void group(std::span<const std::int32_t> cells, std::int32_t num_cells,
             Keep keep);
  /// Stable-sorts each cell's list by ascending ids[item]: insertion sort
  /// on short runs, then merges through a buffer the index keeps, so
  /// steady-state calls allocate nothing.
  void order_by_id(std::span<const std::int64_t> ids);

  /// The listed particles of `cell`; empty if it holds none.
  std::span<const std::int32_t> particles_in(std::int32_t cell) const {
    const std::int32_t s = find(cell);
    if (s < 0) return {};
    return {items_.data() + begin_[s],
            static_cast<std::size_t>(end_[s] - begin_[s])};
  }
  /// Every listed particle, cell-major (occupied cells ascending).
  std::span<const std::int32_t> items() const { return items_; }
  std::int32_t num_cells() const { return num_cells_; }

 private:
  struct Entry {
    std::int32_t cell = -1;  // -1: empty
    std::int32_t slot = -1;
  };
  std::size_t home(std::int32_t cell) const {
    return (static_cast<std::uint32_t>(cell) * 0x9e3779b9u) >> shift_;
  }
  // The entry holding `cell`, or the empty entry ending its probe chain.
  std::size_t probe(std::int32_t cell) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t h = home(cell);
    while (table_[h].cell != cell && table_[h].cell >= 0) h = (h + 1) & mask;
    return h;
  }
  // -1 if absent: a probe for an absent (or negative) cell ends at an
  // empty entry, whose slot is -1.
  std::int32_t find(std::int32_t cell) const {
    return table_.empty() ? -1 : table_[probe(cell)].slot;
  }
  std::int32_t occupy(std::int32_t cell);  // slot of cell, inserting it
  void reset(std::int32_t num_cells, std::size_t n);
  void rehash(std::size_t cap);
  void scatter();

  std::int32_t num_cells_ = 0;
  int shift_ = 32;
  std::vector<Entry> table_;  // occupied cell -> slot; power-of-two size,
                              // linear probing, at most 1/4 full
  // Per slot (cells in first-seen order): its cell, and its list's range
  // in items_. end_ counts the slot's particles, then is the fill cursor.
  std::vector<std::int32_t> slot_cell_;
  std::vector<std::int64_t> begin_, end_;
  std::vector<std::int32_t> tag_;      // per listed index: slot, or -1
  std::vector<std::int32_t> by_cell_;  // slots by ascending cell
  std::vector<std::int32_t> items_;
  std::vector<std::int32_t> merge_buf_;  // order_by_id's merge output
};

inline std::int32_t CellIndex::occupy(std::int32_t cell) {
  Entry* e = &table_[probe(cell)];
  if (e->cell < 0) {
    if (4 * (slot_cell_.size() + 1) > table_.size()) {
      rehash(2 * table_.size());
      e = &table_[probe(cell)];
    }
    *e = {cell, static_cast<std::int32_t>(slot_cell_.size())};
    slot_cell_.push_back(cell);
    end_.push_back(0);
  }
  return e->slot;
}

template <class Keep>
void CellIndex::group(std::span<const std::int32_t> cells,
                      std::int32_t num_cells, Keep keep) {
  reset(num_cells, cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!keep(i)) {
      tag_[i] = -1;
      continue;
    }
    const std::int32_t c = cells[i];
    DSMCPIC_CHECK_MSG(c >= 0 && c < num_cells,
                      "particle in invalid cell " << c);
    const std::int32_t slot = occupy(c);
    tag_[i] = slot;
    ++end_[static_cast<std::size_t>(slot)];
  }
  scatter();
}

/// Reusable scratch for ParticleStore::sort_by_cell / apply_gather: the
/// slot-stable cell grouping that is the sort's gather permutation, and
/// one ping-pong buffer per element type. Capacities persist across steps
/// so the periodic cell sort allocates nothing in steady state.
struct SortScratch {
  CellIndex order;                    // new slot k reads old slot items()[k]
  std::vector<double> dbl;            // component ping-pong
  std::vector<std::int64_t> i64;
  std::vector<std::int32_t> i32;
  std::vector<std::uint8_t> u8;
};

class ParticleStore {
 public:
  std::size_t size() const { return px_.size(); }
  bool empty() const { return px_.empty(); }
  void reserve(std::size_t n);
  void clear();

  std::size_t add(const ParticleRecord& p);

  // Hot-loop accessors: per-scalar component arrays.
  std::span<double> px() { return px_; }
  std::span<const double> px() const { return px_; }
  std::span<double> py() { return py_; }
  std::span<const double> py() const { return py_; }
  std::span<double> pz() { return pz_; }
  std::span<const double> pz() const { return pz_; }
  std::span<double> vx() { return vx_; }
  std::span<const double> vx() const { return vx_; }
  std::span<double> vy() { return vy_; }
  std::span<const double> vy() const { return vy_; }
  std::span<double> vz() { return vz_; }
  std::span<const double> vz() const { return vz_; }
  std::span<std::int64_t> ids() { return id_; }
  std::span<const std::int64_t> ids() const { return id_; }
  std::span<std::int32_t> species() { return species_; }
  std::span<const std::int32_t> species() const { return species_; }
  std::span<std::int32_t> cells() { return cell_; }
  std::span<const std::int32_t> cells() const { return cell_; }

  // Vec3 convenience accessors (gather/scatter across the component arrays;
  // use the component spans directly in vectorized loops).
  Vec3 position(std::size_t i) const { return {px_[i], py_[i], pz_[i]}; }
  Vec3 velocity(std::size_t i) const { return {vx_[i], vy_[i], vz_[i]}; }
  void set_velocity(std::size_t i, const Vec3& v) {
    vx_[i] = v.x;
    vy_[i] = v.y;
    vz_[i] = v.z;
  }

  ParticleRecord record(std::size_t i) const;

  /// Removes particle i by swapping with the last element (O(1)); the caller
  /// must iterate accordingly (i is reused for the swapped-in particle).
  /// Not order-preserving; fine wherever traversal goes through CellIndex
  /// (which canonicalizes per-cell order by id) or order is irrelevant.
  void remove_swap(std::size_t i);

  /// Removes every particle whose flag is non-zero; preserves relative order
  /// of the survivors (stable compaction, used by Reindex). Returns the
  /// number removed.
  std::size_t remove_flagged(std::span<const std::uint8_t> flags);

  /// Reorders the store so new slot k holds old slot gather[k], for any
  /// permutation `gather` of [0, size()). `flags` (optional, same length)
  /// is permuted alongside so per-particle sidecar state stays aligned.
  void apply_gather(std::span<const std::int32_t> gather, SortScratch& scratch,
                    std::span<std::uint8_t> flags = {});

  /// Stable counting sort of the store by owning coarse cell, over the
  /// occupied cells only: afterwards particles of one cell occupy one
  /// contiguous slot range, cells ascending, and the relative order of
  /// particles WITHIN each cell is unchanged. This is a pure memory-layout
  /// operation — per-cell traversal ORDER is owned by CellIndex, which
  /// canonicalizes by particle id, so its lists are generally not the
  /// identity afterwards — and running it (at any interval) changes no
  /// observable result (DESIGN.md §2g).
  void sort_by_cell(std::int32_t num_cells, SortScratch& scratch,
                    std::span<std::uint8_t> flags = {});

  /// Number of particles of one species.
  std::int64_t count_species(std::int32_t species_id) const;

  /// Binary checkpoint of the whole store (component-vector layout).
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  std::vector<double> px_, py_, pz_;
  std::vector<double> vx_, vy_, vz_;
  std::vector<std::int64_t> id_;
  std::vector<std::int32_t> species_;
  std::vector<std::int32_t> cell_;
};

}  // namespace dsmcpic::dsmc
