#include "dsmc/particles.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "support/serialize.hpp"

namespace dsmcpic::dsmc {

void ParticleStore::reserve(std::size_t n) {
  px_.reserve(n);
  py_.reserve(n);
  pz_.reserve(n);
  vx_.reserve(n);
  vy_.reserve(n);
  vz_.reserve(n);
  id_.reserve(n);
  species_.reserve(n);
  cell_.reserve(n);
}

void ParticleStore::clear() {
  px_.clear();
  py_.clear();
  pz_.clear();
  vx_.clear();
  vy_.clear();
  vz_.clear();
  id_.clear();
  species_.clear();
  cell_.clear();
}

std::size_t ParticleStore::add(const ParticleRecord& p) {
  px_.push_back(p.position.x);
  py_.push_back(p.position.y);
  pz_.push_back(p.position.z);
  vx_.push_back(p.velocity.x);
  vy_.push_back(p.velocity.y);
  vz_.push_back(p.velocity.z);
  id_.push_back(p.id);
  species_.push_back(p.species);
  cell_.push_back(p.cell);
  return px_.size() - 1;
}

ParticleRecord ParticleStore::record(std::size_t i) const {
  DSMCPIC_CHECK(i < size());
  return {position(i), velocity(i), id_[i], species_[i], cell_[i]};
}

void ParticleStore::remove_swap(std::size_t i) {
  DSMCPIC_CHECK(i < size());
  const std::size_t last = size() - 1;
  if (i != last) {
    px_[i] = px_[last];
    py_[i] = py_[last];
    pz_[i] = pz_[last];
    vx_[i] = vx_[last];
    vy_[i] = vy_[last];
    vz_[i] = vz_[last];
    id_[i] = id_[last];
    species_[i] = species_[last];
    cell_[i] = cell_[last];
  }
  px_.pop_back();
  py_.pop_back();
  pz_.pop_back();
  vx_.pop_back();
  vy_.pop_back();
  vz_.pop_back();
  id_.pop_back();
  species_.pop_back();
  cell_.pop_back();
}

std::size_t ParticleStore::remove_flagged(std::span<const std::uint8_t> flags) {
  DSMCPIC_CHECK(flags.size() == size());
  std::size_t out = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (flags[i]) continue;
    if (out != i) {
      px_[out] = px_[i];
      py_[out] = py_[i];
      pz_[out] = pz_[i];
      vx_[out] = vx_[i];
      vy_[out] = vy_[i];
      vz_[out] = vz_[i];
      id_[out] = id_[i];
      species_[out] = species_[i];
      cell_[out] = cell_[i];
    }
    ++out;
  }
  const std::size_t removed = size() - out;
  px_.resize(out);
  py_.resize(out);
  pz_.resize(out);
  vx_.resize(out);
  vy_.resize(out);
  vz_.resize(out);
  id_.resize(out);
  species_.resize(out);
  cell_.resize(out);
  return removed;
}

void ParticleStore::apply_gather(std::span<const std::int32_t> gather,
                                 SortScratch& scratch,
                                 std::span<std::uint8_t> flags) {
  const std::size_t n = size();
  DSMCPIC_CHECK(gather.size() == n);
  DSMCPIC_CHECK(flags.empty() || flags.size() == n);
  for (const std::int32_t g : gather)
    DSMCPIC_CHECK_MSG(g >= 0 && static_cast<std::size_t>(g) < n,
                      "gather index " << g << " out of range");
  // Ping-pong: gather into the scratch buffer, then swap it in; the old
  // storage becomes the scratch for the next component, so steady-state
  // sorts allocate nothing.
  const auto permute = [&gather, n](auto& vec, auto& tmp) {
    tmp.resize(n);
    for (std::size_t k = 0; k < n; ++k)
      tmp[k] = vec[static_cast<std::size_t>(gather[k])];
    vec.swap(tmp);
  };
  permute(px_, scratch.dbl);
  permute(py_, scratch.dbl);
  permute(pz_, scratch.dbl);
  permute(vx_, scratch.dbl);
  permute(vy_, scratch.dbl);
  permute(vz_, scratch.dbl);
  permute(id_, scratch.i64);
  permute(species_, scratch.i32);
  permute(cell_, scratch.i32);
  if (!flags.empty()) {
    scratch.u8.resize(n);
    for (std::size_t k = 0; k < n; ++k)
      scratch.u8[k] = flags[static_cast<std::size_t>(gather[k])];
    for (std::size_t k = 0; k < n; ++k) flags[k] = scratch.u8[k];
  }
}

void ParticleStore::sort_by_cell(std::int32_t num_cells, SortScratch& scratch,
                                 std::span<std::uint8_t> flags) {
  if (empty()) return;
  // The slot-stable grouping by cell is the gather. A pure memory-layout
  // operation: per-cell traversal follows CellIndex's id order, whatever
  // the store's arrangement.
  scratch.order.group(cell_, num_cells, [](std::size_t) { return true; });
  apply_gather(scratch.order.items(), scratch, flags);
}

std::int64_t ParticleStore::count_species(std::int32_t species_id) const {
  std::int64_t n = 0;
  for (std::int32_t s : species_)
    if (s == species_id) ++n;
  return n;
}

void ParticleStore::save(std::ostream& os) const {
  io::write_vec(os, px_);
  io::write_vec(os, py_);
  io::write_vec(os, pz_);
  io::write_vec(os, vx_);
  io::write_vec(os, vy_);
  io::write_vec(os, vz_);
  io::write_vec(os, id_);
  io::write_vec(os, species_);
  io::write_vec(os, cell_);
}

void ParticleStore::load(std::istream& is) {
  px_ = io::read_vec<double>(is);
  py_ = io::read_vec<double>(is);
  pz_ = io::read_vec<double>(is);
  vx_ = io::read_vec<double>(is);
  vy_ = io::read_vec<double>(is);
  vz_ = io::read_vec<double>(is);
  id_ = io::read_vec<std::int64_t>(is);
  species_ = io::read_vec<std::int32_t>(is);
  cell_ = io::read_vec<std::int32_t>(is);
  const std::size_t n = px_.size();
  DSMCPIC_CHECK(py_.size() == n && pz_.size() == n);
  DSMCPIC_CHECK(vx_.size() == n && vy_.size() == n && vz_.size() == n);
  DSMCPIC_CHECK(id_.size() == n);
  DSMCPIC_CHECK(species_.size() == n);
  DSMCPIC_CHECK(cell_.size() == n);
}

CellIndex::CellIndex(const ParticleStore& store, std::int32_t num_cells) {
  rebuild(store, num_cells);
}

void CellIndex::rebuild(const ParticleStore& store, std::int32_t num_cells) {
  group(store.cells(), num_cells, [](std::size_t) { return true; });
  // Canonicalize each cell's list to ascending particle id. Store slots are
  // NOT a reliable within-cell order: a particle whose cell changes without
  // leaving the rank keeps its old slot, so slot order inside the new cell
  // depends on the store's memory layout history (e.g. whether a periodic
  // cell sort ran, DESIGN.md §2g). Ids are layout-independent, so every
  // per-cell consumer — NTC pair selection, chemistry, reindex — sees the
  // same sequence no matter how the store is arranged. The stable tie-break
  // (ids are unique per step; spawn-id collisions are ~2^-63) keeps the
  // result deterministic regardless.
  order_by_id(store.ids());
}

void CellIndex::order_by_id(std::span<const std::int64_t> ids) {
  // std::stable_sort's result (a stable sort's output is unique) without
  // the temporary buffer it allocates on every call: runs of kRun are
  // insertion-sorted in place, then adjacent runs merge at doubling widths
  // through merge_buf_. Pairs already in order are skipped, so a cell
  // listed in id order (the common case after Reindex) costs one compare
  // per item.
  constexpr std::int64_t kRun = 16;
  const auto before = [&ids](std::int32_t a, std::int32_t b) {
    return ids[a] < ids[b];
  };
  for (const std::int32_t s : by_cell_) {  // ranges in memory order
    std::int32_t* const list = items_.data() + begin_[s];
    const std::int64_t n = end_[s] - begin_[s];
    for (std::int64_t lo = 0; lo < n; lo += kRun)
      for (std::int64_t i = lo + 1; i < std::min(lo + kRun, n); ++i) {
        const std::int32_t v = list[i];
        std::int64_t j = i;
        for (; j > lo && before(v, list[j - 1]); --j) list[j] = list[j - 1];
        list[j] = v;
      }
    for (std::int64_t width = kRun; width < n; width *= 2)
      for (std::int64_t lo = 0; lo + width < n; lo += 2 * width) {
        const std::int64_t mid = lo + width;
        const std::int64_t hi = std::min(mid + width, n);
        if (!before(list[mid], list[mid - 1])) continue;
        merge_buf_.resize(static_cast<std::size_t>(hi - lo));
        std::merge(list + lo, list + mid, list + mid, list + hi,
                   merge_buf_.begin(), before);  // stable: left run first
        std::copy(merge_buf_.begin(), merge_buf_.end(), list + lo);
      }
  }
}

void CellIndex::reset(std::int32_t num_cells, std::size_t n) {
  num_cells_ = num_cells;
  // Size the table for the previous build's occupancy: steady state needs
  // no growth, and a rank that once held many cells does not keep a large
  // table to clear.
  std::size_t cap = 16;
  while (cap < 4 * slot_cell_.size()) cap *= 2;
  slot_cell_.clear();
  end_.clear();
  rehash(cap);
  tag_.resize(n);
}

void CellIndex::rehash(std::size_t cap) {
  table_.assign(cap, Entry{});
  shift_ = 32 - std::countr_zero(cap);
  for (std::size_t s = 0; s < slot_cell_.size(); ++s)
    table_[probe(slot_cell_[s])] = {slot_cell_[s], static_cast<std::int32_t>(s)};
}

void CellIndex::scatter() {
  // Lay the slots' ranges out by ascending cell, then counting-sort the
  // tagged indices into them in index order.
  const std::size_t k = slot_cell_.size();
  by_cell_.resize(k);
  std::iota(by_cell_.begin(), by_cell_.end(), 0);
  std::sort(by_cell_.begin(), by_cell_.end(),
            [this](std::int32_t a, std::int32_t b) {
              return slot_cell_[a] < slot_cell_[b];
            });
  begin_.resize(k);
  std::int64_t next = 0;
  for (const std::int32_t s : by_cell_) {
    begin_[s] = next;
    next += end_[s];
    end_[s] = begin_[s];
  }
  items_.resize(static_cast<std::size_t>(next));
  for (std::size_t i = 0; i < tag_.size(); ++i)
    if (tag_[i] >= 0)
      items_[static_cast<std::size_t>(end_[tag_[i]]++)] =
          static_cast<std::int32_t>(i);
}

}  // namespace dsmcpic::dsmc
