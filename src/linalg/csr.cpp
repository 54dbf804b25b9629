#include "linalg/csr.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dsmcpic::linalg {

CsrMatrix CsrMatrix::from_triplets(std::int32_t rows, std::int32_t cols,
                                   std::span<const Triplet> triplets) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  for (const auto& t : triplets) {
    DSMCPIC_CHECK_MSG(t.row >= 0 && t.row < rows, "triplet row out of range");
    DSMCPIC_CHECK_MSG(t.col >= 0 && t.col < cols, "triplet col out of range");
  }
  // One 64-bit key per entry, (row << 32) | col: with row and col
  // non-negative (checked above) it orders exactly as (row, col) does.
  // std::sort's moves follow from comparison outcomes alone, so the entries
  // end in the order a (row, col) sort gives and duplicates sum in that
  // order. Strictly ascending keys (an assembly already in order) are their
  // own sort.
  struct Entry {
    std::uint64_t key;
    double value;
  };
  std::vector<Entry> sorted(triplets.size());
  for (std::size_t i = 0; i < triplets.size(); ++i)
    sorted[i] = {static_cast<std::uint64_t>(triplets[i].row) << 32 |
                     static_cast<std::uint64_t>(triplets[i].col),
                 triplets[i].value};
  if (std::adjacent_find(sorted.begin(), sorted.end(),
                         [](const Entry& a, const Entry& b) {
                           return a.key >= b.key;
                         }) != sorted.end())
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });

  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(sorted.size());
  m.values_.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size();) {
    const std::uint64_t key = sorted[i].key;
    double v = 0.0;
    while (i < sorted.size() && sorted[i].key == key) v += sorted[i++].value;
    m.col_idx_.push_back(static_cast<std::int32_t>(key & 0xffffffffu));
    m.values_.push_back(v);
    ++m.row_ptr_[(key >> 32) + 1];
  }
  for (std::int32_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

void CsrMatrix::matvec(std::span<const double> x, std::span<double> y) const {
  DSMCPIC_CHECK(static_cast<std::int32_t>(x.size()) >= cols_);
  DSMCPIC_CHECK(static_cast<std::int32_t>(y.size()) >= rows_);
  for (std::int32_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::int64_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e)
      acc += values_[static_cast<std::size_t>(e)] *
             x[col_idx_[static_cast<std::size_t>(e)]];
    y[r] = acc;
  }
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(rows_, 0.0);
  for (std::int32_t r = 0; r < rows_ && r < cols_; ++r) d[r] = at(r, r);
  return d;
}

double CsrMatrix::at(std::int32_t row, std::int32_t col) const {
  DSMCPIC_CHECK(row >= 0 && row < rows_);
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

}  // namespace dsmcpic::linalg
