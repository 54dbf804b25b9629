#include "linalg/csr.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dsmcpic::linalg {

CsrMatrix CsrMatrix::from_triplets(std::int32_t rows, std::int32_t cols,
                                   std::span<const Triplet> triplets) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  std::vector<Triplet> sorted(triplets.begin(), triplets.end());
  for (const auto& t : sorted) {
    DSMCPIC_CHECK_MSG(t.row >= 0 && t.row < rows, "triplet row out of range");
    DSMCPIC_CHECK_MSG(t.col >= 0 && t.col < cols, "triplet col out of range");
  }
  std::sort(sorted.begin(), sorted.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(sorted.size());
  m.values_.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size();) {
    const std::int32_t r = sorted[i].row;
    const std::int32_t c = sorted[i].col;
    double v = 0.0;
    while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c)
      v += sorted[i++].value;
    m.col_idx_.push_back(c);
    m.values_.push_back(v);
    ++m.row_ptr_[r + 1];
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
