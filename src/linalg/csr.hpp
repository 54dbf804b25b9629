#pragma once
// Compressed Sparse Row matrix — the storage format the paper uses for the
// Poisson stiffness matrix K (Sec. IV-C: "we use the CSR format to reduce
// the memory footprint").

#include <cstdint>
#include <span>
#include <vector>

namespace dsmcpic::linalg {

struct Triplet {
  std::int32_t row = 0;
  std::int32_t col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets; duplicate (row, col) entries are summed (the
  /// natural FEM assembly semantics).
  static CsrMatrix from_triplets(std::int32_t rows, std::int32_t cols,
                                 std::span<const Triplet> triplets);

  std::int32_t rows() const { return rows_; }
  std::int32_t cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(values_.size()); }

  const std::vector<std::int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::int32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// y = A x.
  void matvec(std::span<const double> x, std::span<double> y) const;

  /// Main diagonal (square matrices); zeros where no stored entry exists.
  std::vector<double> diagonal() const;

  /// Entry lookup (binary search within the row); 0 if not stored.
  double at(std::int32_t row, std::int32_t col) const;

 private:
  std::int32_t rows_ = 0;
  std::int32_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace dsmcpic::linalg
