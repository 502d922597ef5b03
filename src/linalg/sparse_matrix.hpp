#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::linalg {

/// Column-compressed (CSC) layout of a sparse matrix, the natural
/// orientation for the sparse Cholesky factorization (columns are
/// eliminated left to right). Produced by `SparseMatrix::csc()`; the
/// vectors are owned, so the view outlives its source matrix.
struct CscView {
  std::size_t rows = 0;               ///< row count
  std::size_t cols = 0;               ///< column count
  std::vector<std::size_t> col_ptr;   ///< size cols+1; column j spans
                                      ///< [col_ptr[j], col_ptr[j+1])
  std::vector<std::size_t> row_idx;   ///< row index per stored entry
  std::vector<double> values;         ///< value per stored entry
};

/// Compressed-sparse-row (CSR) real matrix with value semantics — the
/// storage of the measurement matrix in WLS state estimation and of B_r in
/// the power flow (DESIGN.md "Storage policy & sparse backbone").
///
/// Rows are stored back to back: row i occupies entry range
/// [row_ptr()[i], row_ptr()[i+1]) of col_idx()/values(), with column
/// indices strictly ascending inside each row. Assembly goes through
/// `TripletBuilder` (duplicates summed in insertion order, so rebuild
/// sums match an equivalent dense accumulation bit for bit) or
/// `from_dense`. All operations are deterministic: iteration order is
/// fixed by the layout, never by hashing or threading.
class SparseMatrix {
 public:
  /// Creates an empty 0x0 matrix.
  SparseMatrix() = default;

  /// Creates a `rows` x `cols` matrix with no stored entries.
  SparseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

  /// Compresses a dense matrix, storing entries with |a(i,j)| > drop_tol
  /// (the default keeps every exact nonzero).
  static SparseMatrix from_dense(const Matrix& a, double drop_tol = 0.0);

  /// Expands to a dense matrix (tests, small-problem interop).
  Matrix to_dense() const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Number of stored entries.
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Value at (i, j): binary search inside row i, zero when not stored.
  double coeff(std::size_t i, std::size_t j) const;

  /// Matrix-vector product `this * v`.
  Vector operator*(const Vector& v) const;

  /// `this^T * v` without materializing the transpose.
  Vector transpose_times(const Vector& v) const;

  /// Transpose as a new CSR matrix (equivalently: the CSC layout of this
  /// matrix re-labeled as CSR).
  SparseMatrix transposed() const;

  /// Column-compressed layout of this matrix, for factorization.
  CscView csc() const;

  /// The weighted Gram matrix `this^T diag(w) this` as a sparse n x n
  /// matrix (both triangles stored). `w` must have one entry per row.
  /// Deterministic: contributions accumulate in row-major scan order.
  SparseMatrix weighted_gram(const Vector& w) const;

  /// Largest absolute stored entry (0 for an empty matrix).
  double max_abs() const;

 private:
  friend class TripletBuilder;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Maximum absolute elementwise difference between equally sized sparse
/// matrices (walks the union of the two patterns).
double max_abs_diff(const SparseMatrix& a, const SparseMatrix& b);

/// Coordinate-format assembly buffer for `SparseMatrix`.
///
/// `add` appends (i, j, v) triplets in any order; `build` sorts them
/// stably by (row, column) and sums duplicates in insertion order, so the
/// value of an entry assembled from k triplets equals the left-to-right
/// sum of those k contributions — the same order a dense `+=` loop over
/// the triplets would produce. Explicit zeros are kept (a stored zero and
/// an absent entry differ only in pattern).
class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Appends one contribution to entry (i, j); duplicates are summed by
  /// `build`. Asserted in-range in debug builds.
  void add(std::size_t i, std::size_t j, double value);

  /// Pre-sizes the triplet buffer.
  void reserve(std::size_t count) { triplets_.reserve(count); }

  /// Assembles the CSR matrix. The builder may be reused afterwards (the
  /// triplet list is left untouched).
  SparseMatrix build() const;

 private:
  struct Triplet {
    std::size_t row;
    std::size_t col;
    double value;
  };

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Triplet> triplets_;
};

}  // namespace mtdgrid::linalg
