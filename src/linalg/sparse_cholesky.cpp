#include "linalg/sparse_cholesky.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "obs/scope.hpp"

namespace mtdgrid::linalg {

std::vector<std::size_t> minimum_degree_ordering(const SparseMatrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  // Elimination graph: symmetric adjacency (union of pattern and its
  // transpose), diagonal excluded. std::set keeps neighbor scans sorted,
  // so the whole procedure is deterministic.
  std::vector<std::set<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = a.row_ptr()[i]; p < a.row_ptr()[i + 1]; ++p) {
      const std::size_t j = a.col_idx()[p];
      if (i == j) continue;
      adj[i].insert(j);
      adj[j].insert(i);
    }
  }

  std::vector<std::size_t> perm;
  perm.reserve(n);
  std::vector<bool> eliminated(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    // Minimum degree, ties to the lowest original index.
    std::size_t best = n;
    std::size_t best_degree = n + 1;
    for (std::size_t v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      if (adj[v].size() < best_degree) {
        best = v;
        best_degree = adj[v].size();
      }
    }
    perm.push_back(best);
    eliminated[best] = true;
    // Eliminate: neighbors of `best` become a clique.
    const std::vector<std::size_t> nbrs(adj[best].begin(), adj[best].end());
    for (const std::size_t u : nbrs) {
      adj[u].erase(best);
      for (const std::size_t v : nbrs)
        if (v != u) adj[u].insert(v);
    }
    adj[best].clear();
  }
  return perm;
}

SparseCholesky::SparseCholesky(const SparseMatrix& a)
    : SparseCholesky(a, minimum_degree_ordering(a)) {}

SparseCholesky::SparseCholesky(const SparseMatrix& a,
                               std::vector<std::size_t> perm)
    : n_(a.rows()), perm_(std::move(perm)) {
  assert(a.rows() == a.cols());
  assert(perm_.size() == n_);
  inv_perm_.assign(n_, 0);
  for (std::size_t k = 0; k < n_; ++k) inv_perm_[perm_[k]] = k;
  factorize(a);
}

void SparseCholesky::factorize(const SparseMatrix& a) {
  obs::add(obs::Work::kCholeskyFactorizations);
  obs::Span span("linalg.sparse_cholesky", "linalg");
  const std::size_t n = n_;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Permuted matrix Ap(i, j) = A(perm_[i], perm_[j]); symmetric, so CSR
  // row k doubles as CSC column k.
  TripletBuilder builder(n, n);
  builder.reserve(a.nnz());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t p = a.row_ptr()[i]; p < a.row_ptr()[i + 1]; ++p)
      builder.add(inv_perm_[i], inv_perm_[a.col_idx()[p]], a.values()[p]);
  const SparseMatrix ap = builder.build();

  // Same relative positive-definiteness tolerance as the dense
  // CholeskyDecomposition, so both report the same rank deficiencies.
  double max_diag = 0.0;
  for (std::size_t k = 0; k < n; ++k)
    max_diag = std::max(max_diag, std::abs(ap.coeff(k, k)));
  const double tol = 1e-12 * std::max(max_diag, 1e-300);

  // Elimination tree of the upper-triangular pattern (path compression
  // via `ancestor`).
  std::vector<std::size_t> parent(n, kNone);
  std::vector<std::size_t> ancestor(n, kNone);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t p = ap.row_ptr()[k]; p < ap.row_ptr()[k + 1]; ++p) {
      std::size_t i = ap.col_idx()[p];
      while (i != kNone && i < k) {
        const std::size_t next = ancestor[i];
        ancestor[i] = k;
        if (next == kNone) parent[i] = k;
        i = next;
      }
    }
  }

  // Up-looking numeric factorization. Columns of L grow by appended rows
  // (row indices ascend because k does); the diagonal is entry 0.
  std::vector<std::vector<std::size_t>> col_rows(n);
  std::vector<std::vector<double>> col_vals(n);
  std::vector<double> x(n, 0.0);
  std::vector<std::size_t> visited(n, kNone);
  std::vector<std::size_t> stack(n, 0);

  for (std::size_t k = 0; k < n; ++k) {
    // Pattern of row k of L: the etree reach of the above-diagonal
    // entries of column k, in topological order (cs_ereach).
    std::size_t top = n;
    visited[k] = k;
    for (std::size_t p = ap.row_ptr()[k]; p < ap.row_ptr()[k + 1]; ++p) {
      std::size_t i = ap.col_idx()[p];
      if (i > k) continue;
      x[i] = ap.values()[p];
      std::size_t len = 0;
      while (visited[i] != k) {
        stack[len++] = i;
        visited[i] = k;
        i = parent[i];
      }
      while (len > 0) stack[--top] = stack[--len];
    }

    double d = x[k];
    x[k] = 0.0;
    for (std::size_t si = top; si < n; ++si) {
      const std::size_t j = stack[si];
      const double lkj = x[j] / col_vals[j][0];
      x[j] = 0.0;
      for (std::size_t p = 1; p < col_rows[j].size(); ++p)
        x[col_rows[j][p]] -= col_vals[j][p] * lkj;
      d -= lkj * lkj;
      col_rows[j].push_back(k);
      col_vals[j].push_back(lkj);
    }
    if (d <= tol) {
      failed_ = true;
      return;
    }
    col_rows[k].push_back(k);
    col_vals[k].push_back(std::sqrt(d));
  }

  // Compress to CSC for the solves.
  l_col_ptr_.assign(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j)
    l_col_ptr_[j + 1] = l_col_ptr_[j] + col_rows[j].size();
  l_row_idx_.reserve(l_col_ptr_[n]);
  l_values_.reserve(l_col_ptr_[n]);
  for (std::size_t j = 0; j < n; ++j) {
    l_row_idx_.insert(l_row_idx_.end(), col_rows[j].begin(),
                      col_rows[j].end());
    l_values_.insert(l_values_.end(), col_vals[j].begin(), col_vals[j].end());
  }
  obs::add(obs::Work::kCholeskyFactorNnz, l_values_.size());
}

Vector SparseCholesky::solve(const Vector& b) const {
  assert(!failed_);
  assert(b.size() == n_);
  Vector z(n_);
  for (std::size_t k = 0; k < n_; ++k) z[k] = b[perm_[k]];
  // Forward solve L y = P b (column-oriented).
  for (std::size_t j = 0; j < n_; ++j) {
    z[j] /= l_values_[l_col_ptr_[j]];
    const double zj = z[j];
    for (std::size_t p = l_col_ptr_[j] + 1; p < l_col_ptr_[j + 1]; ++p)
      z[l_row_idx_[p]] -= l_values_[p] * zj;
  }
  // Back solve L^T x = y (each column of L is a row of L^T).
  for (std::size_t j = n_; j-- > 0;) {
    double acc = z[j];
    for (std::size_t p = l_col_ptr_[j] + 1; p < l_col_ptr_[j + 1]; ++p)
      acc -= l_values_[p] * z[l_row_idx_[p]];
    z[j] = acc / l_values_[l_col_ptr_[j]];
  }
  Vector x(n_);
  for (std::size_t k = 0; k < n_; ++k) x[perm_[k]] = z[k];
  return x;
}

}  // namespace mtdgrid::linalg
