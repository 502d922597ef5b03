#include "mtd/spa.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "grid/measurement.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/subspace.hpp"
#include "linalg/svd.hpp"
#include "obs/scope.hpp"

namespace mtdgrid::mtd {

double spa(const linalg::Matrix& h_old, const linalg::Matrix& h_new) {
  return linalg::largest_principal_angle(h_old, h_new);
}

double smallest_angle(const linalg::Matrix& h_old,
                      const linalg::Matrix& h_new) {
  return linalg::smallest_principal_angle(h_old, h_new);
}

bool column_spaces_orthogonal(const linalg::Matrix& h_old,
                              const linalg::Matrix& h_new, double tol) {
  return smallest_angle(h_old, h_new) >= std::numbers::pi / 2.0 - tol;
}

template <typename FlowEntry>
bool SpaEvaluator::recover_reference(const FlowEntry& flow_entry) {
  // Try to recognize h_attacker as H(sys, x_ref) for some reactances: each
  // forward-flow row is d_l * (e_from - e_to)^T, so any non-slack endpoint
  // entry reveals d_l.
  const std::size_t num_branches = sys_.num_branches();
  const std::size_t num_buses = sys_.num_buses();
  x_ref_ = linalg::Vector(num_branches);
  d_ref_ = linalg::Vector(num_branches);
  for (std::size_t l = 0; l < num_branches; ++l) {
    const grid::Branch& br = sys_.branch(l);
    const std::size_t cf = grid::reduced_state_column(sys_, br.from);
    const std::size_t ct = grid::reduced_state_column(sys_, br.to);
    double d = 0.0;
    if (cf < num_buses) {
      d = flow_entry(l, cf);
    } else if (ct < num_buses) {
      d = -flow_entry(l, ct);
    }
    if (!(d > 0.0)) return false;
    d_ref_[l] = d;
    x_ref_[l] = sys_.base_mva() / d;
  }
  return true;
}

void SpaEvaluator::build_basis(const linalg::Matrix& h0, bool recovered) {
  qr0_ = linalg::QrDecomposition(h0);
  if (qr0_.rank() < h0.cols()) {
    // Factorize the rank-revealing basis of Col(h0) instead: the leading
    // rank(h0) columns of its Q span Col(h0), as gamma_full needs.
    qr0_ = linalg::QrDecomposition(linalg::orthonormal_column_basis(h0));
    return;
  }
  if (recovered) {
    build_closed_form();
    incremental_ = true;
  }
}

void SpaEvaluator::build_closed_form() {
  // Per-D-FACTS-branch blocks of the closed form (see gamma()). Column j
  // belongs to D-FACTS branch dfacts[j]; u_l is its structure vector (+1 at
  // flow row l, -1 at the reverse row L+l, +-1 at the endpoint injection
  // rows) and a_l its reduced-incidence row (+1 at from, -1 at to).
  const linalg::Matrix& r0 = qr0_.r();
  const std::vector<std::size_t> dfacts = sys_.dfacts_branches();
  const std::size_t m = dfacts.size();
  const std::size_t n = r0.cols();
  const std::size_t num_branches = sys_.num_branches();
  dfacts_slot_.assign(num_branches, kNotDfacts);
  for (std::size_t j = 0; j < m; ++j) dfacts_slot_[dfacts[j]] = j;
  if (m == 0) return;

  // With H0 = Q [R0; 0], Q^T U = [P; B]: P = Q0^T U, and the part of U
  // outside Col(H0) is U_perp = Q [0; B]. Q is orthogonal, so U_perp and B
  // share their triangular factor R_u, and no explicit Q0 (nor a
  // re-orthogonalization of U - Q0 P) is needed.
  linalg::Matrix u(grid::measurement_count(sys_), m);
  for (std::size_t j = 0; j < m; ++j) {
    const grid::Branch& br = sys_.branch(dfacts[j]);
    u(dfacts[j], j) = 1.0;
    u(num_branches + dfacts[j], j) = -1.0;
    u(2 * num_branches + br.from, j) = 1.0;
    u(2 * num_branches + br.to, j) = -1.0;
  }
  const linalg::Matrix qtu = qr0_.apply_qt(std::move(u));
  const linalg::Matrix p = qtu.block(0, 0, n, m);
  // B = Q_b R_u; Q_b never enters a singular value, only R_u does.
  // Householder keeps Q_b orthonormal even when the columns are dependent.
  ru_ = linalg::QrDecomposition(qtu.block(n, 0, qtu.rows() - n, m)).r();

  // Z = R0^{-T} A by forward substitution (R0^T is lower triangular).
  linalg::Matrix z(n, m);
  for (std::size_t j = 0; j < m; ++j) {
    const grid::Branch& br = sys_.branch(dfacts[j]);
    const std::size_t cf = grid::reduced_state_column(sys_, br.from);
    const std::size_t ct = grid::reduced_state_column(sys_, br.to);
    for (std::size_t i = 0; i < n; ++i) {
      double v = (i == cf ? 1.0 : 0.0) - (i == ct ? 1.0 : 0.0);
      for (std::size_t t = 0; t < i; ++t) v -= r0(t, i) * z(t, j);
      z(i, j) = v / r0(i, i);
    }
  }
  psi_ = z.transpose_times(p);
  // Z^T = Y Q_z^T with Q_z orthonormal, so sigma(X Z^T) = sigma(X Y^T):
  // Y = R_z^T from a Householder QR of Z, or Z^T itself when Z is wide
  // (more D-FACTS branches than states).
  yz_ = m <= n ? linalg::QrDecomposition(z).r().transposed() : z.transposed();
}

SpaEvaluator::SpaEvaluator(const grid::PowerSystem& sys,
                           const linalg::Matrix& h_attacker)
    : sys_(sys) {
  obs::Span span("mtd.spa_build", "mtd");
  if (h_attacker.rows() != grid::measurement_count(sys_) ||
      h_attacker.cols() != sys_.num_buses() - 1)
    throw std::invalid_argument(
        "SpaEvaluator: h_attacker does not have the system's measurement "
        "dimensions");

  // Verification against the sparse H(x_ref): from_dense keeps every
  // nonzero, so an entry off the measurement structure is compared
  // against zero.
  bool recovered = recover_reference(
      [&](std::size_t l, std::size_t c) { return h_attacker(l, c); });
  if (recovered) {
    const linalg::SparseMatrix rebuilt =
        grid::sparse_measurement_matrix(sys_, x_ref_);
    const double scale = std::max(1.0, h_attacker.max_abs());
    recovered = linalg::max_abs_diff(
                    rebuilt, linalg::SparseMatrix::from_dense(h_attacker)) <=
                1e-8 * scale;
  }
  build_basis(h_attacker, recovered);
}

SpaEvaluator::SpaEvaluator(const grid::PowerSystem& sys,
                           const linalg::SparseMatrix& h_attacker)
    : sys_(sys) {
  obs::Span span("mtd.spa_build", "mtd");
  if (h_attacker.rows() != grid::measurement_count(sys_) ||
      h_attacker.cols() != sys_.num_buses() - 1)
    throw std::invalid_argument(
        "SpaEvaluator: h_attacker does not have the system's measurement "
        "dimensions");

  // Recognition and verification on the sparse entries (O(nnz), no dense
  // intermediate): flow rows hold at most two stored values each.
  bool recovered = recover_reference([&](std::size_t l, std::size_t c) {
    return h_attacker.coeff(l, c);
  });
  if (recovered) {
    const linalg::SparseMatrix rebuilt =
        grid::sparse_measurement_matrix(sys_, x_ref_);
    const double scale = std::max(1.0, h_attacker.max_abs());
    recovered = linalg::max_abs_diff(rebuilt, h_attacker) <= 1e-8 * scale;
  }
  // Only the QR — dense by nature — materializes the full block.
  build_basis(h_attacker.to_dense(), recovered);
}

double SpaEvaluator::gamma(const linalg::Vector& x) const {
  if (x.size() != sys_.num_branches())
    throw std::invalid_argument("SpaEvaluator: reactance vector length");
  if (!incremental_) return gamma_full(grid::measurement_matrix(sys_, x));

  // Relative tolerance: the x_ref recovered from h_attacker carries ~1e-16
  // reconstruction rounding, so candidates numerically equal to the
  // reference must diff to the empty set (gamma identically 0), and
  // sub-1e-12 reactance jitter contributes < 1e-11 rad anyway.
  const std::vector<std::size_t> changed =
      grid::changed_branches(x_ref_, x, 1e-12);
  bool closed_form = true;
  for (std::size_t l : changed) {
    if (!(x[l] > 0.0))
      throw std::invalid_argument("SpaEvaluator: reactances must be > 0");
    closed_form = closed_form && dfacts_slot_[l] != kNotDfacts;
  }
  if (!closed_form) return gamma_full(grid::measurement_matrix(sys_, x));
  if (changed.empty()) {
    obs::add(obs::Work::kSpaFastPathEvals);
    return 0.0;
  }

  // H(x) = [Q0 Q_u] [R0 + P D A_C^T; R_u,C D A_C^T] for the changed set C,
  // so tan(Theta) = sigma(K_bot K_top^{-1}) and, by Woodbury,
  // D A_C^T K_top^{-1} = (I + D Psi_CC)^{-1} D Z_C^T: every angle comes
  // from the k x k matrix G = (I + D Psi_CC)^{-1} D and the stored blocks.
  const std::size_t k = changed.size();
  linalg::Vector delta(k);
  linalg::Matrix lhs(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t l = changed[i];
    delta[i] = sys_.base_mva() / x[l] - d_ref_[l];
    for (std::size_t j = 0; j < k; ++j)
      lhs(i, j) = delta[i] * psi_(dfacts_slot_[l], dfacts_slot_[changed[j]]);
    lhs(i, i) += 1.0;
  }
  // A singular K_top means some direction of Col(H(x)) is orthogonal to
  // Col(H0); the explicit route resolves that edge.
  const linalg::LuDecomposition lu(lhs);
  if (lu.singular()) return gamma_full(grid::measurement_matrix(sys_, x));
  obs::add(obs::Work::kSpaFastPathEvals);
  const linalg::Matrix g = lu.solve(linalg::Matrix::diagonal(delta));

  // T = R_u[:, C] G Y[C, :]^T, whose singular values are tan(Theta).
  linalg::Matrix ru_c(ru_.rows(), k);
  linalg::Matrix yz_c(k, yz_.cols());
  for (std::size_t t = 0; t < k; ++t) {
    const std::size_t slot = dfacts_slot_[changed[t]];
    for (std::size_t i = 0; i < ru_.rows(); ++i) ru_c(i, t) = ru_(i, slot);
    for (std::size_t c = 0; c < yz_.cols(); ++c) yz_c(t, c) = yz_(slot, c);
  }
  const linalg::Matrix tmat = ru_c * g * yz_c;
  return std::atan(linalg::largest_singular_value(tmat));
}

double SpaEvaluator::gamma_full(const linalg::Matrix& h_new) const {
  obs::add(obs::Work::kSpaFullEvals);
  if (h_new.rows() != grid::measurement_count(sys_))
    throw std::invalid_argument(
        "SpaEvaluator: candidate matrix row dimension");
  const linalg::Matrix qb = linalg::orthonormal_basis_qr(h_new);
  // Q0^T qb is the leading block of Q^T qb under the attacker's implicit Q.
  const linalg::Matrix core =
      qr0_.apply_qt(qb).block(0, 0, qr0_.r().rows(), qb.cols());
  const double c = std::clamp(linalg::smallest_singular_value(core), 0.0, 1.0);
  return std::acos(c);
}

}  // namespace mtdgrid::mtd
