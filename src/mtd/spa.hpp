#pragma once

#include <vector>

#include "grid/power_system.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector.hpp"

namespace mtdgrid::mtd {

/// The paper's MTD design metric gamma(H, H') between the column spaces of
/// the pre- and post-perturbation measurement matrices, in radians in
/// [0, pi/2].
///
/// Definitional note (documented in DESIGN.md): the paper's Definition V.1
/// names the *smallest* principal angle, but the smallest angle is
/// identically zero for every realizable D-FACTS perturbation — any state
/// direction that is constant across the endpoints of all D-FACTS branches
/// satisfies H c = H' c, so Col(H) and Col(H') always intersect when only
/// a subset of lines is perturbed. The quantity that actually varies over
/// [0, ~0.45] rad (as in the paper's Figs. 6-11) and that validates the
/// residual bound ||r'_a|| <= sin(gamma) ||a|| (paper eq. (7)) is the
/// *largest* principal angle — exactly what MATLAB's `subspace()` returns,
/// which is what the paper's simulations used. This function therefore
/// returns the largest principal angle:
///
///  * gamma == 0    : column spaces identical (e.g. H' = (1+eta) H); every
///                    attack a = Hc stays stealthy.
///  * gamma == pi/2 : some attack direction is driven fully out of
///                    Col(H'); larger gamma forces more of every attack
///                    into the residual and so raises detection.
double spa(const linalg::Matrix& h_old, const linalg::Matrix& h_new);

/// The literal smallest principal angle of Definition V.1, exposed for
/// completeness and for the tests that demonstrate the subtlety above.
double smallest_angle(const linalg::Matrix& h_old,
                      const linalg::Matrix& h_new);

/// Theorem-1 ideal-MTD check: true when the two column spaces are fully
/// orthogonal (all principal angles equal pi/2 within `tol` radians).
bool column_spaces_orthogonal(const linalg::Matrix& h_old,
                              const linalg::Matrix& h_new,
                              double tol = 1e-8);

/// Amortized gamma(H_attacker, H(x)) evaluation for the selection hot loop.
///
/// The plain `spa()` call orthonormalizes BOTH matrices and runs a Jacobi
/// SVD of the full principal-angle core on every invocation. This
/// evaluator moves all O(n^3) work to construction:
///
///  * one Householder QR of `h_attacker` gives the triangular factor R0
///    and keeps the orthogonal factor Q implicit, as its reflectors: no
///    m x n basis Q0 is formed or stored;
///  * when `h_attacker` is recognized as a measurement matrix of `sys`
///    (H = S diag(d) A_r for recovered reactances x_ref — true for every
///    matrix produced by `grid::measurement_matrix`), a candidate x that
///    changes a set C of k D-FACTS branches is the rank-k update
///    H(x) = H0 + U_C D A_C^T, and the principal angles satisfy
///    tan(Theta) = sigma(R_u[:,C] G R_z[:,C]^T) with
///    G = (I_k + D Psi_CC)^{-1} D (tan-Theta form plus Woodbury; DESIGN.md
///    "The SPA hot path"). R_u, R_z and Psi are m x m blocks over the m
///    D-FACTS branches, built once here, so a candidate costs one k x k LU
///    and an m x m largest singular value — independent of the bus count —
///    and matches `spa()` to ~1e-15 rad;
///  * a candidate that changes a non-D-FACTS branch, whose k x k system is
///    singular (an angle of exactly pi/2), or any candidate when the
///    attacker matrix is arbitrary, goes through `gamma_full`: rebuild
///    H(x), orthonormalize it and apply the attacker's reflectors (a
///    rank-deficient attacker matrix is factorized through its
///    rank-revealing basis).
///
/// Immutable after construction: `gamma`/`gamma_full` are const and safe
/// to call concurrently, so one evaluator serves every pool worker of a
/// selection sweep.
class SpaEvaluator {
 public:
  /// `h_attacker` must have the measurement dimensions of `sys`
  /// (2L + N rows, N - 1 columns); throws std::invalid_argument otherwise.
  SpaEvaluator(const grid::PowerSystem& sys, const linalg::Matrix& h_attacker);

  /// Sparse construction path (storage-policy backbone): `h_attacker` in
  /// CSR, e.g. from `grid::sparse_measurement_matrix`. Reference-reactance
  /// recognition and its verification run on the O(L + N) stored entries
  /// instead of the dense M x (N-1) block; only the attacker QR —
  /// inherently dense — is then materialized. The closed-form blocks are
  /// shared with the dense constructor unchanged.
  SpaEvaluator(const grid::PowerSystem& sys,
               const linalg::SparseMatrix& h_attacker);

  /// gamma(h_attacker, H(sys, x)) — the largest-principal-angle SPA metric,
  /// identical (to ~1e-12 rad) to `spa(h_attacker, measurement_matrix(sys,
  /// x))`. `x` is the full length-L reactance vector, all entries > 0.
  double gamma(const linalg::Vector& x) const;

  /// gamma against an explicit post-perturbation matrix (the fallback
  /// path: Q^T of its orthonormal basis through the attacker's QR).
  double gamma_full(const linalg::Matrix& h_new) const;

  /// True when the closed-form rank-k path is active (h_attacker was
  /// recognized as a full-rank measurement matrix of the system).
  bool incremental() const { return incremental_; }

  /// The reference reactances recovered from h_attacker (only meaningful
  /// when `incremental()`).
  const linalg::Vector& reference_reactances() const { return x_ref_; }

 private:
  /// Shared tail of both constructors: sets qr0_ from `h0`, plus the
  /// closed-form blocks when `recovered` and `h0` has full column rank.
  void build_basis(const linalg::Matrix& h0, bool recovered);

  /// The per-D-FACTS blocks of the closed form (dfacts_slot_, psi_, ru_,
  /// yz_) from qr0_.
  void build_closed_form();

  /// Recovers x_ref/d_ref from the forward-flow rows; `flow_entry(l, c)`
  /// reads H(l, c). Returns false when any branch yields no positive
  /// susceptance.
  template <typename FlowEntry>
  bool recover_reference(const FlowEntry& flow_entry);

  static constexpr std::size_t kNotDfacts = static_cast<std::size_t>(-1);

  grid::PowerSystem sys_;       // value copy: the evaluator owns its model
  // Householder QR (Q implicit) of h_attacker, or of an orthonormal basis
  // of its column space when h_attacker is rank deficient: either way an
  // orthonormal basis Q0 of Col(h_attacker) is the leading block of Q.
  // Set by build_basis.
  linalg::QrDecomposition qr0_{linalg::Matrix()};
  linalg::Vector x_ref_;        // recovered reference reactances
  linalg::Vector d_ref_;        // susceptances at x_ref
  // Closed-form blocks, one row/column per D-FACTS branch (incremental
  // mode only): slot of each branch (kNotDfacts elsewhere), Psi = Z^T P,
  // R_u of U_perp, and Y with Z^T = Y Q_z^T.
  std::vector<std::size_t> dfacts_slot_;
  linalg::Matrix psi_;
  linalg::Matrix ru_;
  linalg::Matrix yz_;
  bool incremental_ = false;
};

}  // namespace mtdgrid::mtd
