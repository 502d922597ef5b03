#pragma once

// Shared body of the WLS estimator conformance tests: the production
// `estimation::StateEstimator` (CSR H, one sparse Cholesky) against the
// dense oracle (tests/oracles/dense_wls.hpp) at the nominal key and at
// seeded D-FACTS keys.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "attack/fdi_attack.hpp"
#include "estimation/bdd.hpp"
#include "estimation/detection.hpp"
#include "estimation/state_estimator.hpp"
#include "grid/measurement.hpp"
#include "grid/power_system.hpp"
#include "linalg/vector.hpp"
#include "mtd/effectiveness.hpp"
#include "opf/dc_opf.hpp"
#include "oracles/dense_wls.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::test {

/// |got - want| <= tol * scale, with the operands in the failure message.
inline void expect_close(double got, double want, double scale, double tol,
                         const char* what) {
  EXPECT_LE(std::abs(got - want), tol * scale)
      << what << ": got " << got << " want " << want;
}

/// BDD alarms over `trials` noise draws on z_ref + a, trial t drawing from
/// stream (root, t) exactly like `monte_carlo_detection_probability_seeded`,
/// run sequentially so any estimator type can be counted.
template <class Estimator>
int count_alarms(const Estimator& est, double tau, const linalg::Vector& z_ref,
                 const linalg::Vector& attack, int trials,
                 std::uint64_t root) {
  int alarms = 0;
  linalg::Vector z(z_ref.size());
  for (int t = 0; t < trials; ++t) {
    stats::Rng noise = stats::make_stream(root, static_cast<std::uint64_t>(t));
    for (std::size_t i = 0; i < z.size(); ++i)
      z[i] = z_ref[i] + attack[i] + noise.gaussian(0.0, est.sigmas()[i]);
    if (est.normalized_residual_norm(z) >= tau) ++alarms;
  }
  return alarms;
}

/// Compares the estimator with the oracle on `sys` for the nominal key
/// plus `box_keys` seeded uniform points of the D-FACTS box: `estimate`,
/// `residual`, `normalized_residual_norm`, `attack_residual_norm`, the
/// analytic P_D of stealthy attacks drawn against the nominal H, and the
/// BDD threshold all agree to 1e-10 relative; the Monte-Carlo alarm counts
/// of `trials` draws are equal.
inline void expect_estimator_conforms(const grid::PowerSystem& sys,
                                      int box_keys, std::uint64_t seed,
                                      int trials = 400) {
  constexpr double kTol = 1e-10;
  const mtd::EffectivenessOptions eff;  // the paper's sigma, alpha, 8% attacks
  const double sigma = eff.sigma_mw;
  const linalg::Matrix h_attacker = grid::measurement_matrix(sys);
  const linalg::Vector lo = sys.reactance_lower_limits();
  const linalg::Vector hi = sys.reactance_upper_limits();
  stats::Rng rng(seed);

  for (int k = 0; k <= box_keys; ++k) {
    SCOPED_TRACE(::testing::Message() << sys.name() << " key " << k);
    linalg::Vector x = sys.reactances();
    if (k > 0)
      for (std::size_t b : sys.dfacts_branches())
        x[b] = rng.uniform(lo[b], hi[b]);
    const linalg::Matrix h = grid::measurement_matrix(sys, x);
    const opf::DispatchResult dispatch = opf::solve_dc_opf(sys, x);
    ASSERT_TRUE(dispatch.feasible);
    const linalg::Vector z_ref =
        grid::noiseless_measurements(sys, x, dispatch.theta_reduced);

    const oracles::DenseStateEstimator oracle(h, sigma);
    const estimation::StateEstimator from_matrix(h, sigma);
    const estimation::StateEstimator from_csr(
        grid::sparse_measurement_matrix(sys, x), sigma);

    const double tau = std::sqrt(stats::chi_square_quantile(
        1.0 - eff.fp_rate, static_cast<double>(oracle.residual_dof())));
    const double tau2 = tau * tau;

    for (const estimation::StateEstimator* est : {&from_matrix, &from_csr}) {
      ASSERT_EQ(est->residual_dof(), oracle.residual_dof());
      const estimation::BadDataDetector bdd(*est, eff.fp_rate);
      expect_close(bdd.threshold(), tau, tau, kTol, "BDD tau");

      // Noisy measurements around the operating point.
      for (int trial = 0; trial < 3; ++trial) {
        linalg::Vector z = z_ref;
        for (std::size_t i = 0; i < z.size(); ++i)
          z[i] += rng.gaussian(0.0, sigma);
        const linalg::Vector want_x = oracle.estimate(z);
        const double x_scale = std::max(1.0, want_x.norm_inf());
        EXPECT_LE(linalg::max_abs_diff(est->estimate(z), want_x),
                  kTol * x_scale);
        EXPECT_LE(linalg::max_abs_diff(est->residual(z), oracle.residual(z)),
                  kTol * std::max(1.0, z.norm_inf()));
        const double want_r = oracle.normalized_residual_norm(z);
        expect_close(est->normalized_residual_norm(z), want_r, want_r, kTol,
                     "normalized residual norm");
      }

      // Stealthy attacks against the nominal H: residual norm and P_D.
      const std::vector<attack::FdiAttack> attacks =
          attack::sample_attacks(h_attacker, z_ref,
                                 eff.attack_relative_magnitude, 20, rng);
      for (const attack::FdiAttack& atk : attacks) {
        // ||W^{1/2} (I - K) a|| <= ||a|| / sigma bounds the norm's scale.
        const double ra_scale = std::max(1.0, atk.a.norm() / sigma);
        const double want_ra = oracle.attack_residual_norm(atk.a);
        expect_close(est->attack_residual_norm(atk.a), want_ra, ra_scale,
                     kTol, "attack residual norm");
        const double want_pd = stats::noncentral_chi_square_sf(
            tau2, static_cast<double>(oracle.residual_dof()),
            want_ra * want_ra);
        expect_close(
            estimation::analytic_detection_probability(*est, bdd, atk.a),
            want_pd, want_pd, kTol, "analytic P_D");
      }

      // Monte-Carlo alarm counts: the library's parallel trials, the same
      // trials counted sequentially, and the oracle's count all agree.
      for (std::size_t i = 0; i < 2; ++i) {
        const std::uint64_t root = rng.split();
        const int want =
            count_alarms(oracle, tau, z_ref, attacks[i].a, trials, root);
        EXPECT_EQ(count_alarms(*est, bdd.threshold(), z_ref, attacks[i].a,
                               trials, root),
                  want);
        EXPECT_EQ(estimation::monte_carlo_detection_probability_seeded(
                      *est, bdd, z_ref, attacks[i].a, trials, root),
                  static_cast<double>(want) / trials);
      }
    }
  }
}

}  // namespace mtdgrid::test
