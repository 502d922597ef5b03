#include "attack/impact.hpp"

#include <gtest/gtest.h>

#include "io/case_registry.hpp"
#include "stats/rng.hpp"
#include "test_util.hpp"

namespace mtdgrid::attack {
namespace {

TEST(AttackImpactTest, ZeroAttackHasNoImpact) {
  const grid::PowerSystem sys = io::load_case("case14");
  const AttackImpact impact = evaluate_attack_impact(
      sys, sys.reactances(), linalg::Vector(sys.num_buses() - 1));
  ASSERT_TRUE(impact.redispatch_feasible);
  EXPECT_NEAR(impact.cost_increase, 0.0, 1e-9);
  EXPECT_EQ(impact.overloaded_lines, 0u);
}

TEST(AttackImpactTest, LoadRedistributionRaisesCostOrOverloads) {
  // An attack that makes the congested bus-3 load look smaller lets the
  // operator under-serve it; the fooled dispatch is wrong for the real
  // system. Either the cost deviates or lines overload (usually both).
  const grid::PowerSystem sys = io::load_case("case14");
  linalg::Vector c(sys.num_buses() - 1);
  c[1] = 0.02;  // bus 3 (reduced index 1): fake phase offset, ~tens of MW
  const AttackImpact impact =
      evaluate_attack_impact(sys, sys.reactances(), c);
  ASSERT_TRUE(impact.redispatch_feasible);
  EXPECT_TRUE(impact.overloaded_lines > 0 ||
              std::abs(impact.cost_increase) > 1e-6);
}

TEST(AttackImpactTest, ImpactGrowsWithAttackMagnitude) {
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(3);
  linalg::Vector direction = test::random_vector(sys.num_buses() - 1, rng);
  direction /= direction.norm();
  double prev_damage = -1.0;
  for (double scale : {0.002, 0.01, 0.03}) {
    const AttackImpact impact = evaluate_attack_impact(
        sys, sys.reactances(), direction * scale);
    if (!impact.redispatch_feasible) continue;
    const double damage =
        std::abs(impact.cost_increase) + impact.worst_overload_pct;
    EXPECT_GE(damage, prev_damage - 1e-6);
    prev_damage = damage;
  }
  EXPECT_GT(prev_damage, 0.0);
}

TEST(AttackImpactTest, DiscussionComparisonMtdPremiumVsAttackDamage) {
  // Section VII-D's argument: the MTD premium (a few percent, cf. Fig. 10)
  // is small against what a single sustained undetected attack can do.
  const grid::PowerSystem sys = io::load_case("case14");
  stats::Rng rng(4);
  double worst_damage_pct = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    linalg::Vector c = test::random_vector(sys.num_buses() - 1, rng, 0.01);
    const AttackImpact impact =
        evaluate_attack_impact(sys, sys.reactances(), c);
    if (!impact.redispatch_feasible) continue;
    worst_damage_pct = std::max(
        worst_damage_pct,
        100.0 * std::abs(impact.cost_increase) + impact.worst_overload_pct);
  }
  // The worst random attack does far more damage than the ~2-3% premium.
  EXPECT_GT(worst_damage_pct, 5.0);
}

TEST(AttackImpactTest, InfeasibleTargetStateIsReportedNotCrashed) {
  // Edge case: an absurd state offset implies falsified loads the fleet
  // cannot serve. The evaluator must report redispatch_feasible = false
  // with zeroed damage fields instead of throwing or returning garbage.
  const grid::PowerSystem sys = io::load_case("case14");
  linalg::Vector c(sys.num_buses() - 1);
  for (std::size_t i = 0; i < c.size(); ++i)
    c[i] = (i % 2 == 0) ? 50.0 : -50.0;  // wildly implausible phase shifts
  const AttackImpact impact =
      evaluate_attack_impact(sys, sys.reactances(), c);
  EXPECT_FALSE(impact.redispatch_feasible);
  EXPECT_GE(impact.true_opf_cost, 0.0);
  EXPECT_EQ(impact.attacked_cost, 0.0);
  EXPECT_EQ(impact.cost_increase, 0.0);
  EXPECT_EQ(impact.worst_overload_pct, 0.0);
  EXPECT_EQ(impact.overloaded_lines, 0u);
}

TEST(AttackImpactTest, WorksAcrossCases) {
  stats::Rng rng(5);
  for (const grid::PowerSystem& sys :
       {io::load_case("case4"), io::load_case("wscc9"),
        io::load_case("ieee30")}) {
    const linalg::Vector c =
        test::random_vector(sys.num_buses() - 1, rng, 0.005);
    const AttackImpact impact =
        evaluate_attack_impact(sys, sys.reactances(), c);
    EXPECT_GE(impact.true_opf_cost, 0.0) << sys.name();
  }
}

}  // namespace
}  // namespace mtdgrid::attack
