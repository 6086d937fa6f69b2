// End-to-end acceptance for the RL-priced fleet market: train the
// partial-information pricer on harvested cohort snapshots, deploy it as the
// fleet engine's pricing backend, and require it to earn >= 90% of the
// oracle's MSP utility on an uncongested 100-vehicle fleet and >= 95% on the
// congested 5000-vehicle regime (cohorts > 60, price cap saturated).
// Deterministic given the seeds. This is the one gate on the
// learned-vs-oracle ratios; CI runs it in the tier2 job.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/env.hpp"
#include "core/fleet_scenario.hpp"
#include "core/mechanism.hpp"
#include "core/pricing_policy.hpp"

namespace core = vtm::core;

namespace {

core::fleet_config uncongested_fleet() {
  core::fleet_config config;
  config.vehicle_count = 100;
  config.duration_s = vtm::util::seconds{60.0};
  config.record_migrations = false;
  config.seed = 2023;
  return config;
}

core::fleet_config congested_fleet() {
  auto config = uncongested_fleet();
  config.vehicle_count = 5000;
  config.duration_s = vtm::util::seconds{30.0};
  return config;
}

double learned_over_oracle_ratio(
    const core::fleet_config& base,
    const std::shared_ptr<const core::learned_pricer>& pricer) {
  const auto oracle = core::run_fleet_scenario(base);
  auto learned_config = base;
  learned_config.pricer = pricer;
  const auto learned = core::run_fleet_scenario(learned_config);
  EXPECT_GT(oracle.msp_total_utility, 0.0);
  return learned.msp_total_utility / oracle.msp_total_utility;
}

}  // namespace

TEST(fleet_pricer, beats_acceptance_thresholds_on_both_regimes) {
  core::fleet_pricer_config config;
  config.harvest = {uncongested_fleet(), congested_fleet()};
  config.seed = 42;
  const auto trained = core::train_fleet_pricer(config);

  ASSERT_NE(trained.pricer, nullptr);
  ASSERT_GT(trained.cohorts, 100u);
  // Per-cohort deterministic sweep: near-oracle on average, no catastrophic
  // single cohort.
  EXPECT_GE(trained.eval_mean_ratio, 0.97);
  EXPECT_GE(trained.eval_min_ratio, 0.85);

  // Full closed-loop fleets: the learned backend changes grants, completion
  // times, and therefore future cohorts — the ratio is end-to-end, not
  // per-clearing.
  const double uncongested =
      learned_over_oracle_ratio(uncongested_fleet(), trained.pricer);
  EXPECT_GE(uncongested, 0.90);

  const double congested =
      learned_over_oracle_ratio(congested_fleet(), trained.pricer);
  EXPECT_GE(congested, 0.95);

  // The checkpoint deploys without retraining: rebuilding the pricer from
  // the serialized blob reproduces the uncongested fleet bit for bit.
  const auto reloaded = std::make_shared<const core::learned_pricer>(
      core::learned_pricer_config{}, trained.checkpoint);
  auto learned_config = uncongested_fleet();
  learned_config.pricer = trained.pricer;
  const auto direct = core::run_fleet_scenario(learned_config);
  learned_config.pricer = reloaded;
  const auto from_checkpoint = core::run_fleet_scenario(learned_config);
  EXPECT_EQ(direct.msp_total_utility, from_checkpoint.msp_total_utility);
  EXPECT_EQ(direct.completed, from_checkpoint.completed);
  EXPECT_EQ(direct.mean_price, from_checkpoint.mean_price);
}

TEST(fleet_pricer, training_is_deterministic_per_seed) {
  core::fleet_pricer_config config;
  config.harvest = {uncongested_fleet()};
  config.episodes = 40;  // determinism needs no convergence
  config.seed = 7;
  const auto a = core::train_fleet_pricer(config);
  const auto b = core::train_fleet_pricer(config);
  EXPECT_EQ(a.checkpoint, b.checkpoint);
  EXPECT_EQ(a.eval_mean_ratio, b.eval_mean_ratio);
  EXPECT_EQ(a.cohorts, b.cohorts);
}

TEST(fleet_pricer, harvested_cohorts_cover_the_congested_regime) {
  auto fleet = congested_fleet();
  fleet.record_cohorts = true;
  const auto result = core::run_fleet_scenario(fleet);
  ASSERT_FALSE(result.cohorts.empty());
  std::size_t biggest = 0;
  for (const auto& snapshot : result.cohorts)
    biggest = std::max(biggest, snapshot.profiles.size());
  // The regime the DRL pricer exists for: cohorts far beyond the two-VMU
  // paper market, priced over a shrinking pool remainder.
  EXPECT_GT(biggest, 60u);

  const auto prepared = core::prepare_cohorts(result.cohorts);
  ASSERT_FALSE(prepared.empty());
  for (const auto& cohort : prepared) {
    EXPECT_GT(cohort.oracle_utility, 0.0);
    EXPECT_EQ(cohort.features.size(), core::cohort_feature_dim);
  }
}
