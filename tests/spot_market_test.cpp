// Joint spot-market clearing: cohort pricing equals the N-follower
// equilibrium, deferral/retry around an exhausted pool, and oversubscription
// safety.
#include <gtest/gtest.h>

#include <cmath>

#include "core/equilibrium.hpp"
#include "core/spot_market.hpp"
#include "util/contracts.hpp"

namespace core = vtm::core;

namespace {

core::clearing_request request_for(std::size_t vehicle, double alpha,
                                   double data_mb) {
  core::clearing_request request;
  request.vehicle = vehicle;
  request.profile = {alpha, data_mb};
  request.from_rsu = 0;
  request.to_rsu = 1;
  return request;
}

core::market_params combined_params(const core::spot_market_config& config,
                                    std::vector<core::vmu_profile> vmus,
                                    double cap) {
  core::market_params params;
  params.vmus = std::move(vmus);
  params.link = config.link;
  params.bandwidth_cap_mhz = vtm::util::megahertz{cap};
  params.unit_cost = config.unit_cost;
  params.price_cap = config.price_cap;
  return params;
}

}  // namespace

// Acceptance regression: a cohort cleared jointly is priced exactly like the
// combined N-follower market handed to solve_equilibrium.
TEST(spot_market, joint_clearing_matches_combined_equilibrium) {
  const core::spot_market_config config;
  core::spot_market market(config);
  market.submit(request_for(0, 500.0, 200.0));
  market.submit(request_for(1, 900.0, 100.0));
  market.submit(request_for(2, 1400.0, 300.0));

  const double available = 80.0;  // interior regime: no rationing clamp
  const auto outcome = market.clear(available);

  const core::migration_market reference(combined_params(
      config, {{500.0, 200.0}, {900.0, 100.0}, {1400.0, 300.0}}, available));
  const auto eq = core::solve_equilibrium(reference);

  ASSERT_EQ(outcome.grants.size(), 3u);
  EXPECT_EQ(outcome.markets_cleared, 1u);
  EXPECT_EQ(outcome.price, eq.price);  // bitwise: same solver, same inputs
  for (std::size_t n = 0; n < outcome.grants.size(); ++n) {
    const auto& grant = outcome.grants[n];
    EXPECT_EQ(grant.price, eq.price);
    EXPECT_EQ(grant.bandwidth_mhz, eq.demands[n]);
    EXPECT_EQ(grant.vmu_utility, eq.vmu_utilities[n]);
    EXPECT_EQ(grant.cohort, 3u);
  }
  // Per-grant MSP shares decompose the leader utility.
  double msp_total = 0.0;
  for (const auto& grant : outcome.grants) msp_total += grant.msp_utility;
  EXPECT_NEAR(msp_total, eq.leader_utility, 1e-9);
  EXPECT_EQ(market.pending(), 0u);
}

// Pool exhaustion -> deferral -> successful retry, at the book level.
TEST(spot_market, defers_below_minimum_and_clears_on_retry) {
  core::spot_market market(core::spot_market_config{});
  market.submit(request_for(0, 700.0, 200.0));
  market.submit(request_for(1, 900.0, 150.0));

  const auto starved = market.clear(0.25);  // below min_clearable_mhz
  EXPECT_TRUE(starved.grants.empty());
  EXPECT_TRUE(starved.priced_out.empty());
  EXPECT_EQ(starved.deferred, 2u);
  EXPECT_EQ(starved.markets_cleared, 0u);
  EXPECT_EQ(market.pending(), 2u);  // book intact for the retry

  const auto retried = market.clear(50.0);  // capacity released
  EXPECT_EQ(retried.deferred, 0u);
  EXPECT_EQ(retried.grants.size(), 2u);
  EXPECT_EQ(market.pending(), 0u);
}

// A VMU whose willingness to pay cannot cover the equilibrium price is
// priced out (b* = 0): the handover proceeds without a migration.
TEST(spot_market, prices_out_unwilling_vmus) {
  core::spot_market market(core::spot_market_config{});
  market.submit(request_for(0, 1.0, 300.0));     // alpha/p << D/R at any p >= C
  market.submit(request_for(1, 1200.0, 100.0));  // healthy follower

  const auto outcome = market.clear(50.0);
  ASSERT_EQ(outcome.priced_out.size(), 1u);
  EXPECT_EQ(outcome.priced_out[0].vehicle, 0u);
  ASSERT_EQ(outcome.grants.size(), 1u);
  EXPECT_EQ(outcome.grants[0].request.vehicle, 1u);
  EXPECT_EQ(market.pending(), 0u);
}

// Rationing never oversubscribes the remaining pool, even when the joint
// demand is far above it.
TEST(spot_market, grants_fit_within_available_capacity) {
  core::spot_market market(core::spot_market_config{});
  for (std::size_t v = 0; v < 6; ++v)
    market.submit(request_for(v, 1900.0, 120.0));

  const double available = 2.0;
  const auto outcome = market.clear(available);
  double total = 0.0;
  for (const auto& grant : outcome.grants) {
    EXPECT_GT(grant.bandwidth_mhz, 0.0);
    EXPECT_NE(grant.regime, core::equilibrium_regime::interior);
    total += grant.bandwidth_mhz;
  }
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, available + 1e-12);
}

TEST(spot_market, abandon_returns_and_empties_book) {
  core::spot_market market(core::spot_market_config{});
  market.submit(request_for(3, 500.0, 200.0));
  market.submit(request_for(7, 600.0, 100.0));
  const auto dropped = market.abandon_pending();
  ASSERT_EQ(dropped.size(), 2u);
  EXPECT_EQ(dropped[0].vehicle, 3u);
  EXPECT_EQ(dropped[1].vehicle, 7u);
  EXPECT_EQ(market.pending(), 0u);
}

TEST(spot_market, rejects_invalid_configuration) {
  core::spot_market_config bad;
  bad.unit_cost = 0.0;
  EXPECT_THROW((void)core::spot_market(bad), vtm::util::contract_error);
  core::spot_market_config inverted;
  inverted.price_cap = inverted.unit_cost / 2.0;
  EXPECT_THROW((void)core::spot_market(inverted), vtm::util::contract_error);
}
