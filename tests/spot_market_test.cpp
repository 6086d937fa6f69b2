// Joint spot-market clearing: cohort pricing equals the N-follower
// equilibrium (also across repeated in-place clearings of one market),
// deferral/retry around an exhausted pool, and oversubscription safety.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/equilibrium.hpp"
#include "core/spot_market.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

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

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

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

// One market cleared over and over prices in place through scratch that
// outlives each clearing. Every clearing must still be bitwise the combined
// market handed to solve_equilibrium, partitioned by the FIFO clamp —
// across cohorts of 1–64 that grow and shrink, books carried over from
// below-minimum clearings, and every regime.
TEST(spot_market, reused_scratch_matches_fresh_equilibrium) {
  const core::spot_market_config config;
  core::spot_market market(config);
  vtm::util::rng gen(5150);
  std::array<std::size_t, 4> regimes{};  // indexed by equilibrium_regime
  std::size_t starved = 0;
  std::size_t carried = 0;
  std::size_t grew = 0;
  std::size_t shrank = 0;
  std::size_t previous = 0;
  std::size_t next_vehicle = 0;
  std::size_t largest = 0;
  std::size_t smallest = 64;

  for (int trial = 0; trial < 1500; ++trial) {
    // Modes in rotation: starved (book carried to the next clearing),
    // interior, capacity-bound, price-capped, cost floor (all priced out).
    const int mode = trial % 5;
    const std::size_t carried_in = market.pending();
    const auto target =
        static_cast<std::size_t>(gen.uniform_int(1, 64));
    while (market.pending() < target) {
      double alpha = gen.uniform(200.0, 600.0);
      double data = gen.uniform(50.0, 300.0);
      if (mode == 3) alpha = gen.uniform(3000.0, 9000.0);
      if (mode == 4) {
        alpha = gen.uniform(1.0, 10.0);
        data = gen.uniform(200.0, 400.0);
      }
      market.submit(request_for(next_vehicle++, alpha, data));
    }
    const std::vector<core::clearing_request> book =
        market.pending_requests();
    const auto cohort = static_cast<double>(book.size());
    double available = 0.0;
    switch (mode) {
      case 0: available = gen.uniform(0.0, 0.49); break;
      case 1: available = cohort * gen.uniform(15.0, 30.0); break;
      case 2: available = cohort * gen.uniform(5.0, 12.0); break;
      default: available = cohort * gen.uniform(1.0, 20.0); break;
    }
    if (carried_in > 0) ++carried;
    if (book.size() > previous) ++grew;
    if (book.size() < previous) ++shrank;
    previous = book.size();
    largest = std::max(largest, book.size());
    smallest = std::min(smallest, book.size());

    const core::clearing_outcome& outcome = market.clear(available);
    if (available < config.min_clearable_mhz.value()) {
      ++starved;
      EXPECT_EQ(outcome.markets_cleared, 0u);
      EXPECT_EQ(outcome.deferred, book.size());
      EXPECT_TRUE(outcome.grants.empty());
      EXPECT_TRUE(outcome.priced_out.empty());
      ASSERT_EQ(market.pending(), book.size());
      continue;
    }

    // Reference: a fresh combined market, then the FIFO clamp.
    std::vector<core::vmu_profile> profiles;
    for (const auto& request : book) profiles.push_back(request.profile);
    const core::migration_market reference(
        combined_params(config, profiles, available));
    const core::equilibrium eq = core::solve_equilibrium(reference);
    ++regimes[static_cast<std::size_t>(eq.regime)];
    ASSERT_EQ(outcome.markets_cleared, 1u);
    EXPECT_EQ(bits(outcome.price), bits(eq.price));

    double remaining = available;
    std::size_t grant = 0;
    std::size_t priced_out = 0;
    std::vector<std::size_t> deferred;
    for (std::size_t n = 0; n < book.size(); ++n) {
      if (eq.demands[n] <= 0.0) {
        ASSERT_LT(priced_out, outcome.priced_out.size());
        EXPECT_EQ(outcome.priced_out[priced_out++].vehicle, book[n].vehicle);
        continue;
      }
      const double bandwidth = std::min(eq.demands[n], remaining);
      if (bandwidth <= 1e-9) {
        deferred.push_back(book[n].vehicle);
        continue;
      }
      remaining -= bandwidth;
      ASSERT_LT(grant, outcome.grants.size());
      const core::clearing_grant& g = outcome.grants[grant++];
      EXPECT_EQ(g.request.vehicle, book[n].vehicle);
      EXPECT_EQ(g.request.to_rsu, book[n].to_rsu);
      EXPECT_EQ(bits(g.price), bits(eq.price));
      EXPECT_EQ(bits(g.bandwidth_mhz), bits(bandwidth));
      EXPECT_EQ(bits(g.vmu_utility), bits(eq.vmu_utilities[n]));
      EXPECT_EQ(bits(g.msp_utility),
                bits((eq.price - config.unit_cost) * bandwidth));
      EXPECT_EQ(g.cohort, book.size());
      EXPECT_EQ(g.regime, eq.regime);
    }
    EXPECT_EQ(grant, outcome.grants.size());
    EXPECT_EQ(priced_out, outcome.priced_out.size());
    EXPECT_EQ(outcome.deferred, deferred.size());
    ASSERT_EQ(market.pending(), deferred.size());
    for (std::size_t k = 0; k < deferred.size(); ++k)
      EXPECT_EQ(market.pending_requests()[k].vehicle, deferred[k]);
  }

  EXPECT_GE(starved, 10u);
  EXPECT_GE(carried, 10u);
  EXPECT_GE(grew, 10u);
  EXPECT_GE(shrank, 10u);
  EXPECT_EQ(smallest, 1u);
  EXPECT_EQ(largest, 64u);
  for (const auto regime :
       {core::equilibrium_regime::interior,
        core::equilibrium_regime::capacity_bound,
        core::equilibrium_regime::price_capped,
        core::equilibrium_regime::cost_floor})
    EXPECT_GE(regimes[static_cast<std::size_t>(regime)], 10u)
        << core::to_string(regime);
}
