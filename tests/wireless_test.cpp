// Tests for the wireless substrate: link budget and OFDMA pool.
#include <gtest/gtest.h>

#include <cmath>

#include "util/contracts.hpp"
#include "wireless/link.hpp"
#include "wireless/ofdma.hpp"

namespace w = vtm::wireless;

// ---- link budget -------------------------------------------------------------

TEST(link_budget, paper_parameters_give_expected_snr) {
  const w::link_budget link(w::link_params{});  // defaults = paper values
  // ρ=40dBm=10W, h0=−20dB=0.01, d=500m, ε=2, N0=−150dBm=1e−18W
  EXPECT_NEAR(link.tx_power_watt(), 10.0, 1e-9);
  EXPECT_NEAR(link.channel_gain(), 0.01 / (500.0 * 500.0), 1e-15);
  EXPECT_NEAR(link.noise_power_watt(), 1e-18, 1e-30);
  EXPECT_NEAR(link.snr(), 4.0e11, 1e6);
  EXPECT_NEAR(link.spectral_efficiency(), 38.541, 1e-3);
}

TEST(link_budget, rate_is_linear_in_bandwidth) {
  const w::link_budget link(w::link_params{});
  const double r1 = link.rate_mbps(1.0);
  EXPECT_NEAR(link.rate_mbps(10.0), 10.0 * r1, 1e-9);
  EXPECT_DOUBLE_EQ(link.rate_mbps(0.0), 0.0);
}

TEST(link_budget, rejects_invalid_geometry) {
  w::link_params bad;
  bad.distance_m = vtm::util::meters{0.0};
  EXPECT_THROW((void)w::link_budget{bad}, vtm::util::contract_error);
  bad.distance_m = vtm::util::meters{1.0};
  bad.path_loss_exponent = -1.0;
  EXPECT_THROW((void)w::link_budget{bad}, vtm::util::contract_error);
}

TEST(link_budget, transfer_seconds_inverse_in_bandwidth) {
  const w::link_budget link(w::link_params{});
  const double t1 = link.transfer_seconds(8.0e8, 1.0e6);
  const double t2 = link.transfer_seconds(8.0e8, 2.0e6);
  EXPECT_NEAR(t1, 2.0 * t2, 1e-9);
  EXPECT_THROW((void)link.transfer_seconds(1.0, 0.0), vtm::util::contract_error);
}

class link_distance_sweep : public ::testing::TestWithParam<double> {};

TEST_P(link_distance_sweep, efficiency_decreases_with_distance) {
  w::link_params near = {};
  w::link_params far = {};
  near.distance_m = vtm::util::meters{GetParam()};
  far.distance_m = vtm::util::meters{GetParam() * 2.0};
  EXPECT_GT(w::link_budget(near).spectral_efficiency(),
            w::link_budget(far).spectral_efficiency());
}

TEST_P(link_distance_sweep, efficiency_increases_with_power) {
  w::link_params weak = {};
  w::link_params strong = {};
  weak.distance_m = vtm::util::meters{GetParam()};
  strong.distance_m = vtm::util::meters{GetParam()};
  weak.tx_power_dbm = vtm::util::dbm{30.0};
  strong.tx_power_dbm = vtm::util::dbm{46.0};
  EXPECT_GT(w::link_budget(strong).spectral_efficiency(),
            w::link_budget(weak).spectral_efficiency());
}

INSTANTIATE_TEST_SUITE_P(distances, link_distance_sweep,
                         ::testing::Values(100.0, 250.0, 500.0, 1000.0,
                                           2000.0));

TEST(link_budget, path_loss_exponent_hurts) {
  w::link_params urban = {};
  urban.path_loss_exponent = 3.5;
  EXPECT_LT(w::link_budget(urban).spectral_efficiency(),
            w::link_budget(w::link_params{}).spectral_efficiency());
}

// ---- OFDMA pool -----------------------------------------------------------------

TEST(ofdma, allocates_within_capacity) {
  w::ofdma_pool pool(50.0);
  const auto grant = pool.allocate(20.0);
  ASSERT_TRUE(grant.has_value());
  EXPECT_DOUBLE_EQ(pool.allocated_mhz(), 20.0);
  EXPECT_DOUBLE_EQ(pool.available_mhz(), 30.0);
  EXPECT_EQ(pool.active_grants(), 1u);
}

TEST(ofdma, rejects_over_capacity) {
  w::ofdma_pool pool(50.0);
  ASSERT_TRUE(pool.allocate(40.0).has_value());
  EXPECT_FALSE(pool.allocate(11.0).has_value());
  EXPECT_TRUE(pool.allocate(10.0).has_value());  // exactly fits
  EXPECT_DOUBLE_EQ(pool.available_mhz(), 0.0);
}

TEST(ofdma, release_returns_capacity) {
  w::ofdma_pool pool(50.0);
  const auto a = pool.allocate(30.0);
  const auto b = pool.allocate(20.0);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(pool.release(*a));
  EXPECT_DOUBLE_EQ(pool.available_mhz(), 30.0);
  EXPECT_EQ(pool.active_grants(), 1u);
  EXPECT_TRUE(pool.release(*b));
  EXPECT_DOUBLE_EQ(pool.available_mhz(), 50.0);
}

TEST(ofdma, release_is_idempotent_safe) {
  w::ofdma_pool pool(10.0);
  const auto grant = pool.allocate(5.0);
  ASSERT_TRUE(grant);
  EXPECT_TRUE(pool.release(*grant));
  EXPECT_FALSE(pool.release(*grant));  // second release is a no-op
  EXPECT_FALSE(pool.release(w::grant_id{9999}));
}

TEST(ofdma, grant_lookup) {
  w::ofdma_pool pool(10.0);
  const auto grant = pool.allocate(3.0);
  ASSERT_TRUE(grant);
  EXPECT_DOUBLE_EQ(pool.grant_mhz(*grant).value(), 3.0);
  EXPECT_FALSE(pool.grant_mhz(w::grant_id{1234}).has_value());
}

// Released slots are reused; the released id must not reach the grant that
// now occupies its slot.
TEST(ofdma, stale_id_misses_the_grant_reusing_its_slot) {
  w::ofdma_pool pool(10.0);
  const auto old_grant = pool.allocate(3.0);
  ASSERT_TRUE(old_grant);
  ASSERT_TRUE(pool.release(*old_grant));
  const auto new_grant = pool.allocate(4.0);
  ASSERT_TRUE(new_grant);
  EXPECT_NE(*old_grant, *new_grant);
  EXPECT_FALSE(pool.release(*old_grant));
  EXPECT_FALSE(pool.grant_mhz(*old_grant).has_value());
  EXPECT_EQ(pool.active_grants(), 1u);
  EXPECT_DOUBLE_EQ(pool.grant_mhz(*new_grant).value(), 4.0);
  EXPECT_DOUBLE_EQ(pool.allocated_mhz(), 4.0);
  EXPECT_TRUE(pool.release(*new_grant));
  EXPECT_EQ(pool.active_grants(), 0u);
}

TEST(ofdma, rejects_invalid_construction_and_requests) {
  EXPECT_THROW((void)w::ofdma_pool(0.0), vtm::util::contract_error);
  w::ofdma_pool pool(10.0);
  EXPECT_THROW((void)pool.allocate(0.0), vtm::util::contract_error);
  EXPECT_THROW((void)pool.allocate(-1.0), vtm::util::contract_error);
}

TEST(ofdma, orthogonality_invariant_under_churn) {
  // Many allocate/release cycles never overshoot capacity.
  w::ofdma_pool pool(50.0);
  std::vector<w::grant_id> grants;
  for (int round = 0; round < 200; ++round) {
    const double request = 1.0 + (round % 7);
    const auto grant = pool.allocate(request);
    if (grant) grants.push_back(*grant);
    EXPECT_LE(pool.allocated_mhz(), 50.0 + 1e-9);
    EXPECT_GE(pool.available_mhz(), -1e-9);
    if (grants.size() > 5) {
      pool.release(grants.front());
      grants.erase(grants.begin());
    }
  }
}
