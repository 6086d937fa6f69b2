// Fleet engine edge cases on the short highway and on larger chains: pool
// exhaustion -> deferral -> successful retry, drain completeness (totals ==
// sum over records, every handover accounted for), bitwise seed determinism,
// and joint-epoch and per-handover cohort pricing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>

#include "core/fleet_scenario.hpp"
#include "core/fleet_shard.hpp"
#include "util/contracts.hpp"

namespace core = vtm::core;

namespace {

/// Every handover eventually resolves exactly one way.
void expect_conservation(std::size_t handovers, std::size_t completed,
                         std::size_t priced_out, std::size_t abandoned) {
  EXPECT_EQ(handovers, completed + priced_out + abandoned);
}

/// A short highway: 4 RSUs, 3 vehicles spawned on the stretch before the
/// first handover boundary.
core::fleet_config highway_config() {
  core::fleet_config config;
  config.rsu_count = 4;
  config.vehicle_count = 3;
  config.spawn_min_m = vtm::util::meters{500.0};
  config.spawn_max_m = vtm::util::meters{1400.0};
  return config;
}

core::fleet_config starved_config() {
  // Capacity-hungry fleet on tight pools: the first cohort drains a pool,
  // later handovers must defer until a completion releases capacity.
  auto config = highway_config();
  config.vehicle_count = 6;
  config.min_alpha = 5000.0;
  config.max_alpha = 5000.0;
  config.min_data_mb = vtm::util::megabytes{280.0};
  config.max_data_mb = vtm::util::megabytes{300.0};
  config.bandwidth_per_pool_mhz = vtm::util::megahertz{8.0};
  config.duration_s = vtm::util::seconds{90.0};
  return config;
}

}  // namespace

// ---- pool exhaustion -> deferral -> successful retry ------------------------

TEST(fleet_scenario, exhausted_pool_defers_then_retries_successfully) {
  for (const double epoch_s : {0.5, 0.0}) {
    auto config = starved_config();
    config.clearing_epoch_s = vtm::util::seconds{epoch_s};
    const auto result = core::run_fleet_scenario(config);
    EXPECT_GT(result.deferred, 0u) << "epoch " << epoch_s;
    EXPECT_GT(result.completed, 0u);
    EXPECT_EQ(result.abandoned, 0u);
    expect_conservation(result.handovers, result.completed, result.priced_out,
                        result.abandoned);
    // At least one deferred request later migrated: its clearing happened
    // strictly after its handover.
    const bool retried_late = std::any_of(
        result.migrations.begin(), result.migrations.end(),
        [](const core::migration_record& m) {
          return m.start_s > m.requested_s + 1e-9;
        });
    EXPECT_TRUE(retried_late);
  }
}

// A handover is never double-counted across deferral retries: handovers on a
// starved pool still equal the number of terminal outcomes.
TEST(fleet_scenario, deferral_retries_do_not_inflate_handovers) {
  const auto result = core::run_fleet_scenario(starved_config());
  ASSERT_GT(result.deferred, 0u);
  expect_conservation(result.handovers, result.completed, result.priced_out,
                      result.abandoned);
}

// ---- drain completeness -----------------------------------------------------

TEST(fleet_scenario, drains_until_empty_and_totals_match_records) {
  auto config = highway_config();
  config.vehicle_count = 5;
  config.duration_s = vtm::util::seconds{150.0};
  const auto result = core::run_fleet_scenario(config);

  ASSERT_FALSE(result.migrations.empty());
  EXPECT_EQ(result.completed, result.migrations.size());
  expect_conservation(result.handovers, result.completed, result.priced_out,
                      result.abandoned);
  double msp = 0.0;
  double vmu = 0.0;
  for (const auto& record : result.migrations) {
    msp += record.msp_utility;
    vmu += record.vmu_utility;
  }
  EXPECT_DOUBLE_EQ(result.msp_total_utility, msp);
  EXPECT_DOUBLE_EQ(result.vmu_total_utility, vmu);
}

// Migrations in flight at the horizon still land in both totals and records:
// a long-running config must keep totals == sum over records.
TEST(fleet_scenario, in_flight_migrations_at_horizon_are_not_lost) {
  auto config = highway_config();
  config.vehicle_count = 8;
  config.duration_s = vtm::util::seconds{20.0};        // short horizon, migrations overhang it
  config.bandwidth_per_pool_mhz = vtm::util::megahertz{2.0};  // tight pools: slow transfers...
  config.dirty_rate_mb_s = vtm::util::mb_per_s{70.0};   // ...dirtied near line rate: long pre-copy
  const auto result = core::run_fleet_scenario(config);
  EXPECT_EQ(result.completed, result.migrations.size());
  double msp = 0.0;
  for (const auto& record : result.migrations) msp += record.msp_utility;
  EXPECT_DOUBLE_EQ(result.msp_total_utility, msp);
  // Some migration finished after the horizon (the drain did real work).
  const bool overhang = std::any_of(
      result.migrations.begin(), result.migrations.end(),
      [&](const core::migration_record& m) {
        return m.start_s + m.aotm_simulated > config.duration_s.value();
      });
  EXPECT_TRUE(overhang);
}

// ---- bitwise seed determinism ----------------------------------------------

TEST(fleet_scenario, highway_scenario_is_bitwise_deterministic) {
  auto config = highway_config();
  config.vehicle_count = 4;
  const auto a = core::run_fleet_scenario(config);
  const auto b = core::run_fleet_scenario(config);

  EXPECT_EQ(a.handovers, b.handovers);
  EXPECT_EQ(a.deferred, b.deferred);
  EXPECT_EQ(a.priced_out, b.priced_out);
  EXPECT_EQ(a.msp_total_utility, b.msp_total_utility);
  EXPECT_EQ(a.vmu_total_utility, b.vmu_total_utility);
  EXPECT_EQ(a.mean_aotm, b.mean_aotm);
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    const auto& x = a.migrations[i];
    const auto& y = b.migrations[i];
    EXPECT_EQ(x.start_s, y.start_s);
    EXPECT_EQ(x.requested_s, y.requested_s);
    EXPECT_EQ(x.vehicle, y.vehicle);
    EXPECT_EQ(x.from_rsu, y.from_rsu);
    EXPECT_EQ(x.to_rsu, y.to_rsu);
    EXPECT_EQ(x.price, y.price);
    EXPECT_EQ(x.bandwidth_mhz, y.bandwidth_mhz);
    EXPECT_EQ(x.cohort, y.cohort);
    EXPECT_EQ(x.aotm_simulated, y.aotm_simulated);
    EXPECT_EQ(x.data_sent_mb, y.data_sent_mb);
    EXPECT_EQ(x.vmu_utility, y.vmu_utility);
    EXPECT_EQ(x.msp_utility, y.msp_utility);
  }

  auto other = config;
  other.seed = config.seed + 1;
  const auto c = core::run_fleet_scenario(other);
  EXPECT_NE(a.msp_total_utility, c.msp_total_utility);
}

// ---- joint-epoch cohort pricing --------------------------------------------

TEST(fleet_scenario, same_epoch_handovers_clear_as_one_market) {
  auto config = highway_config();
  config.vehicle_count = 8;
  config.min_speed_mps = vtm::util::mps{30.0};
  config.max_speed_mps = vtm::util::mps{30.0};  // same speed: crossings cluster by position
  config.clearing_epoch_s = vtm::util::seconds{10.0};
  config.duration_s = vtm::util::seconds{60.0};
  const auto result = core::run_fleet_scenario(config);

  ASSERT_FALSE(result.migrations.empty());
  std::size_t max_cohort = 0;
  for (const auto& record : result.migrations)
    max_cohort = std::max(max_cohort, record.cohort);
  EXPECT_GE(max_cohort, 2u);

  // Records cleared together (same market time) share the one cohort price.
  for (const auto& a : result.migrations) {
    for (const auto& b : result.migrations) {
      if (a.start_s == b.start_s && a.cohort >= 2) {
        EXPECT_EQ(a.price, b.price);
      }
    }
  }
}

// Epoch 0 clears at each handover instant. At one shared speed the vehicles'
// distinct spawn positions keep their crossings apart, so no two requests
// meet in one market.
TEST(fleet_scenario, continuous_clearing_always_prices_solo_markets) {
  auto config = highway_config();
  config.clearing_epoch_s = vtm::util::seconds{0.0};
  config.vehicle_count = 8;
  config.min_speed_mps = vtm::util::mps{30.0};
  config.max_speed_mps = vtm::util::mps{30.0};
  config.duration_s = vtm::util::seconds{60.0};
  const auto result = core::run_fleet_scenario(config);
  ASSERT_FALSE(result.migrations.empty());
  for (const auto& record : result.migrations) EXPECT_EQ(record.cohort, 1u);
}

// ---- fleet engine: per-RSU pools, scale -----------------------------------

TEST(fleet_scenario, fleet_run_spreads_load_over_rsu_pools) {
  core::fleet_config config;
  config.rsu_count = 8;
  config.vehicle_count = 60;
  config.duration_s = vtm::util::seconds{60.0};
  const auto result = core::run_fleet_scenario(config);

  EXPECT_GT(result.handovers, 0u);
  EXPECT_GT(result.completed, 0u);
  expect_conservation(result.handovers, result.completed, result.priced_out,
                      result.abandoned);
  EXPECT_EQ(result.completed, result.migrations.size());
  EXPECT_GE(result.max_cohort, 1u);
  EXPECT_GT(result.mean_price, 0.0);
  // The auto spawn span loads more than one destination RSU.
  std::size_t distinct = 0;
  std::array<bool, 8> seen{};
  for (const auto& record : result.migrations) {
    ASSERT_LT(record.to_rsu, seen.size());
    if (!seen[record.to_rsu]) {
      seen[record.to_rsu] = true;
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 2u);
}

TEST(fleet_scenario, record_toggle_preserves_aggregates) {
  core::fleet_config config;
  config.vehicle_count = 30;
  config.duration_s = vtm::util::seconds{45.0};
  auto bare = config;
  bare.record_migrations = false;
  const auto with_records = core::run_fleet_scenario(config);
  const auto without = core::run_fleet_scenario(bare);
  EXPECT_TRUE(without.migrations.empty());
  EXPECT_EQ(with_records.completed, without.completed);
  EXPECT_EQ(with_records.handovers, without.handovers);
  EXPECT_EQ(with_records.msp_total_utility, without.msp_total_utility);
  EXPECT_EQ(with_records.mean_aotm, without.mean_aotm);
}

TEST(fleet_scenario, rejects_invalid_configs) {
  core::fleet_config bad;
  bad.vehicle_count = 0;
  EXPECT_THROW((void)core::run_fleet_scenario(bad),
               vtm::util::contract_error);
  core::fleet_config negative_epoch;
  negative_epoch.clearing_epoch_s = vtm::util::seconds{-1.0};
  EXPECT_THROW((void)core::run_fleet_scenario(negative_epoch),
               vtm::util::contract_error);

  // Non-finite bounds, capacities, prices and horizons are rejected at the
  // entry point, one field at a time (the oligopoly roster included).
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [](const char* field, auto&& spoil) {
    core::fleet_config config;
    spoil(config);
    EXPECT_THROW(core::validate_fleet_config(config),
                 vtm::util::contract_error)
        << field;
  };
  rejects("min_alpha", [&](core::fleet_config& c) { c.min_alpha = nan; });
  rejects("max_alpha", [&](core::fleet_config& c) { c.max_alpha = inf; });
  rejects("min_data_mb", [&](core::fleet_config& c) {
    c.min_data_mb = vtm::util::megabytes{nan};
  });
  rejects("max_data_mb", [&](core::fleet_config& c) {
    c.max_data_mb = vtm::util::megabytes{inf};
  });
  rejects("min_speed_mps", [&](core::fleet_config& c) {
    c.min_speed_mps = vtm::util::mps{nan};
  });
  rejects("max_speed_mps", [&](core::fleet_config& c) {
    c.max_speed_mps = vtm::util::mps{inf};
  });
  rejects("bandwidth_per_pool_mhz", [&](core::fleet_config& c) {
    c.bandwidth_per_pool_mhz = vtm::util::megahertz{inf};
  });
  rejects("price_cap", [&](core::fleet_config& c) { c.price_cap = inf; });
  rejects("unit_cost", [&](core::fleet_config& c) { c.unit_cost = nan; });
  rejects("duration_s", [&](core::fleet_config& c) {
    c.duration_s = vtm::util::seconds{inf};
  });
  // An infinite epoch would run as epoch 0.
  rejects("clearing_epoch_s", [&](core::fleet_config& c) {
    c.clearing_epoch_s = vtm::util::seconds{inf};
  });
  // Migration, geometry and channel parameters out of range: most of these
  // would otherwise fail a precondition in the middle of the run.
  rejects("dirty_rate_mb_s < 0", [&](core::fleet_config& c) {
    c.dirty_rate_mb_s = vtm::util::mb_per_s{-1.0};
  });
  rejects("dirty_rate_mb_s NaN", [&](core::fleet_config& c) {
    c.dirty_rate_mb_s = vtm::util::mb_per_s{nan};
  });
  rejects("dirty_rate_mb_s inf", [&](core::fleet_config& c) {
    c.dirty_rate_mb_s = vtm::util::mb_per_s{inf};
  });
  rejects("stop_copy_threshold_mb 0", [&](core::fleet_config& c) {
    c.stop_copy_threshold_mb = vtm::util::megabytes{0.0};
  });
  rejects("stop_copy_threshold_mb NaN", [&](core::fleet_config& c) {
    c.stop_copy_threshold_mb = vtm::util::megabytes{nan};
  });
  rejects("page_mb 0", [&](core::fleet_config& c) {
    c.page_mb = vtm::util::megabytes{0.0};
  });
  rejects("page_mb NaN", [&](core::fleet_config& c) {
    c.page_mb = vtm::util::megabytes{nan};
  });
  rejects("page_mb inf", [&](core::fleet_config& c) {
    c.page_mb = vtm::util::megabytes{inf};
  });
  rejects("min_clearable_mhz", [&](core::fleet_config& c) {
    c.min_clearable_mhz = vtm::util::megahertz{inf};
  });
  rejects("rsu_spacing_m", [&](core::fleet_config& c) {
    c.rsu_spacing_m = vtm::util::meters{inf};
  });
  rejects("coverage_radius_m", [&](core::fleet_config& c) {
    c.coverage_radius_m = vtm::util::meters{inf};
  });
  rejects("link.tx_power_dbm", [&](core::fleet_config& c) {
    c.link.tx_power_dbm = vtm::util::dbm{inf};
  });
  rejects("link.unit_gain_db", [&](core::fleet_config& c) {
    c.link.unit_gain_db = vtm::util::db{nan};
  });
  rejects("link.path_loss_exponent NaN", [&](core::fleet_config& c) {
    c.link.path_loss_exponent = nan;
  });
  rejects("link.path_loss_exponent < 0", [&](core::fleet_config& c) {
    c.link.path_loss_exponent = -1.0;
  });
  rejects("link.noise_power_dbm", [&](core::fleet_config& c) {
    c.link.noise_power_dbm = vtm::util::dbm{nan};
  });
  // A finite channel whose linear form overflows (an infinite SNR) or
  // underflows (a noise power of 0 W).
  rejects("link.tx_power_dbm 4000", [&](core::fleet_config& c) {
    c.link.tx_power_dbm = vtm::util::dbm{4000.0};
  });
  rejects("link.noise_power_dbm -4000", [&](core::fleet_config& c) {
    c.link.noise_power_dbm = vtm::util::dbm{-4000.0};
  });
  // Fields that are each finite but whose SNR, over the links the run
  // prices, overflows to inf (AoTM 0) or rounds log2(1 + SNR) to 0: the
  // spectral efficiency is checked at the shortest and the longest link.
  rejects("tx_power_dbm 3000, noise_power_dbm -3000",
          [&](core::fleet_config& c) {
            c.link.tx_power_dbm = vtm::util::dbm{3000.0};
            c.link.noise_power_dbm = vtm::util::dbm{-3000.0};
          });
  rejects("unit_gain_db 3000, tx_power_dbm 3000", [&](core::fleet_config& c) {
    c.link.unit_gain_db = vtm::util::db{3000.0};
    c.link.tx_power_dbm = vtm::util::dbm{3000.0};
  });
  rejects("unit_gain_db -3020", [&](core::fleet_config& c) {
    c.link.unit_gain_db = vtm::util::db{-3020.0};
  });
  rejects("path_loss_exponent 2e300", [&](core::fleet_config& c) {
    c.link.path_loss_exponent = 2e300;
  });
  rejects("noise_power_dbm 2850", [&](core::fleet_config& c) {
    c.link.noise_power_dbm = vtm::util::dbm{2850.0};
  });
  // 1e-318 W is subnormal: positive, yet the SNR overflows.
  rejects("noise_power_dbm -3150", [&](core::fleet_config& c) {
    c.link.noise_power_dbm = vtm::util::dbm{-3150.0};
  });
  // The chain's construction contract: contiguous cells, centres strictly
  // forward, and a spawn window that reaches a handover.
  rejects("coverage_radius_m < spacing / 2", [&](core::fleet_config& c) {
    c.coverage_radius_m = vtm::util::meters{100.0};
  });
  rejects("rsu_positions_m descending", [&](core::fleet_config& c) {
    c.rsu_positions_m = {vtm::util::meters{2000.0}, vtm::util::meters{1000.0}};
  });
  rejects("spawn_max_m inf", [&](core::fleet_config& c) {
    c.spawn_max_m = vtm::util::meters{inf};
  });
  rejects("spawn_min_m past the last centre", [&](core::fleet_config& c) {
    c.spawn_min_m = vtm::util::meters{1e9};
  });
  // An explicit ceiling below the auto floor (500 m) leaves an empty window.
  rejects("spawn_max_m 0 under an auto floor", [&](core::fleet_config& c) {
    c.spawn_max_m = vtm::util::meters{0.0};
  });
  rejects("spawn_max_m 1 under an auto floor", [&](core::fleet_config& c) {
    c.spawn_max_m = vtm::util::meters{1.0};
  });
  // Every site sits at a positive distance from the road's entry.
  rejects("rsu_positions_m from 0 m", [&](core::fleet_config& c) {
    c.rsu_positions_m = {vtm::util::meters{0.0}, vtm::util::meters{1000.0},
                         vtm::util::meters{2000.0}};
  });
  rejects("rsu_positions_m from -500 m", [&](core::fleet_config& c) {
    c.rsu_positions_m = {vtm::util::meters{-500.0}, vtm::util::meters{500.0},
                         vtm::util::meters{1500.0}};
  });
  // NaN is not the "< 0 means auto" sentinel.
  rejects("spawn_min_m NaN", [&](core::fleet_config& c) {
    c.spawn_min_m = vtm::util::meters{nan};
  });
  const auto roster = [](core::fleet_config& c) {
    c.mode = core::market_mode::oligopoly;
    c.msps.resize(2);
  };
  rejects("msps.unit_cost", [&](core::fleet_config& c) {
    roster(c);
    c.msps[1].unit_cost = nan;
  });
  rejects("msps.price_cap", [&](core::fleet_config& c) {
    roster(c);
    c.msps[1].price_cap = inf;
  });
  rejects("msps.bandwidth_per_pool_mhz", [&](core::fleet_config& c) {
    roster(c);
    c.msps[1].bandwidth_per_pool_mhz = vtm::util::megahertz{inf};
  });
  // An infinite softmin sharpness would fail a clearing mid-run.
  rejects("share_sharpness", [&](core::fleet_config& c) {
    roster(c);
    c.share_sharpness = inf;
  });
  // The same two-seller roster with finite fields validates.
  core::fleet_config duopoly;
  roster(duopoly);
  EXPECT_NO_THROW(core::validate_fleet_config(duopoly));
}
