// Integration tests across subsystems: the full learning mechanism against
// the analytic oracle and the baselines, the trainer loop, and the
// end-to-end highway scenario (market + mobility + pre-copy migration).
#include <gtest/gtest.h>

#include <cmath>

#include "core/fleet_scenario.hpp"
#include "core/mechanism.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace core = vtm::core;

namespace {

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

core::market_params fig2_params() {
  core::market_params p;
  p.vmus = {{500.0, 200.0}, {500.0, 100.0}};
  return p;
}

/// Training budget small enough for CI but large enough to converge
/// (the full paper budget is exercised by bench/fig2_convergence).
core::mechanism_config quick_config() {
  core::mechanism_config config;
  config.trainer.episodes = 80;
  config.ppo.learning_rate = 3e-4;
  config.seed = 42;
  return config;
}

}  // namespace

TEST(mechanism, learns_near_oracle_utility) {
  const auto result = core::run_learning_mechanism(fig2_params(),
                                                   quick_config());
  ASSERT_EQ(result.history.size(), 80u);
  EXPECT_GT(result.optimality(), 0.95)
      << "learned " << result.learned_utility << " vs oracle "
      << result.oracle.leader_utility;
  EXPECT_NEAR(result.learned_price, result.oracle.price, 4.0);
}

TEST(mechanism, training_improves_over_time) {
  const auto result = core::run_learning_mechanism(fig2_params(),
                                                   quick_config());
  // Mean utility over the last 10 episodes beats the first 10 episodes.
  vtm::util::running_stats early, late;
  for (std::size_t i = 0; i < 10; ++i)
    early.push(result.history[i].mean_utility);
  for (std::size_t i = result.history.size() - 10; i < result.history.size();
       ++i)
    late.push(result.history[i].mean_utility);
  EXPECT_GT(late.mean(), early.mean());
  // Episode return trends upward (Fig. 2a behaviour).
  std::vector<double> x, returns;
  for (const auto& e : result.history) {
    x.push_back(static_cast<double>(e.episode));
    returns.push_back(e.episode_return);
  }
  EXPECT_GT(vtm::util::ols_slope(x, returns), 0.0);
}

TEST(mechanism, beats_baselines) {
  const auto learned = core::run_learning_mechanism(fig2_params(),
                                                    quick_config());
  const auto baselines =
      core::run_paper_baselines(fig2_params(), /*episodes=*/5,
                                /*rounds=*/100, /*seed=*/7);
  ASSERT_EQ(baselines.size(), 2u);
  for (const auto& baseline : baselines) {
    EXPECT_GT(learned.learned_utility, baseline.mean_utility)
        << "baseline " << baseline.name;
  }
  // Greedy dominates random on mean utility (both below the oracle).
  EXPECT_GT(baselines[1].mean_utility, baselines[0].mean_utility);
  EXPECT_LE(baselines[0].mean_utility, learned.oracle.leader_utility);
  EXPECT_LE(baselines[1].mean_utility,
            learned.oracle.leader_utility * (1.0 + 1e-9));
}

TEST(mechanism, paper_config_factory_matches_section_v) {
  const auto config = core::mechanism_config::paper();
  EXPECT_EQ(config.env.history_length, 4u);        // L
  EXPECT_EQ(config.env.rounds_per_episode, 100u);  // K
  EXPECT_EQ(config.trainer.episodes, 500u);        // E
  EXPECT_EQ(config.trainer.update_interval, 20u);  // |I|
  EXPECT_EQ(config.ppo.epochs, 10u);               // M
  EXPECT_DOUBLE_EQ(config.ppo.learning_rate, 1e-5);
  EXPECT_EQ(config.hidden, (std::vector<std::size_t>{64, 64}));
}

TEST(mechanism, shaped_reward_also_converges) {
  auto config = quick_config();
  config.env.mode = core::reward_mode::shaped;
  config.trainer.episodes = 60;
  const auto result = core::run_learning_mechanism(fig2_params(), config);
  EXPECT_GT(result.optimality(), 0.9);
}

TEST(mechanism, seeds_change_trajectories_not_outcome) {
  auto config = quick_config();
  config.trainer.episodes = 60;
  const auto a = core::run_learning_mechanism(fig2_params(), config);
  config.seed = 1234;
  const auto b = core::run_learning_mechanism(fig2_params(), config);
  EXPECT_NE(a.history.front().episode_return,
            b.history.front().episode_return);
  EXPECT_GT(a.optimality(), 0.9);
  EXPECT_GT(b.optimality(), 0.9);
}

TEST(mechanism, callback_sees_every_episode) {
  auto config = quick_config();
  config.trainer.episodes = 10;
  std::size_t calls = 0;
  (void)core::run_learning_mechanism(
      fig2_params(), config,
      [&](const vtm::rl::episode_stats& stats) {
        EXPECT_EQ(stats.episode, calls);
        ++calls;
      });
  EXPECT_EQ(calls, 10u);
}

// ---- highway scenario -------------------------------------------------------------

TEST(scenario, runs_and_records_migrations) {
  const auto config = highway_config();
  const auto result = core::run_fleet_scenario(config);
  EXPECT_GT(result.handovers, 0u);
  ASSERT_FALSE(result.migrations.empty());
  EXPECT_GT(result.msp_total_utility, 0.0);
  for (const auto& record : result.migrations) {
    EXPECT_GE(record.price, config.unit_cost);
    EXPECT_LE(record.price, config.price_cap);
    EXPECT_GT(record.bandwidth_mhz, 0.0);
    EXPECT_LE(record.bandwidth_mhz,
              config.bandwidth_per_pool_mhz.value() + 1e-9);
    EXPECT_GT(record.aotm_closed_form, 0.0);
    // Pre-copy with dirtying can only be slower than the cold copy.
    EXPECT_GE(record.aotm_simulated, record.aotm_closed_form - 1e-9);
    EXPECT_GE(record.downtime_s, 0.0);
    EXPECT_LE(record.downtime_s, record.aotm_simulated + 1e-9);
    EXPECT_NE(record.from_rsu, record.to_rsu);
  }
  EXPECT_GE(result.mean_amplification, 1.0);
}

TEST(scenario, zero_dirty_rate_matches_closed_form_exactly) {
  auto config = highway_config();
  config.dirty_rate_mb_s = vtm::util::mb_per_s{0.0};
  const auto result = core::run_fleet_scenario(config);
  ASSERT_FALSE(result.migrations.empty());
  for (const auto& record : result.migrations) {
    EXPECT_NEAR(record.aotm_simulated, record.aotm_closed_form, 1e-9);
  }
  EXPECT_NEAR(result.mean_amplification, 1.0, 1e-9);
}

TEST(scenario, dirty_pages_amplify_traffic) {
  auto clean = highway_config();
  clean.dirty_rate_mb_s = vtm::util::mb_per_s{0.0};
  auto dirty = highway_config();
  dirty.dirty_rate_mb_s = vtm::util::mb_per_s{100.0};
  const auto clean_result = core::run_fleet_scenario(clean);
  const auto dirty_result = core::run_fleet_scenario(dirty);
  ASSERT_FALSE(clean_result.migrations.empty());
  ASSERT_FALSE(dirty_result.migrations.empty());
  EXPECT_GT(dirty_result.mean_amplification,
            clean_result.mean_amplification);
}

TEST(scenario, deterministic_given_seed) {
  const auto config = highway_config();
  const auto a = core::run_fleet_scenario(config);
  const auto b = core::run_fleet_scenario(config);
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.migrations[i].price, b.migrations[i].price);
    EXPECT_DOUBLE_EQ(a.migrations[i].aotm_simulated,
                     b.migrations[i].aotm_simulated);
  }
}

TEST(scenario, more_vehicles_more_migrations) {
  auto few = highway_config();
  few.vehicle_count = 2;
  auto many = highway_config();
  many.vehicle_count = 8;
  const auto few_result = core::run_fleet_scenario(few);
  const auto many_result = core::run_fleet_scenario(many);
  EXPECT_GT(many_result.handovers, few_result.handovers);
  EXPECT_GT(many_result.msp_total_utility, few_result.msp_total_utility);
}

TEST(scenario, faster_vehicles_cross_more_boundaries) {
  auto slow = highway_config();
  slow.min_speed_mps = vtm::util::mps{10.0};
  slow.max_speed_mps = vtm::util::mps{12.0};
  auto fast = highway_config();
  fast.min_speed_mps = vtm::util::mps{30.0};
  fast.max_speed_mps = vtm::util::mps{34.0};
  const auto slow_result = core::run_fleet_scenario(slow);
  const auto fast_result = core::run_fleet_scenario(fast);
  EXPECT_GE(fast_result.handovers, slow_result.handovers);
}

TEST(scenario, rejects_invalid_config) {
  auto bad = highway_config();
  bad.vehicle_count = 0;
  EXPECT_THROW((void)core::run_fleet_scenario(bad), vtm::util::contract_error);
}
