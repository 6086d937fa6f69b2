// Golden regression harness for the paper reproduction (DESIGN.md §9).
//
// Pins the fig3a–d closed-form headline numbers, the fig2 RL headline, and
// PR 2's fleet-engine aggregates at fixed seeds, so pricing-backend work (or
// any other refactor) cannot silently shift the paper reproduction:
//   - fig3* and the fleet aggregates are deterministic closed-form/engine
//     outputs and are pinned (effectively) exactly — EXPECT_DOUBLE_EQ is a
//     4-ulp band, so any real drift fails loudly;
//   - the fig2 number is a short RL training run, pinned with a tolerance
//     band (training is deterministic per seed, but the pinned value is a
//     quality gate, not a bit pattern).
//
// Goldens were captured from the PR-2 engine (analytic oracle pricing) and
// re-verified bitwise-identical after the pricing-backend refactor. They are
// build-flag sensitive (-march=native FMA contraction), which is why this
// suite carries the tier2 ctest label and CI's sanitize job (different
// flags) runs tier1 only. If a *deliberate* economics change moves these
// numbers, re-capture them in the same commit and say so in the PR.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "core/equilibrium.hpp"
#include "core/fleet_scenario.hpp"
#include "core/market.hpp"
#include "core/mechanism.hpp"
#include "sim/road_graph.hpp"

namespace core = vtm::core;

namespace {

core::market_params two_vmu_market(double unit_cost) {
  core::market_params params;
  params.vmus = {{500.0, 200.0}, {500.0, 100.0}};
  params.unit_cost = unit_cost;
  return params;
}

core::market_params n_vmu_market(std::size_t n) {
  core::market_params params;
  params.vmus.assign(n, core::vmu_profile{500.0, 100.0});
  return params;
}

struct se_golden {
  double price;
  double leader_utility;
  double vmu_utility;
  double total_demand;
};

void expect_equilibrium(const core::market_params& params,
                        const se_golden& golden) {
  const auto eq = core::solve_equilibrium(core::migration_market(params));
  EXPECT_DOUBLE_EQ(eq.price, golden.price);
  EXPECT_DOUBLE_EQ(eq.leader_utility, golden.leader_utility);
  EXPECT_DOUBLE_EQ(eq.total_vmu_utility, golden.vmu_utility);
  EXPECT_DOUBLE_EQ(eq.total_demand, golden.total_demand);
}

}  // namespace

// Fig. 3(a)/(b): SE price and both sides' utilities vs unit cost C = 5..9,
// two VMUs with alpha = (500, 500), D = (200, 100) MB.
TEST(fig_golden, fig3ab_cost_sweep_headline) {
  const std::vector<se_golden> goldens{
      {25.344693410312608, 644.35946909130166, 879.30293655921150,
       31.672114988210122},
      {27.763720587761505, 614.48452912349035, 806.97156624879949,
       28.234351137049440},
      {29.988245658721695, 587.63754979284261, 747.21165410315393,
       25.562522626422957},
      {32.058783110099320, 563.18781159816024, 696.56276499089358,
       23.408823672455281},
      {34.003474400609974, 540.69721527768411, 652.80848342559966,
       21.624883270802297},
  };
  for (std::size_t i = 0; i < goldens.size(); ++i)
    expect_equilibrium(two_vmu_market(5.0 + static_cast<double>(i)),
                       goldens[i]);
}

// Fig. 3(c)/(d): SE headline vs VMU count N = 2..6, identical VMUs with
// alpha = 500, D = 100 MB. N >= 4 saturates the 50 MHz capacity.
TEST(fig_golden, fig3cd_vmu_sweep_headline) {
  const std::vector<se_golden> goldens{
      {31.040783271272570, 703.78943495141812, 986.94242635061096,
       27.026431103085059},
      {31.040783271272570, 1055.6841524271272, 1480.4136395259166,
       40.539646654627589},
      {33.124372860638601, 1406.2186430319300, 1865.5745458698073, 50.0},
      {39.699473708015766, 1734.9736854007883, 1964.5963525711600, 50.0},
      {45.754199125380282, 2037.7099562690134, 2025.9371669251952,
       49.999999999999986},
  };
  for (std::size_t i = 0; i < goldens.size(); ++i)
    expect_equilibrium(n_vmu_market(2 + i), goldens[i]);
}

// Fig. 2 headline: a short PPO run (E=80, lr=3e-4, seed 42) on the fig2
// market converges to the Stackelberg equilibrium. RL gets a tolerance band,
// not a bit pattern: the gate is "still converges this well, this fast".
TEST(fig_golden, fig2_learned_convergence_headline) {
  core::mechanism_config config;
  config.trainer.episodes = 80;
  config.ppo.learning_rate = 3e-4;
  config.seed = 42;
  const auto result = core::run_learning_mechanism(two_vmu_market(5.0), config);
  EXPECT_DOUBLE_EQ(result.oracle.leader_utility, 644.35946909130166);
  // Captured optimality at this seed/budget: 0.99967.
  EXPECT_NEAR(result.optimality(), 0.9997, 0.03);
  EXPECT_NEAR(result.learned_price, 26.18, 3.0);
}

// PR 2's fleet aggregates (joint clearing, per-RSU pools, 8 RSUs, 60 s,
// seed 2023) — pinned exactly. This is the "fig" of the fleet engine: if a
// pricing-backend change moves any of these, it changed oracle fleets.
TEST(fig_golden, fleet_joint_aggregates) {
  core::fleet_config config;
  config.rsu_count = 8;
  config.vehicle_count = 100;
  config.duration_s = vtm::util::seconds{60.0};
  config.record_migrations = false;
  const auto r100 = core::run_fleet_scenario(config);
  EXPECT_EQ(r100.handovers, 156u);
  EXPECT_EQ(r100.completed, 156u);
  EXPECT_EQ(r100.deferred, 0u);
  EXPECT_EQ(r100.priced_out, 0u);
  EXPECT_EQ(r100.abandoned, 0u);
  EXPECT_EQ(r100.clearings, 142u);
  EXPECT_EQ(r100.max_cohort, 3u);
  EXPECT_DOUBLE_EQ(r100.msp_total_utility, 132813.78736519371);
  EXPECT_DOUBLE_EQ(r100.vmu_total_utility, 194336.87203640776);
  EXPECT_DOUBLE_EQ(r100.mean_aotm, 0.21641351796966005);
  EXPECT_DOUBLE_EQ(r100.mean_amplification, 1.0530720013953168);
  EXPECT_DOUBLE_EQ(r100.mean_price, 34.602495973050651);

  config.vehicle_count = 1000;
  const auto r1000 = core::run_fleet_scenario(config);
  EXPECT_EQ(r1000.handovers, 1550u);
  EXPECT_EQ(r1000.completed, 1550u);
  EXPECT_EQ(r1000.deferred, 15u);
  EXPECT_EQ(r1000.max_cohort, 8u);
  EXPECT_DOUBLE_EQ(r1000.msp_total_utility, 890911.36889007816);
  EXPECT_DOUBLE_EQ(r1000.vmu_total_utility, 1552240.8084397218);
  EXPECT_DOUBLE_EQ(r1000.mean_price, 44.035863523444235);
}

// Continuous clearing (epoch 0: each handover clears at its own instant),
// also pinned. These numbers were captured from the retired one-VMU-at-a-time
// market, which this regime reproduces while no two requests share a
// clearing.
TEST(fig_golden, fleet_continuous_clearing_aggregates) {
  core::fleet_config config;
  config.rsu_count = 6;
  config.vehicle_count = 40;
  config.duration_s = vtm::util::seconds{60.0};
  config.clearing_epoch_s = vtm::util::seconds{0.0};
  config.record_migrations = false;
  const auto r = core::run_fleet_scenario(config);
  EXPECT_EQ(r.handovers, 60u);
  EXPECT_EQ(r.completed, 60u);
  EXPECT_EQ(r.deferred, 0u);
  EXPECT_EQ(r.priced_out, 0u);
  EXPECT_EQ(r.abandoned, 0u);
  EXPECT_DOUBLE_EQ(r.msp_total_utility, 53148.904790868066);
  EXPECT_DOUBLE_EQ(r.vmu_total_utility, 78339.051308750684);
  EXPECT_DOUBLE_EQ(r.mean_price, 33.461380743249386);
}

// PR 4's shard refactor must leave the serial engine bitwise untouched:
// three regimes (default, non-uniform chain, congested) captured from the
// pre-shard engine at the commit that introduced the shard_coordinator.
// shard_count = 1 (the default here) routes through the coordinator, so any
// drift means the refactor — not just a backend — changed oracle fleets.
TEST(fig_golden, fleet_shard1_matches_pre_shard_engine) {
  {
    core::fleet_config config;  // defaults: 8 RSUs, 100 vehicles, 120 s
    const auto r = core::run_fleet_scenario(config);
    EXPECT_EQ(r.handovers, 276u);
    EXPECT_EQ(r.completed, 276u);
    EXPECT_DOUBLE_EQ(r.msp_total_utility, 233535.43160029824);
    EXPECT_DOUBLE_EQ(r.vmu_total_utility, 340469.03208935249);
    EXPECT_DOUBLE_EQ(r.mean_aotm, 0.21747167989343172);
    EXPECT_DOUBLE_EQ(r.mean_amplification, 1.0532634933993577);
    EXPECT_DOUBLE_EQ(r.mean_price, 34.533974881762937);
  }
  {
    core::fleet_config config;
    config.rsu_positions_m = {vtm::util::meters{800.0}, vtm::util::meters{2000.0}, vtm::util::meters{2900.0}, vtm::util::meters{4400.0}, vtm::util::meters{5200.0}, vtm::util::meters{6800.0}};
    config.coverage_radius_m = vtm::util::meters{900.0};
    config.vehicle_count = 80;
    config.duration_s = vtm::util::seconds{90.0};
    config.seed = 99;
    const auto r = core::run_fleet_scenario(config);
    EXPECT_EQ(r.handovers, 146u);
    EXPECT_EQ(r.completed, 146u);
    EXPECT_DOUBLE_EQ(r.msp_total_utility, 125013.6466208004);
    EXPECT_DOUBLE_EQ(r.vmu_total_utility, 180827.28091577278);
    EXPECT_DOUBLE_EQ(r.mean_aotm, 0.22553041131717425);
    EXPECT_DOUBLE_EQ(r.mean_price, 34.492381899275408);
  }
  {
    core::fleet_config config;
    config.vehicle_count = 60;
    config.bandwidth_per_pool_mhz = vtm::util::megahertz{6.0};
    config.min_alpha = 4000.0;
    config.max_alpha = 5000.0;
    config.min_data_mb = vtm::util::megabytes{250.0};
    config.duration_s = vtm::util::seconds{90.0};
    config.seed = 7;
    const auto r = core::run_fleet_scenario(config);
    EXPECT_EQ(r.handovers, 134u);
    EXPECT_EQ(r.deferred, 50u);
    EXPECT_EQ(r.completed, 134u);
    EXPECT_DOUBLE_EQ(r.msp_total_utility, 28495.218509347436);
    EXPECT_DOUBLE_EQ(r.vmu_total_utility, 256604.17321267969);
    EXPECT_DOUBLE_EQ(r.mean_aotm, 4.7672394372724414);
    EXPECT_DOUBLE_EQ(r.mean_price, 50.000000000000007);
  }
}

// Aggregates of the runs whose counts tier 1 pins for the typed event core
// (streaming_fleet_test, competitive_market_test), captured at the map-based
// event queue: a congested 4-shard chain stream, a 4-shard road-grid stream,
// and a closed run with three sellers. Verified against both -march=native
// and generic builds (they agree to within 3 ulps).
TEST(fig_golden, sharded_streams_and_three_msp_aggregates) {
  {
    core::streaming_config config;
    config.base.rsu_count = 8;
    config.base.rsu_spacing_m = vtm::util::meters{200.0};
    config.base.coverage_radius_m = vtm::util::meters{120.0};
    config.base.bandwidth_per_pool_mhz = vtm::util::megahertz{20.0};
    config.base.seed = 17;
    config.base.shard_count = 4;
    config.arrival_rate_per_s = vtm::util::per_second{5.0};
    config.horizon_s = vtm::util::seconds{60.0};
    config.flush_period_s = vtm::util::seconds{10.0};
    const auto r = core::run_streaming_fleet(config).totals;
    EXPECT_EQ(r.completed, 656u);
    EXPECT_DOUBLE_EQ(r.msp_total_utility, 173164.16303805687);
    EXPECT_DOUBLE_EQ(r.vmu_total_utility, 409462.4999485744);
    EXPECT_DOUBLE_EQ(r.mean_aotm, 13.805585873254502);
    EXPECT_DOUBLE_EQ(r.mean_amplification, 1.8587060536382927);
    EXPECT_DOUBLE_EQ(r.mean_price, 45.62184011130023);
  }
  {
    core::streaming_config config;
    config.base.graph = std::make_shared<const vtm::sim::road_graph>(
        vtm::sim::road_graph::grid(3, 3, 600.0, 400.0));
    config.base.seed = 23;
    config.base.shard_count = 4;
    config.arrival_rate_per_s = vtm::util::per_second{4.0};
    config.horizon_s = vtm::util::seconds{90.0};
    config.flush_period_s = vtm::util::seconds{15.0};
    const auto r = core::run_streaming_fleet(config).totals;
    EXPECT_EQ(r.completed, 159u);
    EXPECT_DOUBLE_EQ(r.msp_total_utility, 154625.86965057766);
    EXPECT_DOUBLE_EQ(r.vmu_total_utility, 242851.48760000247);
    EXPECT_DOUBLE_EQ(r.mean_aotm, 0.19467554254943278);
    EXPECT_DOUBLE_EQ(r.mean_amplification, 1.0471895596445358);
    EXPECT_DOUBLE_EQ(r.mean_price, 36.907748630769262);
  }
  {
    core::fleet_config config;
    config.mode = core::market_mode::oligopoly;
    config.vehicle_count = 300;
    for (const double cost : {5.0, 5.5, 6.0})
      config.msps.push_back(
          {vtm::util::meters{0.0}, cost, 12.0, vtm::util::megahertz{10.0}});
    const auto r = core::run_fleet_scenario(config);
    EXPECT_EQ(r.completed, 844u);
    EXPECT_DOUBLE_EQ(r.msp_total_utility, 113229.06761018233);
    EXPECT_DOUBLE_EQ(r.vmu_total_utility, 1414555.425119366);
    EXPECT_DOUBLE_EQ(r.mean_aotm, 0.55168438584186175);
    EXPECT_DOUBLE_EQ(r.mean_amplification, 1.1108307887670956);
    EXPECT_DOUBLE_EQ(r.mean_price, 11.999999999999998);
    ASSERT_EQ(r.msp_utilities.size(), 3u);
    EXPECT_DOUBLE_EQ(r.msp_utilities[0], 40646.331962629607);
    EXPECT_DOUBLE_EQ(r.msp_utilities[1], 37743.022536727498);
    EXPECT_DOUBLE_EQ(r.msp_utilities[2], 34839.713110825382);
    for (const double sold : r.msp_sold_mhz)
      EXPECT_DOUBLE_EQ(sold, 5806.6188518042318);
  }
}
