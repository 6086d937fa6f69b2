// Streaming (open-system) fleet runs: exactly-once twin accounting across
// window flushes, single-flush totals equal to periodic-flush totals,
// bounded live population and slot arena under growing horizons, flushes
// that are prefix-stable in the horizon, and the sharded / road-graph
// streaming paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/fleet_scenario.hpp"
#include "sim/road_graph.hpp"
#include "util/contracts.hpp"

namespace core = vtm::core;
namespace sim = vtm::sim;

namespace {

/// Short dense chain so vehicles traverse (and exit) well inside the
/// horizon, exercising slot recycling.
core::streaming_config stream_config(double horizon_s) {
  core::streaming_config config;
  config.base.rsu_count = 8;
  config.base.rsu_spacing_m = vtm::util::meters{200.0};
  config.base.coverage_radius_m = vtm::util::meters{120.0};
  config.base.seed = 17;
  config.arrival_rate_per_s = vtm::util::per_second{5.0};
  config.horizon_s = vtm::util::seconds{horizon_s};
  config.flush_period_s = vtm::util::seconds{10.0};
  return config;
}

/// Exactly-once accounting: every counter in `totals` is the sum of the
/// per-window flush deltas (`max_cohort` their maximum), the handover
/// ledger balances, and each arrival retires exactly once into exactly one
/// flush.
void expect_stream_conserved(const core::streaming_result& r) {
  core::fleet_result sum;
  std::size_t flushed_migrations = 0;
  std::size_t flushed_vehicles = 0;
  for (const auto& flush : r.flushes) {
    sum.handovers += flush.handovers;
    sum.deferred += flush.deferred;
    sum.priced_out += flush.priced_out;
    sum.abandoned += flush.abandoned;
    sum.completed += flush.completed;
    sum.clearings += flush.clearings;
    sum.cross_shard_transfers += flush.cross_shard_transfers;
    sum.cross_shard_retargets += flush.cross_shard_retargets;
    sum.late_handoffs += flush.late_handoffs;
    sum.max_cohort = std::max(sum.max_cohort, flush.max_cohort);
    flushed_migrations += flush.migrations.size();
    flushed_vehicles += flush.vehicles.size();
  }
  EXPECT_EQ(sum.handovers, r.totals.handovers);
  EXPECT_EQ(sum.deferred, r.totals.deferred);
  EXPECT_EQ(sum.priced_out, r.totals.priced_out);
  EXPECT_EQ(sum.abandoned, r.totals.abandoned);
  EXPECT_EQ(sum.completed, r.totals.completed);
  EXPECT_EQ(sum.clearings, r.totals.clearings);
  EXPECT_EQ(sum.cross_shard_transfers, r.totals.cross_shard_transfers);
  EXPECT_EQ(sum.cross_shard_retargets, r.totals.cross_shard_retargets);
  EXPECT_EQ(sum.late_handoffs, r.totals.late_handoffs);
  EXPECT_EQ(sum.max_cohort, r.totals.max_cohort);
  // The paper's conservation law, over the whole stream.
  EXPECT_EQ(r.totals.handovers,
            r.totals.completed + r.totals.priced_out + r.totals.abandoned);
  EXPECT_EQ(flushed_migrations, r.totals.migrations.size());
  EXPECT_EQ(r.totals.migrations.size(), r.totals.completed);
  // Every admitted vehicle retires exactly once.
  EXPECT_EQ(r.retired, r.arrivals);
  EXPECT_EQ(flushed_vehicles, r.arrivals);
  ASSERT_EQ(r.totals.vehicles.size(), r.arrivals);
  std::vector<std::size_t> seen(r.arrivals, 0);
  std::size_t twin_migrations = 0;
  for (const auto& flush : r.flushes) {
    for (const auto& v : flush.vehicles) {
      ASSERT_LT(v.id, r.arrivals);
      ++seen[v.id];
      twin_migrations += v.migrations;
    }
  }
  for (std::size_t id = 0; id < r.arrivals; ++id) EXPECT_EQ(seen[id], 1u);
  EXPECT_EQ(twin_migrations, r.totals.completed);
  // Records carry stable vehicle ids, not recycled slot indices.
  for (const auto& record : r.totals.migrations)
    EXPECT_LT(record.vehicle, r.arrivals);
  EXPECT_LE(r.slot_high_water, r.peak_live + 1);
  EXPECT_GE(r.peak_live, 1u);
}

void expect_stream_identical(const core::streaming_result& a,
                             const core::streaming_result& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.peak_live, b.peak_live);
  EXPECT_EQ(a.slot_high_water, b.slot_high_water);
  ASSERT_EQ(a.flushes.size(), b.flushes.size());
  for (std::size_t k = 0; k < a.flushes.size(); ++k) {
    EXPECT_EQ(a.flushes[k].handovers, b.flushes[k].handovers);
    EXPECT_EQ(a.flushes[k].completed, b.flushes[k].completed);
    EXPECT_EQ(a.flushes[k].priced_out, b.flushes[k].priced_out);
    EXPECT_EQ(a.flushes[k].msp_total_utility, b.flushes[k].msp_total_utility);
    EXPECT_EQ(a.flushes[k].vmu_total_utility, b.flushes[k].vmu_total_utility);
  }
  EXPECT_EQ(a.totals.handovers, b.totals.handovers);
  EXPECT_EQ(a.totals.completed, b.totals.completed);
  EXPECT_EQ(a.totals.msp_total_utility, b.totals.msp_total_utility);
  EXPECT_EQ(a.totals.vmu_total_utility, b.totals.vmu_total_utility);
  ASSERT_EQ(a.totals.migrations.size(), b.totals.migrations.size());
  for (std::size_t i = 0; i < a.totals.migrations.size(); ++i) {
    EXPECT_EQ(a.totals.migrations[i].vehicle, b.totals.migrations[i].vehicle);
    EXPECT_EQ(a.totals.migrations[i].finish_s,
              b.totals.migrations[i].finish_s);
    EXPECT_EQ(a.totals.migrations[i].price, b.totals.migrations[i].price);
  }
}

/// The pinned 4-shard chain stream: `stream_config` with 20 MHz pools, so
/// about 40% of the handovers defer and cohorts reach 7.
core::streaming_config congested_chain_stream() {
  auto config = stream_config(60.0);
  config.base.shard_count = 4;
  config.base.bandwidth_per_pool_mhz = vtm::util::megahertz{20.0};
  return config;
}

/// The pinned 4-shard road-grid stream.
core::streaming_config grid_stream() {
  core::streaming_config config;
  config.base.graph = std::make_shared<const sim::road_graph>(
      sim::road_graph::grid(3, 3, 600.0, 400.0));
  config.base.seed = 23;
  config.base.shard_count = 4;
  config.arrival_rate_per_s = vtm::util::per_second{4.0};
  config.horizon_s = vtm::util::seconds{90.0};
  config.flush_period_s = vtm::util::seconds{15.0};
  return config;
}

}  // namespace

// Counts of two sharded streams, pinned at the map-based event queue: the
// typed event core must reproduce them exactly. The aggregates' doubles are
// pinned in fig_golden_test (FP-flag sensitive, tier 2).
TEST(streaming_fleet, sharded_stream_counts_are_pinned) {
  {
    const auto r = core::run_streaming_fleet(congested_chain_stream());
    expect_stream_conserved(r);
    EXPECT_EQ(r.arrivals, 320u);
    EXPECT_EQ(r.peak_live, 242u);
    EXPECT_EQ(r.slot_high_water, 242u);
    EXPECT_EQ(r.flushes.size(), 7u);
    EXPECT_EQ(r.totals.handovers, 656u);
    EXPECT_EQ(r.totals.completed, 656u);
    EXPECT_EQ(r.totals.deferred, 263u);
    EXPECT_EQ(r.totals.priced_out, 0u);
    EXPECT_EQ(r.totals.abandoned, 0u);
    EXPECT_EQ(r.totals.clearings, 366u);
    EXPECT_EQ(r.totals.max_cohort, 7u);
    EXPECT_EQ(r.totals.cross_shard_transfers, 309u);
    EXPECT_EQ(r.totals.cross_shard_retargets, 0u);
    EXPECT_EQ(r.totals.late_handoffs, 24u);
  }
  {
    const auto r = core::run_streaming_fleet(grid_stream());
    expect_stream_conserved(r);
    EXPECT_EQ(r.arrivals, 348u);
    EXPECT_EQ(r.peak_live, 103u);
    EXPECT_EQ(r.slot_high_water, 103u);
    EXPECT_EQ(r.flushes.size(), 7u);
    EXPECT_EQ(r.totals.handovers, 159u);
    EXPECT_EQ(r.totals.completed, 159u);
    EXPECT_EQ(r.totals.deferred, 0u);
    EXPECT_EQ(r.totals.clearings, 155u);
    EXPECT_EQ(r.totals.max_cohort, 2u);
    EXPECT_EQ(r.totals.cross_shard_transfers, 127u);
    EXPECT_EQ(r.totals.late_handoffs, 21u);
  }
}

// `flushes[k]` covers window k only, so its max_cohort is the largest
// cohort among the migrations that completed in that window — not the
// shards' run-to-date maximum.
TEST(streaming_fleet, flush_max_cohort_covers_its_own_migrations) {
  for (const auto& config : {congested_chain_stream(), grid_stream()}) {
    const auto r = core::run_streaming_fleet(config);
    std::size_t run_max = 0;
    for (const auto& flush : r.flushes) {
      std::size_t own = 0;
      for (const auto& record : flush.migrations)
        own = std::max(own, record.cohort);
      EXPECT_EQ(flush.max_cohort, own);
      run_max = std::max(run_max, own);
    }
    EXPECT_EQ(r.totals.max_cohort, run_max);
  }
}

namespace {

/// Bitwise equality of two runs' totals: every counter, every aggregate,
/// the migration records in order, and the vehicle summaries.
void expect_totals_identical(const core::fleet_result& a,
                             const core::fleet_result& b) {
  EXPECT_EQ(a.handovers, b.handovers);
  EXPECT_EQ(a.deferred, b.deferred);
  EXPECT_EQ(a.priced_out, b.priced_out);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.clearings, b.clearings);
  EXPECT_EQ(a.max_cohort, b.max_cohort);
  EXPECT_EQ(a.cross_shard_transfers, b.cross_shard_transfers);
  EXPECT_EQ(a.cross_shard_retargets, b.cross_shard_retargets);
  EXPECT_EQ(a.late_handoffs, b.late_handoffs);
  EXPECT_EQ(a.unconverged_clearings, b.unconverged_clearings);
  EXPECT_EQ(a.solver_sweeps, b.solver_sweeps);
  EXPECT_EQ(a.objective_evals, b.objective_evals);
  EXPECT_EQ(a.warm_started_clearings, b.warm_started_clearings);
  EXPECT_EQ(a.msp_total_utility, b.msp_total_utility);
  EXPECT_EQ(a.vmu_total_utility, b.vmu_total_utility);
  EXPECT_EQ(a.mean_aotm, b.mean_aotm);
  EXPECT_EQ(a.mean_amplification, b.mean_amplification);
  EXPECT_EQ(a.mean_price, b.mean_price);
  EXPECT_EQ(a.msp_utilities, b.msp_utilities);
  EXPECT_EQ(a.msp_sold_mhz, b.msp_sold_mhz);
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    const auto& x = a.migrations[i];
    const auto& y = b.migrations[i];
    EXPECT_EQ(x.start_s, y.start_s) << i;
    EXPECT_EQ(x.requested_s, y.requested_s) << i;
    EXPECT_EQ(x.finish_s, y.finish_s) << i;
    EXPECT_EQ(x.vehicle, y.vehicle) << i;
    EXPECT_EQ(x.from_rsu, y.from_rsu) << i;
    EXPECT_EQ(x.to_rsu, y.to_rsu) << i;
    EXPECT_EQ(x.price, y.price) << i;
    EXPECT_EQ(x.bandwidth_mhz, y.bandwidth_mhz) << i;
    EXPECT_EQ(x.cohort, y.cohort) << i;
    EXPECT_EQ(x.aotm_closed_form, y.aotm_closed_form) << i;
    EXPECT_EQ(x.aotm_simulated, y.aotm_simulated) << i;
    EXPECT_EQ(x.data_sent_mb, y.data_sent_mb) << i;
    EXPECT_EQ(x.vmu_utility, y.vmu_utility) << i;
    EXPECT_EQ(x.msp_utility, y.msp_utility) << i;
  }
  ASSERT_EQ(a.vehicles.size(), b.vehicles.size());
  for (std::size_t v = 0; v < a.vehicles.size(); ++v) {
    EXPECT_EQ(a.vehicles[v].id, b.vehicles[v].id) << v;
    EXPECT_EQ(a.vehicles[v].host_rsu, b.vehicles[v].host_rsu) << v;
    EXPECT_EQ(a.vehicles[v].migrations, b.vehicles[v].migrations) << v;
    EXPECT_EQ(a.vehicles[v].position_m, b.vehicles[v].position_m) << v;
    EXPECT_EQ(a.vehicles[v].shard, b.vehicles[v].shard) << v;
  }
}

}  // namespace

// Flushing is pure reporting: with `flush_period_s` past the horizon the
// run emits only its final flush, and its totals are bitwise the
// periodic-flush run's. This is the property a closed run relies on — it
// is exactly such a single-flush stream.
TEST(streaming_fleet, single_flush_totals_equal_periodic_flush_totals) {
  auto serial_chain = congested_chain_stream();
  serial_chain.base.shard_count = 1;
  for (const auto& periodic :
       {serial_chain, congested_chain_stream(), grid_stream()}) {
    auto single = periodic;
    single.flush_period_s = periodic.horizon_s + vtm::util::seconds{1.0};
    const auto a = core::run_streaming_fleet(periodic);
    const auto b = core::run_streaming_fleet(single);
    EXPECT_GT(a.flushes.size(), 1u);
    ASSERT_EQ(b.flushes.size(), 1u);
    expect_stream_conserved(b);
    EXPECT_EQ(a.arrivals, b.arrivals);
    expect_totals_identical(a.totals, b.totals);
  }
}

TEST(streaming_fleet, flush_accounting_is_exactly_once) {
  const auto r = core::run_streaming_fleet(stream_config(60.0));
  EXPECT_GT(r.arrivals, 100u);  // λ = 5/s over 60 s
  EXPECT_GT(r.totals.handovers, 0u);
  EXPECT_GT(r.totals.completed, 0u);
  EXPECT_GE(r.flushes.size(), 6u);  // one per 10 s window + the final drain
  expect_stream_conserved(r);
}

TEST(streaming_fleet, deterministic_and_seed_sensitive) {
  const auto a = core::run_streaming_fleet(stream_config(40.0));
  const auto b = core::run_streaming_fleet(stream_config(40.0));
  expect_stream_identical(a, b);

  auto other = stream_config(40.0);
  other.base.seed = 18;
  const auto c = core::run_streaming_fleet(other);
  EXPECT_NE(a.totals.msp_total_utility, c.totals.msp_total_utility);
}

// Memory is bounded by the live population, not the arrival count: a 10x
// longer horizon admits ~10x the arrivals but reuses the same slot arena
// once the stream reaches steady state.
TEST(streaming_fleet, live_population_bounded_under_growing_horizon) {
  const auto short_run = core::run_streaming_fleet(stream_config(40.0));
  const auto long_run = core::run_streaming_fleet(stream_config(400.0));
  expect_stream_conserved(long_run);
  EXPECT_GT(long_run.arrivals, 5 * short_run.arrivals);
  // ISSUE bound: 10x the horizon must not grow the live population 10x.
  EXPECT_LT(long_run.peak_live, 4 * short_run.peak_live);
  EXPECT_LT(long_run.slot_high_water, long_run.arrivals / 4);
  // Slots really recycle: more twins retired than slots ever allocated.
  EXPECT_GT(long_run.retired, 2 * long_run.slot_high_water);
}

// A stream's windows are prefix-stable in the horizon: every flush emitted
// before H reports the same handovers, completions and seller utility
// whether the stream runs to H or to 2H. Only the arrival draws admitted by
// a barrier, and the events up to it, can reach a flush, so the longer run
// cannot leak into the shorter run's early windows.
TEST(streaming_fleet, flushes_before_the_horizon_are_prefix_stable) {
  constexpr double horizon_s = 60.0;
  const auto short_run = core::run_streaming_fleet(stream_config(horizon_s));
  const auto long_run =
      core::run_streaming_fleet(stream_config(2.0 * horizon_s));
  // Flush k closes at the first barrier at or past (k + 1) · period; the
  // windows are far shorter than the period, so flushes 0..H/period − 2
  // close strictly before H in both runs.
  const double period_s = stream_config(horizon_s).flush_period_s.value();
  const auto before = static_cast<std::size_t>(horizon_s / period_s) - 1;
  ASSERT_GE(before, 3u);
  ASSERT_GT(short_run.flushes.size(), before);
  ASSERT_GT(long_run.flushes.size(), before);
  for (std::size_t k = 0; k < before; ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(short_run.flushes[k].handovers, long_run.flushes[k].handovers);
    EXPECT_EQ(short_run.flushes[k].completed, long_run.flushes[k].completed);
    EXPECT_EQ(short_run.flushes[k].msp_total_utility,
              long_run.flushes[k].msp_total_utility);
    EXPECT_GT(short_run.flushes[k].completed, 0u);
  }
  EXPECT_GT(long_run.arrivals, short_run.arrivals);
}

TEST(streaming_fleet, sharded_stream_conserves_and_crosses_shards) {
  auto config = stream_config(60.0);
  config.base.shard_count = 4;
  const auto r = core::run_streaming_fleet(config);
  expect_stream_conserved(r);
  EXPECT_GT(r.totals.cross_shard_transfers, 0u);
}

TEST(streaming_fleet, road_graph_stream_conserves) {
  core::streaming_config config;
  config.base.graph = std::make_shared<const sim::road_graph>(
      sim::road_graph::grid(3, 3, 600.0, 400.0));
  config.base.seed = 23;
  config.arrival_rate_per_s = vtm::util::per_second{4.0};
  config.horizon_s = vtm::util::seconds{90.0};
  config.flush_period_s = vtm::util::seconds{15.0};
  const auto r = core::run_streaming_fleet(config);
  EXPECT_GT(r.arrivals, 100u);
  EXPECT_GT(r.totals.completed, 0u);
  expect_stream_conserved(r);
}

TEST(streaming_fleet, rejects_invalid_streaming_configs) {
  auto bad_rate = stream_config(60.0);
  bad_rate.arrival_rate_per_s = vtm::util::per_second{0.0};
  EXPECT_THROW((void)core::run_streaming_fleet(bad_rate),
               vtm::util::contract_error);

  auto bad_flush = stream_config(60.0);
  bad_flush.flush_period_s = vtm::util::seconds{-1.0};
  EXPECT_THROW((void)core::run_streaming_fleet(bad_flush),
               vtm::util::contract_error);

  auto bad_horizon = stream_config(60.0);
  bad_horizon.horizon_s = vtm::util::seconds{0.0};
  EXPECT_THROW((void)core::run_streaming_fleet(bad_horizon),
               vtm::util::contract_error);

  // A valid two-seller roster: streaming alone rejects the oligopoly.
  auto oligopoly = stream_config(60.0);
  oligopoly.base.mode = core::market_mode::oligopoly;
  oligopoly.base.msps.resize(2);
  EXPECT_THROW((void)core::run_streaming_fleet(oligopoly),
               vtm::util::contract_error);
}
