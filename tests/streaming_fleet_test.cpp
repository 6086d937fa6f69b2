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

namespace {

/// One flush's integer counts: handovers, completed, deferred, clearings,
/// late handoffs, largest cohort, and vehicles retired.
struct flush_counts {
  std::size_t handovers = 0;
  std::size_t completed = 0;
  std::size_t deferred = 0;
  std::size_t clearings = 0;
  std::size_t late_handoffs = 0;
  std::size_t max_cohort = 0;
  std::size_t retired = 0;
};

/// Every flush of `r` against its pinned counts and its pinned sequence of
/// retired vehicle ids (slot order, as the flush emits them).
void expect_flushes_pinned(
    const core::streaming_result& r, const std::vector<flush_counts>& counts,
    const std::vector<std::vector<std::size_t>>& retired_ids) {
  ASSERT_EQ(r.flushes.size(), counts.size());
  ASSERT_EQ(r.flushes.size(), retired_ids.size());
  for (std::size_t k = 0; k < r.flushes.size(); ++k) {
    SCOPED_TRACE(k);
    const auto& flush = r.flushes[k];
    EXPECT_EQ(flush.handovers, counts[k].handovers);
    EXPECT_EQ(flush.completed, counts[k].completed);
    EXPECT_EQ(flush.deferred, counts[k].deferred);
    EXPECT_EQ(flush.clearings, counts[k].clearings);
    EXPECT_EQ(flush.late_handoffs, counts[k].late_handoffs);
    EXPECT_EQ(flush.max_cohort, counts[k].max_cohort);
    EXPECT_EQ(flush.vehicles.size(), counts[k].retired);
    std::vector<std::size_t> ids;
    for (const auto& summary : flush.vehicles) ids.push_back(summary.id);
    EXPECT_EQ(ids, retired_ids[k]);
  }
}

}  // namespace

// Every flush of the two pinned sharded streams, not only their totals: a
// completion reduced into the wrong flush, or a twin retired out of slot
// order, moves a flush's counts or its id sequence while the totals hold.
TEST(streaming_fleet, sharded_stream_flushes_are_pinned) {
  expect_flushes_pinned(
      core::run_streaming_fleet(congested_chain_stream()),
      {
      {28, 26, 0, 24, 1, 2, 6},
      {96, 87, 5, 70, 3, 3, 14},
      {138, 101, 25, 79, 3, 4, 17},
      {154, 108, 67, 76, 3, 5, 19},
      {126, 94, 84, 59, 6, 5, 22},
      {113, 95, 82, 57, 8, 7, 97},
      {1, 145, 0, 1, 0, 7, 145},
      },
      {
      {1, 2, 7, 21, 24, 30},
      {0, 10, 11, 15, 19, 26, 42, 50, 58, 60, 63, 65, 66, 71},
      {110, 17, 22, 34, 39, 41, 107, 45, 48, 104, 103, 70, 73, 81, 82, 87, 132},
      {13, 14, 170, 25, 108, 51, 31, 32, 43, 49, 74, 78, 85, 91, 93, 122, 143,
       148, 153},
      {5, 223, 35, 36, 38, 166, 222, 44, 165, 61, 62, 69, 72, 79, 80, 99, 125,
       129, 142, 147, 152, 173},
      {56, 55, 281, 6, 54, 16, 18, 20, 226, 27, 225, 280, 33, 37, 40, 276, 273,
       164, 57, 163, 102, 67, 270, 161, 100, 77, 219, 159, 218, 88, 90, 92, 96,
       97, 114, 115, 120, 127, 264, 130, 133, 136, 138, 140, 141, 263, 213,
       149, 261, 260, 180, 186, 188, 193, 195, 203, 210, 231, 235, 237, 238,
       247, 251, 252, 256, 259, 283, 286, 287, 290, 293, 294, 295, 296, 297,
       298, 299, 300, 301, 302, 303, 304, 305, 306, 307, 308, 309, 310, 311,
       312, 313, 314, 315, 316, 317, 318, 319},
      {113, 3, 4, 8, 9, 112, 111, 12, 230, 229, 172, 171, 109, 53, 228, 23, 52,
       227, 28, 29, 224, 169, 279, 278, 277, 168, 167, 275, 274, 46, 47, 221,
       106, 105, 59, 272, 271, 162, 64, 101, 68, 269, 160, 220, 75, 76, 268,
       267, 158, 83, 84, 86, 157, 89, 217, 216, 94, 95, 98, 266, 116, 117, 118,
       119, 121, 215, 123, 124, 265, 126, 128, 131, 156, 134, 135, 137, 139,
       214, 144, 145, 146, 262, 150, 151, 212, 154, 155, 174, 175, 176, 177,
       178, 179, 181, 182, 183, 184, 185, 187, 189, 190, 191, 192, 194, 196,
       197, 198, 199, 200, 201, 202, 204, 205, 206, 207, 208, 209, 211, 232,
       233, 234, 236, 239, 240, 241, 242, 243, 244, 245, 246, 248, 249, 250,
       253, 254, 255, 257, 258, 282, 284, 285, 288, 289, 291, 292},
      });
  expect_flushes_pinned(
      core::run_streaming_fleet(grid_stream()),
      {
      {5, 5, 0, 5, 2, 1, 39},
      {22, 20, 0, 22, 4, 1, 52},
      {32, 32, 0, 31, 8, 2, 61},
      {42, 43, 0, 39, 3, 2, 69},
      {18, 18, 0, 18, 2, 1, 41},
      {39, 38, 0, 39, 2, 1, 83},
      {1, 3, 0, 1, 0, 1, 3},
      },
      {
      {0, 1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 16, 17, 20, 21, 22, 23, 24,
       26, 27, 28, 29, 30, 31, 32, 34, 36, 39, 40, 41, 43, 44, 46, 47, 51, 53,
       56},
      {94, 93, 3, 91, 89, 88, 87, 10, 86, 85, 83, 15, 82, 81, 18, 19, 79, 78,
       77, 76, 25, 75, 74, 72, 71, 70, 33, 35, 67, 38, 64, 42, 63, 62, 61, 48,
       49, 50, 59, 58, 57, 96, 99, 100, 102, 103, 105, 107, 108, 114, 115, 117},
      {95, 169, 168, 92, 166, 165, 161, 160, 84, 159, 158, 156, 155, 154, 80,
       153, 151, 150, 149, 73, 146, 144, 69, 143, 142, 37, 140, 66, 65, 136,
       135, 133, 132, 52, 130, 54, 55, 128, 97, 98, 127, 126, 125, 124, 123,
       113, 120, 119, 118, 171, 172, 175, 177, 180, 181, 182, 184, 189, 190,
       191, 192},
      {254, 251, 90, 163, 248, 247, 246, 244, 157, 243, 241, 239, 152, 238,
       237, 148, 147, 235, 234, 233, 232, 68, 230, 229, 228, 227, 226, 139,
       225, 60, 134, 223, 220, 219, 218, 129, 217, 216, 215, 214, 212, 104,
       210, 122, 121, 109, 110, 208, 206, 170, 205, 204, 173, 174, 203, 176,
       202, 178, 201, 200, 199, 183, 198, 185, 188, 197, 196, 195, 193},
      {252, 249, 162, 245, 242, 145, 231, 141, 297, 296, 138, 137, 295, 292,
       221, 290, 289, 213, 283, 282, 280, 278, 277, 111, 209, 276, 207, 275,
       274, 271, 269, 268, 266, 179, 262, 261, 260, 187, 258, 257, 194},
      {253, 338, 167, 250, 337, 164, 336, 335, 334, 240, 236, 347, 346, 333,
       345, 344, 332, 343, 342, 331, 341, 339, 330, 329, 328, 327, 326, 45,
       224, 294, 293, 325, 222, 131, 324, 291, 323, 322, 288, 287, 286, 285,
       284, 321, 101, 320, 211, 319, 281, 318, 279, 317, 316, 315, 112, 314,
       313, 312, 116, 311, 310, 273, 272, 309, 270, 308, 307, 267, 306, 305,
       265, 264, 263, 304, 303, 302, 186, 301, 259, 300, 299, 256, 298},
      {340, 106, 255},
      });
}

// A stream whose late handoffs include cross-shard retargets, pinned flush by
// flush. `stream_config` with 4 MHz pools defers requests long enough for
// their vehicles to drift into another shard, so deferred requests re-home
// across shards. At 4 shards, 29 retargets posted inside windows land behind
// the window's end, and 14 posted in drain rounds land behind their
// receiver's clock, all in the final flush; 20 boundary handoffs are late
// too. A late handoff counted in the flush after the one whose window
// posted it moves these counts while the totals hold. Each row is one
// flush's {handovers, cross-shard transfers, cross-shard retargets, late
// handoffs}.
TEST(streaming_fleet, late_retarget_flushes_are_pinned) {
  using row = std::vector<std::size_t>;
  const std::vector<std::vector<row>> pinned = {
      {{28, 9, 0, 1}, {72, 8, 0, 3}, {57, 16, 1, 4}, {68, 12, 3, 4},
       {53, 11, 9, 9}, {58, 10, 0, 2}, {0, 0, 4, 4}},
      {{28, 22, 0, 1}, {70, 21, 1, 7}, {57, 35, 6, 9}, {70, 27, 8, 9},
       {53, 21, 16, 15}, {58, 23, 4, 8}, {0, 0, 22, 14}},
  };
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    auto config = stream_config(60.0);
    config.base.shard_count = i == 0 ? 2 : 4;
    config.base.bandwidth_per_pool_mhz = vtm::util::megahertz{4.0};
    SCOPED_TRACE(config.base.shard_count);
    const auto r = core::run_streaming_fleet(config);
    expect_stream_conserved(r);
    ASSERT_EQ(r.flushes.size(), pinned[i].size());
    for (std::size_t k = 0; k < r.flushes.size(); ++k) {
      const auto& flush = r.flushes[k];
      EXPECT_EQ((row{flush.handovers, flush.cross_shard_transfers,
                     flush.cross_shard_retargets, flush.late_handoffs}),
                pinned[i][k])
          << "flush " << k;
    }
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
