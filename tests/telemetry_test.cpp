// Telemetry layer (DESIGN.md §16): metrics-registry unit behaviour, the
// bitwise on-vs-off contract (attaching sinks must not perturb a single bit
// of the fleet results, sharded / oligopoly / streaming alike), the
// histograms' reconciliation with the result and their determinism across
// repeated multi-lane runs, and the Chrome trace export.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>

#include "core/fleet_scenario.hpp"
#include "sim/road_graph.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace core = vtm::core;
namespace util = vtm::util;

namespace {

core::fleet_config sharded_config() {
  core::fleet_config config;
  config.rsu_count = 8;
  config.vehicle_count = 80;
  config.duration_s = util::seconds{90.0};
  config.shard_count = 4;
  config.seed = 99;
  return config;
}

core::fleet_config oligopoly_config() {
  core::fleet_config config = sharded_config();
  config.mode = core::market_mode::oligopoly;
  for (std::size_t m = 0; m < 2; ++m)
    config.msps.push_back({util::meters{0.0}, config.unit_cost,
                           config.price_cap, config.bandwidth_per_pool_mhz});
  return config;
}

core::streaming_config stream_config() {
  core::streaming_config config;
  config.base = sharded_config();
  config.arrival_rate_per_s = util::per_second{30.0};
  config.horizon_s = util::seconds{60.0};
  config.flush_period_s = util::seconds{10.0};
  return config;
}

void expect_identical(const core::fleet_result& a,
                      const core::fleet_result& b) {
  EXPECT_EQ(a.handovers, b.handovers);
  EXPECT_EQ(a.deferred, b.deferred);
  EXPECT_EQ(a.priced_out, b.priced_out);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.clearings, b.clearings);
  EXPECT_EQ(a.max_cohort, b.max_cohort);
  EXPECT_EQ(a.vehicles.size(), b.vehicles.size());
  EXPECT_EQ(a.migrations.size(), b.migrations.size());
  EXPECT_EQ(a.cross_shard_transfers, b.cross_shard_transfers);
  EXPECT_EQ(a.cross_shard_retargets, b.cross_shard_retargets);
  EXPECT_EQ(a.late_handoffs, b.late_handoffs);
  EXPECT_EQ(a.msp_total_utility, b.msp_total_utility);
  EXPECT_EQ(a.vmu_total_utility, b.vmu_total_utility);
  EXPECT_EQ(a.mean_aotm, b.mean_aotm);
  EXPECT_EQ(a.mean_amplification, b.mean_amplification);
  EXPECT_EQ(a.mean_price, b.mean_price);
  EXPECT_EQ(a.msp_utilities, b.msp_utilities);
  EXPECT_EQ(a.msp_sold_mhz, b.msp_sold_mhz);
  EXPECT_EQ(a.unconverged_clearings, b.unconverged_clearings);
  EXPECT_EQ(a.solver_sweeps, b.solver_sweeps);
  EXPECT_EQ(a.objective_evals, b.objective_evals);
  EXPECT_EQ(a.warm_started_clearings, b.warm_started_clearings);
}

std::string metrics_json(const util::metrics_registry& registry) {
  std::ostringstream out;
  registry.write_json(out);
  return out.str();
}

// --- registry unit behaviour -------------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  util::metrics_registry registry;
  const auto h1 = registry.histogram("market.cohort", {1.0, 4.0, 16.0});
  const auto h2 = registry.histogram("market.cohort", {1.0, 4.0, 16.0});
  EXPECT_EQ(h1, h2);
  EXPECT_THROW((void)registry.histogram("market.cohort", {1.0, 2.0}),
               util::contract_error);
}

TEST(MetricsRegistry, ObserveFillsBucketsAndTotals) {
  util::metrics_registry registry;
  const auto sizes = registry.histogram("sizes", {1.0, 2.0, 4.0});
  EXPECT_EQ(registry.histogram_value(sizes).count, 0u);
  registry.observe(sizes, 3.0);   // bucket (2, 4]
  registry.observe(sizes, 1.0);   // bucket [<=1]
  registry.observe(sizes, 99.0);  // overflow

  const auto& snap = registry.histogram_value(sizes);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 103.0);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 99.0);
  ASSERT_EQ(snap.buckets.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 0u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
}

TEST(MetricsRegistry, JsonSerializationIsByteStable) {
  const auto fill = [](util::metrics_registry& registry) {
    const auto h = registry.histogram("grant", {1.0, 5.0});
    registry.observe(h, 2.5);
    registry.observe(h, 0.375);
  };
  util::metrics_registry a;
  util::metrics_registry b;
  fill(a);
  fill(b);
  EXPECT_EQ(metrics_json(a), metrics_json(b));
  EXPECT_NE(metrics_json(a).find("\"grant\": {\"bounds\": [1, 5], "
                                 "\"buckets\": [1, 1, 0], \"count\": 2"),
            std::string::npos);
}

// --- bitwise on-vs-off -------------------------------------------------------

TEST(TelemetryBitwise, ShardedRunIsIdenticalWithAndWithoutSinks) {
  const auto config = sharded_config();
  const auto bare = core::run_fleet_scenario(config);

  util::metrics_registry registry;
  util::trace_session session;
  auto instrumented = config;
  instrumented.telemetry.metrics = &registry;
  instrumented.telemetry.trace = &session;
  const auto traced = core::run_fleet_scenario(instrumented);

  expect_identical(bare, traced);
  if (util::telemetry_compiled()) {
    EXPECT_GT(session.event_count(), 0u);
  }
}

TEST(TelemetryBitwise, OligopolyRunIsIdenticalWithAndWithoutSinks) {
  const auto config = oligopoly_config();
  const auto bare = core::run_fleet_scenario(config);

  util::metrics_registry registry;
  util::trace_session session;
  auto instrumented = config;
  instrumented.telemetry.metrics = &registry;
  instrumented.telemetry.trace = &session;
  const auto traced = core::run_fleet_scenario(instrumented);

  expect_identical(bare, traced);
}

// Two inputs, each with trace and metrics sinks: the 8-RSU chain stream, and
// a 4-shard λ = 40/s stream on the 4x4 road grid (graph-tile mailbox
// traffic on real threads).
TEST(TelemetryBitwise, StreamingRunIsIdenticalWithAndWithoutSinks) {
  auto grid = stream_config();
  grid.base.graph = std::make_shared<const vtm::sim::road_graph>(
      vtm::sim::road_graph::grid(4, 4, 1000.0, 600.0));
  grid.arrival_rate_per_s = util::per_second{40.0};
  grid.horizon_s = util::seconds{40.0};
  grid.flush_period_s = util::seconds{5.0};

  for (const auto& config : {stream_config(), grid}) {
    SCOPED_TRACE(config.base.graph ? "grid stream" : "chain stream");
    const auto bare = core::run_streaming_fleet(config);

    util::metrics_registry registry;
    util::trace_session session;
    auto instrumented = config;
    instrumented.base.telemetry.metrics = &registry;
    instrumented.base.telemetry.trace = &session;
    const auto traced = core::run_streaming_fleet(instrumented);

    EXPECT_EQ(bare.arrivals, traced.arrivals);
    EXPECT_EQ(bare.retired, traced.retired);
    EXPECT_EQ(bare.peak_live, traced.peak_live);
    EXPECT_EQ(bare.slot_high_water, traced.slot_high_water);
    EXPECT_EQ(bare.flushes.size(), traced.flushes.size());
    expect_identical(bare.totals, traced.totals);
    EXPECT_GT(traced.totals.cross_shard_transfers, 0u);
  }
}

// --- the histograms against the result ---------------------------------------

// The coordinator fills both histograms from the flush's finish-time-ordered
// completion ledger, so each is one observation per completed migration and
// reconciles with the result: counts with `completed`, the cohort maximum
// with `max_cohort`, and the granted-bandwidth sum with the ordered sum over
// the records. Two runs serialize to identical bytes, however the OS
// interleaved the four shard lanes.
TEST(TelemetryDeterminism, HistogramsReconcileWithTheResult) {
  if (!util::telemetry_compiled())
    GTEST_SKIP() << "built with -DVTM_TELEMETRY=OFF";
  // A fresh registry holds the engine's two histograms in registration
  // order.
  const auto expect_reconciled = [](const util::metrics_registry& registry,
                                    const core::fleet_result& result) {
    const auto& cohort = registry.histogram_value(0);
    const auto& grant = registry.histogram_value(1);
    ASSERT_EQ(cohort.name, "market.cohort");
    ASSERT_EQ(grant.name, "market.grant_mhz");
    ASSERT_GT(result.completed, 0u);
    EXPECT_EQ(cohort.count, result.completed);
    EXPECT_EQ(grant.count, result.completed);
    EXPECT_EQ(cohort.max, static_cast<double>(result.max_cohort));
    ASSERT_EQ(result.migrations.size(), result.completed);
    double granted_mhz = 0.0;
    for (const auto& record : result.migrations)
      granted_mhz += record.bandwidth_mhz;
    EXPECT_EQ(grant.sum, granted_mhz);
  };

  const auto closed_run = [](util::metrics_registry& registry) {
    auto config = sharded_config();
    config.telemetry.metrics = &registry;
    return core::run_fleet_scenario(config);
  };
  util::metrics_registry closed;
  util::metrics_registry closed_again;
  const auto closed_result = closed_run(closed);
  (void)closed_run(closed_again);
  expect_reconciled(closed, closed_result);
  EXPECT_EQ(metrics_json(closed), metrics_json(closed_again));

  const auto stream_run = [](util::metrics_registry& registry) {
    auto config = stream_config();
    config.base.telemetry.metrics = &registry;
    return core::run_streaming_fleet(config);
  };
  util::metrics_registry stream;
  util::metrics_registry stream_again;
  const auto stream_result = stream_run(stream);
  (void)stream_run(stream_again);
  EXPECT_GT(stream_result.flushes.size(), 1u);
  expect_reconciled(stream, stream_result.totals);
  EXPECT_EQ(metrics_json(stream), metrics_json(stream_again));
}

// --- trace export ------------------------------------------------------------

TEST(TraceSession, ExportsChromeTraceEvents) {
  if (!util::telemetry_compiled())
    GTEST_SKIP() << "built with -DVTM_TELEMETRY=OFF";
  util::trace_session session;
  auto config = sharded_config();
  config.telemetry.trace = &session;
  (void)core::run_fleet_scenario(config);

  ASSERT_GT(session.event_count(), 0u);
  EXPECT_EQ(session.lane_count(), config.shard_count + 1);
  std::ostringstream out;
  session.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":", 0), 0u);
  EXPECT_NE(json.find("\"fleet.run\""), std::string::npos);
  EXPECT_NE(json.find("\"shard.window\""), std::string::npos);
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos);
  // A closed run is a single-flush stream: it emits one flush instant.
  const auto flush = json.find("\"stream.flush\"");
  EXPECT_NE(flush, std::string::npos);
  EXPECT_EQ(flush, json.rfind("\"stream.flush\""));
}

TEST(TraceSpan, NullLaneIsANoOp) {
  util::trace_span span(nullptr, "nothing");
  span.arg("k", 1.0);
  span.finish();  // and the destructor runs after — both must be no-ops
  SUCCEED();
}

}  // namespace
