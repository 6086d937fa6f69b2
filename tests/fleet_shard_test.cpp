// Sharded fleet engine: shard_count = 1 bitwise-golden against the pre-shard
// serial engine, shard-vs-serial bitwise equivalence with real boundary
// traffic, cross-shard handoff conservation, multi-shard determinism,
// single-shot entry points in either run mode, and the clearing-grid /
// drain-phase / spawn-window / link-gap regression sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "core/aotm.hpp"
#include "core/fleet_scenario.hpp"
#include "core/fleet_shard.hpp"
#include "sim/mobility.hpp"
#include "sim/road_graph.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "wireless/link.hpp"

namespace core = vtm::core;
namespace sim = vtm::sim;

namespace {

core::fleet_config nonuniform_config() {
  core::fleet_config config;
  config.rsu_positions_m = {vtm::util::meters{800.0}, vtm::util::meters{2000.0}, vtm::util::meters{2900.0}, vtm::util::meters{4400.0}, vtm::util::meters{5200.0}, vtm::util::meters{6800.0}};
  config.coverage_radius_m = vtm::util::meters{900.0};
  config.vehicle_count = 80;
  config.duration_s = vtm::util::seconds{90.0};
  config.seed = 99;
  return config;
}

core::fleet_config congested_config() {
  core::fleet_config config;
  config.vehicle_count = 60;
  config.bandwidth_per_pool_mhz = vtm::util::megahertz{6.0};
  config.min_alpha = 4000.0;
  config.max_alpha = 5000.0;
  config.min_data_mb = vtm::util::megabytes{250.0};
  config.duration_s = vtm::util::seconds{90.0};
  config.seed = 7;
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
  EXPECT_EQ(a.msp_total_utility, b.msp_total_utility);
  EXPECT_EQ(a.vmu_total_utility, b.vmu_total_utility);
  EXPECT_EQ(a.mean_aotm, b.mean_aotm);
  EXPECT_EQ(a.mean_amplification, b.mean_amplification);
  EXPECT_EQ(a.mean_price, b.mean_price);
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    const auto& x = a.migrations[i];
    const auto& y = b.migrations[i];
    EXPECT_EQ(x.start_s, y.start_s);
    EXPECT_EQ(x.requested_s, y.requested_s);
    EXPECT_EQ(x.finish_s, y.finish_s);
    EXPECT_EQ(x.vehicle, y.vehicle);
    EXPECT_EQ(x.from_rsu, y.from_rsu);
    EXPECT_EQ(x.to_rsu, y.to_rsu);
    EXPECT_EQ(x.price, y.price);
    EXPECT_EQ(x.bandwidth_mhz, y.bandwidth_mhz);
    EXPECT_EQ(x.cohort, y.cohort);
    EXPECT_EQ(x.aotm_closed_form, y.aotm_closed_form);
    EXPECT_EQ(x.aotm_simulated, y.aotm_simulated);
    EXPECT_EQ(x.data_sent_mb, y.data_sent_mb);
    EXPECT_EQ(x.vmu_utility, y.vmu_utility);
    EXPECT_EQ(x.msp_utility, y.msp_utility);
  }
  ASSERT_EQ(a.vehicles.size(), b.vehicles.size());
  for (std::size_t v = 0; v < a.vehicles.size(); ++v) {
    EXPECT_EQ(a.vehicles[v].host_rsu, b.vehicles[v].host_rsu);
    EXPECT_EQ(a.vehicles[v].migrations, b.vehicles[v].migrations);
  }
}

void expect_conserved(const core::fleet_config& config,
                      const core::fleet_result& r) {
  EXPECT_EQ(r.handovers, r.completed + r.priced_out + r.abandoned);
  ASSERT_EQ(r.vehicles.size(), config.vehicle_count);
  std::size_t twin_migrations = 0;
  for (const auto& v : r.vehicles) {
    EXPECT_LT(v.shard, config.shard_count);
    twin_migrations += v.migrations;
  }
  // No vehicle lost or duplicated: every completion is on exactly one twin.
  EXPECT_EQ(twin_migrations, r.completed);
  if (config.record_migrations) {
    EXPECT_EQ(r.completed, r.migrations.size());
    double msp = 0.0;
    double vmu = 0.0;
    for (const auto& m : r.migrations) {
      msp += m.msp_utility;
      vmu += m.vmu_utility;
    }
    EXPECT_DOUBLE_EQ(r.msp_total_utility, msp);
    EXPECT_DOUBLE_EQ(r.vmu_total_utility, vmu);
  }
}

}  // namespace

// ---- shard_count = 1 is the pre-shard serial engine ------------------------

// Structural goldens of three regimes captured from the pre-shard engine at
// the commit that introduced the coordinator (counters are FP-flag-robust;
// the exact pinned *doubles* live in fig_golden_test, which CI runs in the
// NATIVE_ARCH=OFF tier2 job per the repo's golden policy).
TEST(fleet_shard, shard1_matches_pre_shard_engine_structure) {
  {
    core::fleet_config config;  // defaults: 8 RSUs, 100 vehicles, 120 s
    const auto r = core::run_fleet_scenario(config);
    EXPECT_EQ(r.handovers, 276u);
    EXPECT_EQ(r.completed, 276u);
    EXPECT_EQ(r.deferred, 0u);
    EXPECT_EQ(r.clearings, 250u);
    EXPECT_EQ(r.max_cohort, 3u);
    EXPECT_EQ(r.cross_shard_transfers, 0u);
    EXPECT_EQ(r.late_handoffs, 0u);
  }
  {
    const auto r = core::run_fleet_scenario(nonuniform_config());
    EXPECT_EQ(r.handovers, 146u);
    EXPECT_EQ(r.completed, 146u);
    EXPECT_EQ(r.clearings, 129u);
  }
  {
    const auto r = core::run_fleet_scenario(congested_config());
    EXPECT_EQ(r.handovers, 134u);
    EXPECT_EQ(r.deferred, 50u);
    EXPECT_EQ(r.completed, 134u);
  }
}

// ---- shard-vs-serial bitwise equivalence ----------------------------------

// With timely boundary handoffs (late_handoffs == 0, no cross-shard
// retargets) a sharded run reproduces the serial engine bitwise: per-pool
// books see the exact serial submission order and the flush reduces
// completions in global finish-time order. Both clearing regimes: epoch
// grid (0.5 s) and continuous (epoch 0, each handover clears at once).
TEST(fleet_shard, shard_counts_are_bitwise_equivalent_on_uniform_chain) {
  for (const double epoch_s : {0.5, 0.0}) {
    core::fleet_config config;  // 8 RSUs, 100 vehicles, 120 s
    config.clearing_epoch_s = vtm::util::seconds{epoch_s};
    const auto serial = core::run_fleet_scenario(config);
    for (const std::size_t shards : {2u, 4u}) {
      auto sharded_config = config;
      sharded_config.shard_count = shards;
      const auto sharded = core::run_fleet_scenario(sharded_config);
      // Preconditions of exact equivalence — and proof of real boundary
      // traffic (the equivalence is not vacuous).
      EXPECT_GT(sharded.cross_shard_transfers, 0u) << shards;
      EXPECT_EQ(sharded.late_handoffs, 0u) << shards;
      EXPECT_EQ(sharded.cross_shard_retargets, 0u) << shards;
      expect_identical(serial, sharded);
    }
  }
}

TEST(fleet_shard, shard_counts_are_bitwise_equivalent_on_nonuniform_chain) {
  const auto config = nonuniform_config();
  const auto serial = core::run_fleet_scenario(config);
  for (const std::size_t shards : {2u, 3u, 6u}) {
    auto sharded_config = config;
    sharded_config.shard_count = shards;
    const auto sharded = core::run_fleet_scenario(sharded_config);
    EXPECT_GT(sharded.cross_shard_transfers, 0u) << shards;
    EXPECT_EQ(sharded.late_handoffs, 0u) << shards;
    expect_identical(serial, sharded);
  }
}

// ---- cross-shard handoff conservation and determinism ---------------------

TEST(fleet_shard, handoffs_conserve_vehicles_under_congestion) {
  for (const std::size_t shards : {2u, 4u}) {
    auto config = congested_config();
    config.shard_count = shards;
    const auto r = core::run_fleet_scenario(config);
    EXPECT_GT(r.cross_shard_transfers, 0u);
    expect_conserved(config, r);
  }
}

TEST(fleet_shard, multi_shard_runs_are_deterministic) {
  auto config = congested_config();
  config.shard_count = 4;
  const auto a = core::run_fleet_scenario(config);
  const auto b = core::run_fleet_scenario(config);
  EXPECT_EQ(a.cross_shard_transfers, b.cross_shard_transfers);
  EXPECT_EQ(a.cross_shard_retargets, b.cross_shard_retargets);
  EXPECT_EQ(a.late_handoffs, b.late_handoffs);
  expect_identical(a, b);

  auto other = config;
  other.seed = config.seed + 1;
  const auto c = core::run_fleet_scenario(other);
  EXPECT_NE(a.msp_total_utility, c.msp_total_utility);
}

// ---- single-shot entry points in either mode ------------------------------

namespace {

void expect_same_counters(const core::fleet_result& a,
                          const core::fleet_result& b) {
  EXPECT_EQ(a.cross_shard_transfers, b.cross_shard_transfers);
  EXPECT_EQ(a.cross_shard_retargets, b.cross_shard_retargets);
  EXPECT_EQ(a.late_handoffs, b.late_handoffs);
  EXPECT_EQ(a.msp_utilities, b.msp_utilities);
  EXPECT_EQ(a.msp_sold_mhz, b.msp_sold_mhz);
  EXPECT_EQ(a.unconverged_clearings, b.unconverged_clearings);
  EXPECT_EQ(a.solver_sweeps, b.solver_sweeps);
  EXPECT_EQ(a.objective_evals, b.objective_evals);
  EXPECT_EQ(a.warm_started_clearings, b.warm_started_clearings);
}

}  // namespace

// `run()` and `run_stream()` drive one window protocol, so each works on a
// coordinator of either kind: `run()` on a stream returns its totals (it
// used to return an all-zero result), and `run_stream()` on a closed run is
// the single-flush stream. A coordinator runs once; a second call of either
// entry point fails its contract.
TEST(fleet_shard, single_shot_entry_points_work_in_either_mode) {
  core::streaming_config stream;
  stream.base.rsu_count = 8;
  stream.base.rsu_spacing_m = vtm::util::meters{200.0};
  stream.base.coverage_radius_m = vtm::util::meters{120.0};
  stream.arrival_rate_per_s = vtm::util::per_second{5.0};
  stream.horizon_s = vtm::util::seconds{60.0};
  stream.flush_period_s = vtm::util::seconds{10.0};
  const auto reference = core::run_streaming_fleet(stream);
  {
    core::shard_coordinator coordinator(stream);
    const auto totals = coordinator.run();
    EXPECT_EQ(totals.vehicles.size(), 306u);
    EXPECT_EQ(totals.handovers, 890u);
    expect_identical(reference.totals, totals);
    expect_same_counters(reference.totals, totals);
    EXPECT_THROW((void)coordinator.run(), vtm::util::contract_error);
    EXPECT_THROW((void)coordinator.run_stream(), vtm::util::contract_error);
  }

  auto congested = congested_config();
  congested.shard_count = 4;
  auto oligopoly = congested_config();
  oligopoly.mode = core::market_mode::oligopoly;
  oligopoly.shard_count = 2;
  for (std::size_t m = 0; m < 3; ++m)
    oligopoly.msps.push_back({vtm::util::meters{0.0}, 5.0 + 0.5 * m, 50.0,
                              oligopoly.bandwidth_per_pool_mhz});
  for (const auto& closed : {congested, oligopoly}) {
    core::shard_coordinator closed_run(closed);
    const auto result = closed_run.run();
    EXPECT_GT(result.cross_shard_transfers, 0u);
    EXPECT_THROW((void)closed_run.run(), vtm::util::contract_error);
    EXPECT_THROW((void)closed_run.run_stream(), vtm::util::contract_error);

    core::shard_coordinator closed_stream(closed);
    const auto streamed = closed_stream.run_stream();
    EXPECT_EQ(streamed.arrivals, closed.vehicle_count);
    EXPECT_EQ(streamed.retired, closed.vehicle_count);
    EXPECT_EQ(streamed.peak_live, closed.vehicle_count);
    EXPECT_EQ(streamed.slot_high_water, closed.vehicle_count);
    ASSERT_EQ(streamed.flushes.size(), 1u);
    for (const auto* same : {&streamed.flushes[0], &streamed.totals}) {
      expect_identical(result, *same);
      expect_same_counters(result, *same);
    }
    EXPECT_THROW((void)closed_stream.run(), vtm::util::contract_error);
  }
}

// ---- a quiescent run jumps to its horizon ----------------------------------

// Once no shard has an event left and nothing is still to arrive, the
// windows up to the horizon can hold no event, so a barrier jumps straight
// there. The default chain's 50 vehicles leave the road long before 5,000 s,
// so at a 1e12 s horizon the run still finishes, bitwise equal to the
// 5,000 s run; walking its ~7e10 empty windows would never finish.
TEST(fleet_shard, quiescent_run_jumps_to_its_horizon) {
  for (const std::size_t shards : {1, 2}) {
    SCOPED_TRACE(shards);
    core::fleet_config config;
    config.vehicle_count = 50;
    config.shard_count = shards;
    config.duration_s = vtm::util::seconds{5000.0};
    // First a horizon 200 times longer, which a walk still finishes at
    // once: it must record exactly the same spans and instants, so a run
    // that walks fails here instead of hanging below.
    vtm::util::trace_session near_trace;
    vtm::util::trace_session far_trace;
    auto near = config;
    near.telemetry.trace = &near_trace;
    auto far = near;
    far.duration_s = vtm::util::seconds{1e6};
    far.telemetry.trace = &far_trace;
    (void)core::run_fleet_scenario(near);
    (void)core::run_fleet_scenario(far);
    ASSERT_EQ(near_trace.event_count(), far_trace.event_count());

    auto unbounded = config;
    unbounded.duration_s = vtm::util::seconds{1e12};
    const auto a = core::run_fleet_scenario(config);
    const auto b = core::run_fleet_scenario(unbounded);
    EXPECT_GT(a.completed, 0u);
    expect_identical(a, b);
    expect_same_counters(a, b);
    ASSERT_EQ(a.vehicles.size(), b.vehicles.size());
    for (std::size_t v = 0; v < a.vehicles.size(); ++v) {
      EXPECT_EQ(a.vehicles[v].id, b.vehicles[v].id) << v;
      EXPECT_EQ(a.vehicles[v].position_m, b.vehicles[v].position_m) << v;
      EXPECT_EQ(a.vehicles[v].shard, b.vehicles[v].shard) << v;
    }
  }
}

TEST(fleet_shard, rejects_invalid_shard_configs) {
  core::fleet_config too_many;
  too_many.rsu_count = 4;
  too_many.shard_count = 5;
  EXPECT_THROW((void)core::run_fleet_scenario(too_many),
               vtm::util::contract_error);
}

// ---- satellite: epoch-grid snap uses a relative tolerance -----------------

// The pre-fix snap subtracted an absolute 1e-9 before ceil(); once
// now/epoch exceeds ~2^20 that is below one ulp of the grid coordinate, so
// a clearing landing one ulp past a boundary deferred a full epoch. The
// relative tolerance must keep ulp-noise on the boundary at any magnitude.
TEST(fleet_shard, epoch_grid_snap_uses_relative_tolerance) {
  const double epoch = 0.5;
  EXPECT_EQ(core::epoch_grid_snap(0.0, epoch), 0.0);
  EXPECT_EQ(core::epoch_grid_snap(0.2, epoch), 0.5);
  EXPECT_EQ(core::epoch_grid_snap(12.25, epoch), 12.5);
  EXPECT_EQ(core::epoch_grid_snap(12.5, epoch), 12.5);
  EXPECT_EQ(core::epoch_grid_snap(7.0, 0.0), 7.0);  // epoch 0: clear now

  // Long-horizon regression: walk boundary times across magnitudes (the
  // pre-fix formula defers at k >= ~2^25, i.e. duration_s beyond ~1.6e7 s
  // on the default 0.5 s epoch). One ulp past the boundary must snap back
  // onto it — i.e. clear immediately — not defer to the next epoch.
  for (const double k : {1.0, 1024.0, 1048576.0, 8388608.0, 33554432.0,
                         1073741824.0}) {
    const double boundary = k * epoch;
    const double just_past =
        std::nextafter(boundary, std::numeric_limits<double>::infinity());
    const double snapped = core::epoch_grid_snap(just_past, epoch);
    // max(now, grid) semantics: "clear at once", never a full epoch later.
    EXPECT_EQ(snapped, just_past) << "k=" << k;
    // Well inside the epoch the next boundary still wins.
    EXPECT_EQ(core::epoch_grid_snap(boundary + 0.25 * epoch, epoch),
              boundary + epoch)
        << "k=" << k;
  }
}

// ---- satellite: drain-phase abandons re-home twins ------------------------

// The pre-fix run() counted `abandon_pending()` without the `set_host_rsu`
// bookkeeping that the in-run abandon path performs, leaving abandoned twins
// hosted on a stale RSU in post-run inspection. Both paths now go through
// `resolve_abandoned`; this drives the final sweep directly on a shard
// engine whose book still holds a request when the horizon is cut.
TEST(fleet_shard, drain_sweep_rehomes_abandoned_twins) {
  core::fleet_config config;
  config.graph = std::make_shared<const sim::road_graph>(
      sim::road_graph::path(4, 1000.0, 600.0));
  config.vehicle_count = 1;
  const std::vector<std::uint32_t> rsu_shard(4, 0);
  std::vector<core::vehicle_slot> vehicles(1);
  vehicles[0].kinematics = {2600.0, 25.0};
  vehicles[0].profile = {1000.0, 200.0};
  vehicles[0].twin.emplace(
      sim::vehicular_twin::with_total_mb(0, 200.0, config.page_mb.value()));
  vehicles[0].twin->set_host_rsu(1);

  sim::shard_mailbox<core::shard_message> mailbox(1);
  core::shard_engine engine(config, {}, 0, 0, 4, rsu_shard, vehicles,
                            mailbox);

  core::clearing_request request;
  request.vehicle = 0;
  request.profile = vehicles[0].profile;
  request.from_rsu = 1;
  request.to_rsu = 2;
  request.submitted_s = 0.0;
  engine.market_at(2).submit(request);

  engine.abandon_remaining();
  EXPECT_EQ(engine.stats().abandoned, 1u);
  // The twin followed its request's destination, exactly like the in-run
  // abandon path — not left hosted on the stale RSU 1.
  EXPECT_EQ(vehicles[0].twin->host_rsu(), 2u);
  EXPECT_EQ(engine.market_at(2).pending(), 0u);
}

// ---- satellite: explicit spawn window starting at zero --------------------

TEST(fleet_shard, explicit_zero_spawn_window_is_not_auto) {
  core::fleet_config config;
  config.vehicle_count = 10;
  config.duration_s = vtm::util::seconds{30.0};
  config.spawn_min_m = vtm::util::meters{0.0};  // pre-fix: conflated with the auto sentinel
  config.spawn_max_m = vtm::util::meters{0.0};
  const auto r = core::run_fleet_scenario(config);
  // Everyone spawns at 0 m: the first boundary (1500 m) is out of reach
  // within 30 s at <= 35 m/s, so an honest [0, 0] window admits no
  // handovers. The pre-fix code silently spread the fleet over the chain.
  EXPECT_EQ(r.handovers, 0u);
  for (const auto& v : r.vehicles) EXPECT_EQ(v.host_rsu, 0u);
}

// An explicit window is clamped to its route: on the default chain the
// road ends at the last centre (8000 m), so a ceiling past it runs bitwise
// as a ceiling on it.
TEST(fleet_shard, explicit_spawn_window_is_clamped_to_the_route) {
  core::fleet_config wide;
  wide.spawn_min_m = vtm::util::meters{500.0};
  wide.spawn_max_m = vtm::util::meters{20000.0};
  core::fleet_config clamped = wide;
  clamped.spawn_max_m = vtm::util::meters{8000.0};
  const auto a = core::run_fleet_scenario(wide);
  const auto b = core::run_fleet_scenario(clamped);
  EXPECT_GT(a.handovers, 0u);
  expect_identical(a, b);
  for (std::size_t v = 0; v < a.vehicles.size(); ++v)
    EXPECT_EQ(a.vehicles[v].position_m, b.vehicles[v].position_m) << v;
}

TEST(fleet_shard, rejects_inverted_explicit_spawn_window) {
  core::fleet_config config;
  config.spawn_min_m = vtm::util::meters{500.0};
  config.spawn_max_m = vtm::util::meters{100.0};
  EXPECT_THROW((void)core::run_fleet_scenario(config),
               vtm::util::contract_error);
}

// ---- satellite: non-adjacent hops price over the actual gap ---------------

// A request deferred long enough for its vehicle to drift multiple cells
// migrates over the true (from, to) distance. Pre-fix, the grant's transfer
// rate and closed-form AoTM were built from the destination pool's upstream
// gap (2000 m here) instead of the actual 3000 m hop.
TEST(fleet_shard, drifted_grants_use_actual_from_to_gap) {
  core::fleet_config config;
  config.rsu_positions_m = {vtm::util::meters{1000.0}, vtm::util::meters{2000.0}, vtm::util::meters{4000.0}};
  config.coverage_radius_m = vtm::util::meters{1100.0};
  config.vehicle_count = 2;
  config.min_speed_mps = vtm::util::mps{30.0};
  config.max_speed_mps = vtm::util::mps{30.0};
  config.min_alpha = 5000.0;
  config.max_alpha = 5000.0;
  config.min_data_mb = vtm::util::megabytes{280.0};  // long transfer: the deferred vehicle drifts
  config.spawn_min_m = vtm::util::meters{1100.0};
  config.spawn_max_m = vtm::util::meters{1400.0};
  config.bandwidth_per_pool_mhz = vtm::util::megahertz{0.1};  // one grant saturates a pool
  config.min_clearable_mhz = vtm::util::megahertz{0.1};
  config.duration_s = vtm::util::seconds{20.0};
  const auto r = core::run_fleet_scenario(config);

  const auto drifted = std::find_if(
      r.migrations.begin(), r.migrations.end(),
      [](const core::migration_record& m) { return m.to_rsu == 2; });
  ASSERT_NE(drifted, r.migrations.end());
  ASSERT_EQ(drifted->from_rsu, 0u);  // drifted two cells while deferred

  // Replay the spawn draws to recover the drifting vehicle's footprint.
  vtm::util::rng gen(config.seed);
  double data_mb[2];
  for (std::size_t v = 0; v < 2; ++v) {
    (void)gen.uniform(config.spawn_min_m.value(), config.spawn_max_m.value());
    (void)gen.uniform(config.min_speed_mps.value(), config.max_speed_mps.value());
    (void)gen.uniform(config.min_alpha, config.max_alpha);
    data_mb[v] = gen.uniform(config.min_data_mb.value(), config.max_data_mb.value());
  }
  const auto twin = sim::vehicular_twin::with_total_mb(
      drifted->vehicle, data_mb[drifted->vehicle], config.page_mb.value());
  vtm::wireless::link_params actual = config.link;
  actual.distance_m = vtm::util::meters{3000.0};  // centre 0 -> centre 2
  const vtm::wireless::link_budget budget(actual);
  EXPECT_DOUBLE_EQ(
      drifted->aotm_closed_form,
      core::aotm_closed_form(twin.total_mb(), drifted->bandwidth_mhz, budget));
}

// Backward traffic stays rejected by design: the geometry supports it, the
// engine's validation (pools price the upstream gap) is the chosen guard.
TEST(fleet_shard, backward_traffic_is_rejected_by_design) {
  const sim::rsu_chain chain(4, 1000.0, 600.0);
  const auto event = chain.next_handover({2600.0, -20.0});
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->from_rsu, 2u);
  EXPECT_EQ(event->to_rsu, 1u);

  core::fleet_config config;
  config.min_speed_mps = vtm::util::mps{-30.0};
  config.max_speed_mps = vtm::util::mps{-10.0};
  EXPECT_THROW((void)core::run_fleet_scenario(config),
               vtm::util::contract_error);
}

// ---- satellite: same-instant cross-shard retargets serialize --------------

// PR 4's documented open follow-up: retargets landing at the same grid
// instant serialize through the next barrier in (destination, sender, send
// order) mailbox sequence — the senders' book-FIFO order — rather than
// reproducing the serial engine's schedule-order tie-break. Today those two
// orders *coincide* on this scenario (v1 before v2, both retargeting at
// t = 164 s into the same destination pool), and the whole schedule is
// deterministic. This pin makes any future tie-break change deliberate: if
// the mailbox discipline or the book compaction reorders same-instant
// retargets, these exact sequences must be re-derived, not accidentally
// drifted.
TEST(fleet_shard, same_instant_cross_shard_retargets_serialize_in_fifo_order) {
  core::fleet_config config;
  config.rsu_positions_m = {vtm::util::meters{1000.0}, vtm::util::meters{2000.0}, vtm::util::meters{4000.0}};
  config.coverage_radius_m = vtm::util::meters{1100.0};
  config.vehicle_count = 3;
  config.min_speed_mps = vtm::util::mps{30.0};
  config.max_speed_mps = vtm::util::mps{30.0};
  config.min_alpha = 5000.0;
  config.max_alpha = 5000.0;
  config.min_data_mb = vtm::util::megabytes{280.0};
  config.spawn_min_m = vtm::util::meters{1100.0};
  config.spawn_max_m = vtm::util::meters{1400.0};
  config.bandwidth_per_pool_mhz = vtm::util::megahertz{0.1};  // one grant saturates a pool
  config.min_clearable_mhz = vtm::util::megahertz{0.1};
  config.duration_s = vtm::util::seconds{20.0};

  const auto serial = core::run_fleet_scenario(config);

  auto sharded_config = config;
  sharded_config.shard_count = 3;  // one RSU per shard
  const auto sharded = core::run_fleet_scenario(sharded_config);

  // Two deferred requests retarget out of shard 1 at the same clearing
  // instant; both serialize through the next barrier.
  EXPECT_EQ(sharded.cross_shard_retargets, 2u);
  expect_conserved(sharded_config, sharded);

  // The pinned deterministic order: v0's granted migration first, then the
  // same-instant retargets v1, v2 — submitted in book-FIFO order at the
  // sender, delivered in send order at the destination.
  ASSERT_EQ(sharded.migrations.size(), 3u);
  const std::size_t vehicles[] = {0, 1, 2};
  const std::size_t to_rsu[] = {1, 2, 2};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sharded.migrations[i].vehicle, vehicles[i]) << i;
    EXPECT_EQ(sharded.migrations[i].to_rsu, to_rsu[i]) << i;
  }
  EXPECT_EQ(sharded.migrations[1].start_s, sharded.migrations[2].start_s);

  // Today the barrier serialization happens to reproduce the serial
  // engine's schedule-order tie-break on this scenario — pin that too, so a
  // divergence (either engine changing its order) is surfaced.
  ASSERT_EQ(serial.migrations.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(serial.migrations[i].vehicle, sharded.migrations[i].vehicle);
    EXPECT_EQ(serial.migrations[i].start_s, sharded.migrations[i].start_s);
  }

  // And the serialization is stable run to run.
  const auto again = core::run_fleet_scenario(sharded_config);
  expect_identical(sharded, again);
}

// ---- cross-shard retarget path --------------------------------------------

// The drift scenario above, sharded one RSU per shard: the deferred request
// re-homes across two shard boundaries via a retarget handoff, and the
// migration still lands exactly once.
TEST(fleet_shard, cross_shard_retarget_rehomes_deferred_requests) {
  core::fleet_config config;
  config.rsu_positions_m = {vtm::util::meters{1000.0}, vtm::util::meters{2000.0}, vtm::util::meters{4000.0}};
  config.coverage_radius_m = vtm::util::meters{1100.0};
  config.vehicle_count = 2;
  config.min_speed_mps = vtm::util::mps{30.0};
  config.max_speed_mps = vtm::util::mps{30.0};
  config.min_alpha = 5000.0;
  config.max_alpha = 5000.0;
  config.min_data_mb = vtm::util::megabytes{280.0};
  config.spawn_min_m = vtm::util::meters{1100.0};
  config.spawn_max_m = vtm::util::meters{1400.0};
  config.bandwidth_per_pool_mhz = vtm::util::megahertz{0.1};
  config.min_clearable_mhz = vtm::util::megahertz{0.1};
  config.duration_s = vtm::util::seconds{20.0};
  config.shard_count = 3;
  const auto r = core::run_fleet_scenario(config);

  EXPECT_GT(r.cross_shard_retargets, 0u);
  expect_conserved(config, r);
  const bool drifted_granted = std::any_of(
      r.migrations.begin(), r.migrations.end(),
      [](const core::migration_record& m) {
        return m.from_rsu == 0 && m.to_rsu == 2;
      });
  EXPECT_TRUE(drifted_granted);
}

// ---- graph-tile ownership --------------------------------------------------

namespace {

// City grid with enough routes and traffic that every tile boundary sees
// vehicles hopping between shards.
core::fleet_config grid_config() {
  core::fleet_config config;
  config.graph = std::make_shared<const sim::road_graph>(
      sim::road_graph::grid(4, 4, 1000.0, 600.0));
  config.vehicle_count = 300;
  config.duration_s = vtm::util::seconds{120.0};
  config.seed = 61;
  return config;
}

}  // namespace

// Shards over a road graph own contiguous ranges of the (edge, offset)-sorted
// global RSU index — i.e. graph tiles of edges. The same conservative-window
// mailbox contract holds: with no late deliveries and no cross-shard
// retargets, 2- and 4-tile runs are bitwise the serial engine.
TEST(fleet_shard, graph_tiles_match_serial_engine_bitwise) {
  const auto config = grid_config();
  const auto serial = core::run_fleet_scenario(config);
  EXPECT_GT(serial.handovers, 0u);
  expect_conserved(config, serial);

  for (const std::size_t tiles : {std::size_t{2}, std::size_t{4}}) {
    auto tiled_config = config;
    tiled_config.shard_count = tiles;
    const auto tiled = core::run_fleet_scenario(tiled_config);
    expect_conserved(tiled_config, tiled);
    // Grid routes zig-zag through the global site order, so tile borders
    // carry real traffic in both runs.
    EXPECT_GT(tiled.cross_shard_transfers, 0u) << tiles;
    // The auto window is conservative for the graph's narrowest cell at the
    // fastest factor: nothing arrives late, so the barrier schedule
    // reproduces the serial event order exactly.
    EXPECT_EQ(tiled.late_handoffs, 0u) << tiles;
    EXPECT_EQ(tiled.cross_shard_retargets, 0u) << tiles;
    expect_identical(serial, tiled);
  }
}

// Tile runs are deterministic across repeats and across thread scheduling.
TEST(fleet_shard, graph_tiles_are_deterministic) {
  auto config = grid_config();
  config.shard_count = 4;
  const auto a = core::run_fleet_scenario(config);
  const auto b = core::run_fleet_scenario(config);
  expect_identical(a, b);
  EXPECT_EQ(a.cross_shard_transfers, b.cross_shard_transfers);
  EXPECT_EQ(a.late_handoffs, b.late_handoffs);
}
