// Fleet-scale vehicular twin migration with joint spot-market clearing.
//
// The event-driven engine behind every fleet workload, from a few vehicles
// on a four-RSU highway to thousands on long RSU chains and road graphs.
// Each destination RSU owns its own OFDMA pool and `core::spot_market` book;
// handovers landing within one clearing epoch aggregate into a single
// N-follower Stackelberg market over that pool's remaining capacity, and
// migration completions trigger immediate re-clearing for deferred requests
// (DESIGN.md §8). `clearing_epoch_s = 0` clears at each handover instant.
//
// Accounting is completion-based: utilities and records accrue when a
// migration finishes, and the run drains the event queue to empty, so totals
// always equal the sum over `migrations` and no in-flight work is lost.
//
// A single run parallelizes across `shard_count` contiguous RSU shards, each
// owning its RSUs' pools, books, and its own
// `sim::basic_event_queue<fleet_event>`; shards advance in conservative time
// windows and hand boundary handoffs across barriers (core/fleet_shard.hpp,
// DESIGN.md §10). `shard_count = 1` (the default) is bitwise identical to
// the pre-shard serial engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/competitive_market.hpp"
#include "core/pricing_policy.hpp"
#include "util/quantity.hpp"

namespace vtm::sim {
class road_graph;
}  // namespace vtm::sim

namespace vtm::util {
class metrics_registry;
class trace_session;
}  // namespace vtm::util

namespace vtm::core {

/// How concurrent handovers are priced.
enum class market_mode {
  joint,      ///< Epoch-aggregated N-follower Stackelberg markets (eq. 8–13).
  oligopoly,  ///< M competing MSPs per clearing: softmin-Bertrand price
              ///< competition with per-VMU seller splits
              ///< (core/competitive_market.hpp, DESIGN.md §11).
};

/// One completed migration.
struct migration_record {
  double start_s = 0.0;          ///< Clearing (market) time.
  double requested_s = 0.0;      ///< Handover time (<= start_s).
  double finish_s = 0.0;         ///< Completion time (>= start_s).
  std::size_t vehicle = 0;
  std::size_t from_rsu = 0;
  std::size_t to_rsu = 0;
  double price = 0.0;            ///< Equilibrium unit price charged (the
                                 ///< effective share-weighted price under
                                 ///< market_mode::oligopoly).
  double bandwidth_mhz = 0.0;    ///< Purchased (granted) bandwidth.
  std::size_t cohort = 1;        ///< Followers in the market that priced it.
  std::size_t sellers = 1;       ///< MSPs the bandwidth was split across.
  double aotm_closed_form = 0.0; ///< D/(b·R), eq. 1.
  double aotm_simulated = 0.0;   ///< Pre-copy first-to-last-block time.
  double downtime_s = 0.0;       ///< Stop-and-copy pause.
  double data_sent_mb = 0.0;     ///< Includes dirty-page retransmissions.
  double vmu_utility = 0.0;
  double msp_utility = 0.0;
  bool precopy_converged = true;
};

/// Optional observability sinks for a fleet run (DESIGN.md §16). Null
/// members disable the corresponding instrument family at the cost of one
/// predictable branch per site; attached sinks never influence results —
/// telemetry on vs off is bitwise-identical on `fleet_result`
/// (tests/telemetry_test.cpp). Sinks must outlive the run and must not be
/// shared across concurrently-executing runs.
struct fleet_telemetry {
  /// Deterministic histograms (`market.cohort`, `market.grant_mhz`), one
  /// observation per completed migration, filled by the coordinator at each
  /// flush in finish-time order.
  util::metrics_registry* metrics = nullptr;
  /// Chrome-trace spans and instants, one lane per shard plus the
  /// coordinator lane.
  util::trace_session* trace = nullptr;
};

/// Fleet shape, economics, and clearing semantics. Physical fields are typed
/// quantities (util/quantity.hpp); the engine unwraps via `.value()` at the
/// point of use, so the arithmetic — and the tier-2 goldens — stay bitwise.
struct fleet_config {
  // Geometry / fleet shape.
  std::size_t rsu_count = 8;
  util::meters rsu_spacing_m{1000.0};
  util::meters coverage_radius_m{600.0};
  /// Explicit (possibly non-uniform) RSU centres. When non-empty it
  /// overrides rsu_count x rsu_spacing_m, and each pool's migration link —
  /// hence its spectral efficiency, κ_n, and cleared price — uses the actual
  /// distance from its upstream neighbour instead of a global constant.
  std::vector<util::meters> rsu_positions_m;
  std::size_t vehicle_count = 100;
  util::mps min_speed_mps{20.0};
  util::mps max_speed_mps{35.0};
  util::seconds duration_s{120.0};  ///< Handover-admission horizon.

  /// Spawn span along each route; < 0 means "auto", so an explicit window
  /// may start at 0 m. An auto bound spreads the fleet over the whole road
  /// so every RSU sees load: a chain spawns over [s/2, (n − ½)·s] (explicit
  /// centres: half the first gap before the first centre to half the last
  /// gap before the last), a graph route over [0, route length]. An explicit
  /// ceiling is finite and clamped to its route's length (a chain's route
  /// ends at its last centre); an explicit floor must lie before every
  /// route's end, and the window must not be empty.
  util::meters spawn_min_m{-1.0};
  util::meters spawn_max_m{-1.0};

  /// Road-network topology (sim/road_graph.hpp). When set it replaces the
  /// chain fields above: the RSUs are the graph's sites, vehicles route over
  /// entry->exit paths, and pools price graph distance (`upstream_gap_m`).
  /// When null the engine lowers the chain fields to their path graph
  /// (`road_graph::path`), so every run has one geometry. Oligopoly mode
  /// needs one route through every site, as a chain has.
  std::shared_ptr<const sim::road_graph> graph;

  // Economics (paper ranges; α enters ×100 per the unit calibration).
  double min_alpha = 500.0;
  double max_alpha = 2000.0;
  util::megabytes min_data_mb{100.0};
  util::megabytes max_data_mb{300.0};
  util::megahertz bandwidth_per_pool_mhz{50.0};  ///< Per-OFDMA-pool capacity.
  double unit_cost = 5.0;
  double price_cap = 50.0;
  wireless::link_params link{};  ///< d is overridden by each pool's
                                 ///< upstream gap.

  // Spot-market clearing.
  market_mode mode = market_mode::joint;
  util::seconds clearing_epoch_s{0.5};  ///< Finite; 0 clears at each handover.
  util::megahertz min_clearable_mhz{0.5};  ///< Defer below this remainder.

  // Oligopoly competition (market_mode::oligopoly; DESIGN.md §11).
  /// The competing sellers: at least two in oligopoly mode (one seller is
  /// the monopoly, which joint mode prices with the economics above), empty
  /// in joint mode. Each MSP owns a chain of pools shifted `chain_offset_m`
  /// along the road's one route.
  std::vector<fleet_msp> msps;
  double share_sharpness = 0.25;  ///< λ of the softmin split (finite, > 0).

  /// Learned price source (joint mode only; the best-response solve prices
  /// every oligopoly clearing). Null (the default) prices every clearing
  /// with the analytic `solve_equilibrium` oracle; otherwise the pricer
  /// posts each clearing's price from the partial-information cohort
  /// observation.
  std::shared_ptr<const learned_pricer> pricer;

  /// Capture one `cohort_snapshot` per priced clearing into
  /// `fleet_result::cohorts` (training-data harvest for the learned
  /// pricer). Joint mode only; oligopoly runs record none.
  bool record_cohorts = false;

  // Migration machinery.
  util::mb_per_s dirty_rate_mb_s{50.0};
  util::megabytes page_mb{0.25};
  util::megabytes stop_copy_threshold_mb{1.0};

  /// Keep per-migration records (turn off for throughput benches at scale;
  /// aggregates are accumulated either way).
  bool record_migrations = true;

  // Sharded execution (core/fleet_shard.hpp).
  /// Contiguous RSU shards a single run is partitioned into. Each shard owns
  /// its RSUs' pools, spot-market books, and its own event queue; shards run
  /// on `util::thread_pool` workers and hand boundary handoffs across
  /// conservative window barriers, the window derived from the graph's
  /// minimum boundary travel time at `max_speed_mps`. 1 = the serial engine
  /// (bitwise identical to the pre-shard code); requires shard_count <= RSU
  /// count.
  std::size_t shard_count = 1;

  // Observability (DESIGN.md §16). Results are invariant to it: metrics
  // are filled from the flush's ledger and spans only read.
  fleet_telemetry telemetry;

  std::uint64_t seed = 2023;
};

/// Per-vehicle end-of-run state (always filled; indexed by vehicle id).
struct vehicle_summary {
  std::size_t id = 0;          ///< Stable vehicle identity (streaming runs
                               ///< recycle slots, so the slot index is not).
  std::size_t host_rsu = 0;    ///< RSU hosting the twin after the drain.
  std::size_t migrations = 0;  ///< Completed migrations of this twin.
  double position_m = 0.0;     ///< Position at the vehicle's last sync.
  std::size_t shard = 0;       ///< Shard owning the vehicle at the end.
};

/// Aggregate outcome of a fleet run.
struct fleet_result {
  std::vector<migration_record> migrations;  ///< Empty when not recording.
  std::vector<cohort_snapshot> cohorts;  ///< Filled when record_cohorts.
  std::size_t handovers = 0;    ///< Boundary crossings admitted.
  std::size_t deferred = 0;     ///< Request-clearings delayed by a full pool.
  std::size_t priced_out = 0;   ///< Handovers priced to b* = 0 (no migration).
  std::size_t abandoned = 0;    ///< Requests dropped as permanently unservable.
  std::size_t completed = 0;    ///< Migrations run to completion.
  std::size_t clearings = 0;    ///< Clearing events that priced >= 1 market.
  std::size_t max_cohort = 0;   ///< Largest cohort among completed migrations.
  std::vector<vehicle_summary> vehicles;  ///< Final per-vehicle state.
  /// Sharding diagnostics (all zero for shard_count = 1).
  std::size_t cross_shard_transfers = 0;  ///< Vehicles handed between shards.
  std::size_t cross_shard_retargets = 0;  ///< Deferred requests re-homed.
  std::size_t late_handoffs = 0;  ///< Deliveries clamped to a later barrier;
                                  ///< 0 means the run matched the serial
                                  ///< engine's event timing exactly.
  double msp_total_utility = 0.0;  ///< Σ over completed migrations.
  double vmu_total_utility = 0.0;
  double mean_aotm = 0.0;
  double mean_amplification = 0.0;
  double mean_price = 0.0;         ///< Demand-weighted across completions.
  /// Oligopoly only (sized to the MSP roster; empty otherwise): each
  /// seller's realized profit and sold bandwidth over completed migrations.
  /// Σ msp_utilities == msp_total_utility up to summation order.
  std::vector<double> msp_utilities;
  std::vector<double> msp_sold_mhz;
  /// Oligopoly clearings whose best-response fixed point hit the sweep
  /// budget without converging (prices still valid, just not certified).
  std::size_t unconverged_clearings = 0;
  /// Oligopoly solver cost, summed over clearings (all zero outside
  /// oligopoly mode). Best-response sweeps: a warm solve's Newton
  /// verification sweep counts as one, whether it accepts the Newton prices
  /// or the dampened loop runs after it.
  std::size_t solver_sweeps = 0;
  /// Objective evaluations: every best-response objective call (the
  /// verification sweep's bracket-edge probes included), plus one per free
  /// seller for each residual-and-Jacobian evaluation of the Newton stage.
  /// Failed Newton solves count too.
  std::size_t objective_evals = 0;
  /// Clearings that warm-started from their book's previous prices.
  std::size_t warm_started_clearings = 0;
};

/// Run one fleet scenario to completion (deterministic given the seed).
[[nodiscard]] fleet_result run_fleet_scenario(const fleet_config& config);

/// Streaming (open-system) fleet run: vehicles arrive as a Poisson process
/// over an unbounded horizon instead of all spawning at t = 0, completed
/// twins retire and their slots are recycled, and results flush in periodic
/// windows so memory stays bounded by the live population, not the arrival
/// count (DESIGN.md §14).
struct streaming_config {
  /// Geometry, economics, and sharding for the run. `vehicle_count` is
  /// ignored (population is arrival-driven) and `duration_s` is overridden
  /// by `horizon_s`. Joint mode only (oligopoly stays closed-population).
  fleet_config base;
  util::per_second arrival_rate_per_s{5.0};  ///< Poisson arrival λ.
  util::seconds horizon_s{600.0};      ///< Arrival-admission horizon.
  util::seconds flush_period_s{60.0};  ///< Window length between flushes.
};

/// Outcome of a streaming run. `flushes[k]` covers window k only (counters
/// are per-window deltas); `totals` aggregates the whole run and carries the
/// concatenated migration records, cohorts, and one `vehicle_summary` per
/// arrival (indexed by vehicle id).
struct streaming_result {
  std::vector<fleet_result> flushes;
  fleet_result totals;
  std::size_t arrivals = 0;   ///< Vehicles admitted over the horizon.
  std::size_t retired = 0;    ///< Twins retired (== arrivals after drain).
  std::size_t peak_live = 0;  ///< Max concurrent live twins.
  /// High-water mark of the recycled slot arena — the engine's actual
  /// memory footprint (bounded by peak_live, not arrivals).
  std::size_t slot_high_water = 0;
};

/// Run one streaming fleet scenario to quiescence (deterministic given the
/// seed). Validates via `validate_streaming_config` (core/fleet_shard.hpp).
[[nodiscard]] streaming_result run_streaming_fleet(
    const streaming_config& config);

}  // namespace vtm::core
