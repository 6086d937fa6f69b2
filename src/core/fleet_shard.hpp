// Sharded fleet engine: per-RSU-range event shards with boundary handoff.
//
// Every run is on a road graph: a chain config is lowered to its path graph
// when the coordinator is built (`sim::road_graph::path`). A fleet run
// partitions the graph's RSU sites, in their global (edge, offset) order,
// into `shard_count` contiguous shards. Each `shard_engine` owns its RSUs'
// OFDMA pools and `core::spot_market` books, and advances its *own*
// `sim::basic_event_queue<fleet_event>`; the `shard_coordinator` drives all
// shards in conservative time windows on `util::thread_pool` (lookahead: the
// minimum boundary travel time at the top speed). Anything one shard does
// to another crosses a `sim::shard_mailbox`: the barrier flips it, and the
// receiving lane applies its mail as its next window or drain round starts:
//
//   - `boundary_handoff` — a vehicle whose next coverage handover lands in a
//     neighbouring shard's RSU; ownership of the vehicle slot moves with it.
//   - `retarget_handoff` — a deferred request whose vehicle drifted past the
//     shard's last RSU while waiting; the request (and the vehicle) re-home
//     to the pool now serving the vehicle.
//
// One protocol, one reduction (DESIGN.md §10, §14): closed and streaming
// runs share one window loop, run as `shard_count` shard lanes plus one
// coordinator lane. A barrier does only the work that needs every lane
// parked, on the thread of the lane that finished last: it flips the
// mailbox, hands each shard's window log (completions and exits) to the
// coordinator lane, opens any flush due (counter deltas, cohorts, and the
// exited slots returned to the free list), and gives the next window's
// drawn arrivals their slots, staged per shard. Each shard lane delivers
// its own inbox and then admits its staged arrivals as its window starts,
// and logs its own exits. The coordinator lane runs one window behind,
// beside the shards: it merges the handed-off ledgers in global finish-time
// order into the open flush and fills the run's metric histograms, closes
// the flushes the barrier opened, and draws the arrivals of the window after
// next. That reduction is the one place a run's deterministic numbers are
// recorded, and the shards record none. Past the horizon the loop drains to quiescence and
// emits a final flush; a barrier at which nothing is scheduled, in flight
// or still to arrive jumps straight to the horizon. A closed run is the
// degenerate stream: its arrival source is the t = 0 spawn cohort, adopted
// before the first flip so its boundary mail arrives with the first window,
// it never flushes periodically, and its `fleet_result` is the one final
// flush.
//
// Fidelity contract (DESIGN.md §10): with `shard_count = 1` the engine is
// bitwise identical to the pre-shard serial engine. Multi-shard runs are
// deterministic for a fixed (seed, shard_count) and preserve every market
// invariant (exactly-once request resolution, no pool oversubscription,
// totals == Σ records); they reproduce the serial run bitwise whenever no
// delivery was clamped behind a window end (`fleet_result::late_handoffs == 0`
// and `cross_shard_retargets == 0`) and no two migrations finish at exactly
// the same instant — the reduction breaks exact finish-time ties by vehicle
// id, not the serial engine's schedule order, so degenerate configs (equal
// fixed speeds/footprints completing on the same epoch grid) can differ in
// the low ulps of the summed aggregates. With continuous parameter draws,
// cross-shard crossing times are kinematically known ahead of the lookahead
// window and per-pool books see the exact serial submission order. Clamped
// deliveries skew an event by at most one window and are counted, never
// dropped.
//
// Event core: each shard advances a `sim::basic_event_queue<fleet_event>` —
// the same monotone radix queue as `sim::event_queue`, so equal-time events
// still run in schedule order — over a closed, trivially copyable event
// record (arrival, handover, clearing, completion) that one switch
// dispatches. A completion event carries only an index into the shard's
// in-flight slab, which holds the migration's grants, seller slices, and
// record until it lands; slab slots recycle through a free list. The queue's
// buckets, the slab, the completion ledger, the pools' grant slots and the
// spot and oligopoly books' clearing scratch grow on first use and are then
// reused, and twins live in their vehicle slots, so a steady-state window
// admits, clears, migrates and completes without allocating; only flushes
// and the learned pricer's clearings do (tests/alloc_guard_test.cpp). A
// completion is scheduled at exactly `now() + total_time_s`.
//
// `shard_engine` is an engine-internal component driven by the coordinator;
// it is exposed here (rather than hidden in a TU) so white-box tests and
// benches can run windows, drains, and the abandon sweep directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "core/competitive_market.hpp"
#include "core/fleet_scenario.hpp"
#include "core/spot_market.hpp"
#include "sim/event_queue.hpp"
#include "sim/mailbox.hpp"
#include "sim/mobility.hpp"
#include "sim/vt.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"
#include "wireless/ofdma.hpp"

namespace vtm::core {

/// Smallest clearing-grid time >= now (now itself when it sits on the grid
/// or the epoch is zero), so same-epoch handovers aggregate into one market.
/// The boundary snap uses a tolerance that is *relative* to now/epoch — an
/// absolute epsilon falls below one ulp once now/epoch exceeds ~2^20, and a
/// handover landing ulps past a boundary would silently defer a full epoch
/// on long-horizon runs.
[[nodiscard]] double epoch_grid_snap(double now_s, double epoch_s);

/// Validate a fleet configuration (shared by `run_fleet_scenario` and
/// `shard_coordinator`); throws util::contract_error on violations. Negative
/// and zero speeds are rejected here by design: pools price their upstream
/// RSU gap, so backward traffic would clear over the wrong link. Geometry is
/// read from the config itself (the chain fields, or the graph), never from
/// the lowered path graph, and the channel must give a finite, positive
/// spectral efficiency over the shortest link a pool prices and the longest
/// hop a drifted request can take.
void validate_fleet_config(const fleet_config& config);

/// Validate a streaming configuration (arrival process, windows, and the
/// embedded base config with `duration_s` resolved to the horizon); throws
/// util::contract_error on violations. Oligopoly mode is rejected — the
/// competitive roster assumes a closed population.
void validate_streaming_config(const streaming_config& config);

/// Mutable per-vehicle simulation state. Slots live in one coordinator-owned
/// vector; exactly one shard owns (reads or writes) a slot at any time, and
/// ownership only moves across a window barrier: the sender lets go when it
/// posts a handoff, and the receiver takes over when it delivers it in the
/// next phase. The coordinator writes a slot only to spawn a closed run's
/// cohort, and reads slots only in the final flush; a stream's arrivals are
/// written by the shard that admits them, and its exits are logged by the
/// shard that owns them.
struct vehicle_slot {
  sim::vehicle_state kinematics;
  vmu_profile profile;
  /// The vehicle's twin, held in the slot (empty once retired), so a
  /// recycled slot admits an arrival without allocating.
  std::optional<sim::vehicular_twin> twin;
  double position_at = 0.0;  ///< Simulation time of `kinematics.position_m`.
  /// Route the vehicle travels (coordinator-owned). Positions are the
  /// route's arc coordinate. Set at spawn.
  const sim::route_profile* route = nullptr;
  std::size_t id = 0;    ///< Stable vehicle identity (slots are recycled).
};

/// One streaming arrival: drawn by the coordinator lane a window ahead,
/// given its slot and stable id at the barrier before its window, and
/// written into the slot by the shard that admits it.
struct vehicle_arrival {
  double at_s = 0.0;
  std::size_t slot = 0;
  std::size_t id = 0;
  const sim::route_profile* route = nullptr;
  sim::vehicle_state kinematics;  ///< At `at_s`.
  vmu_profile profile;
  std::size_t serving_rsu = 0;  ///< Hosts the twin on arrival.
};

/// A vehicle whose next coverage handover lands in another shard: the
/// destination schedules the handover at the kinematic crossing time, or at
/// its clock on delivery if the crossing already passed (a late handoff).
struct boundary_handoff {
  std::size_t vehicle = 0;
  std::size_t from_rsu = 0;
  std::size_t to_rsu = 0;
  /// Kinematic boundary-crossing time. Mail posted in a window is clamped
  /// to the window's end, the receiver's clock on delivery, and the sender
  /// counts the clamp as late.
  double crossing_s = 0.0;
};

/// A deferred request re-homed to a pool in another shard (the vehicle
/// drifted out of the sender's RSU range while waiting).
struct retarget_handoff {
  clearing_request request;  ///< from/to already recomputed by the sender.
  /// Epoch-snapped clearing time at the sender, clamped like
  /// `boundary_handoff::crossing_s`.
  double clearing_s = 0.0;
};

using shard_message = std::variant<boundary_handoff, retarget_handoff>;

/// One shard: the fleet engine scoped to a contiguous RSU range, advancing
/// its own event queue under the coordinator's window protocol.
class shard_engine {
 public:
  /// Cumulative side counters. The coordinator folds them field by field
  /// into each flush's delta and into a stream's run totals.
  struct counters {
    std::size_t handovers = 0;
    std::size_t deferred = 0;
    std::size_t priced_out = 0;
    std::size_t abandoned = 0;
    std::size_t clearings = 0;
    std::size_t cross_shard_transfers = 0;
    std::size_t cross_shard_retargets = 0;
    std::size_t late_handoffs = 0;
    std::size_t unconverged_clearings = 0;  ///< Oligopoly fixed-point misses.
    std::size_t solver_sweeps = 0;          ///< Oligopoly BR sweeps spent.
    std::size_t objective_evals = 0;        ///< Oligopoly objective calls.
    std::size_t warm_started_clearings = 0; ///< Clearings warm-started.
    /// Per-MSP completion accounting (oligopoly mode; sized to the roster).
    /// Accrued in shard-local completion order — nondecreasing finish time —
    /// so one shard reproduces the global finish-time reduction bitwise.
    std::vector<double> msp_utility;
    std::vector<double> msp_sold_mhz;
  };

  /// One completed migration's aggregate terms, tagged for the coordinator's
  /// deterministic finish-time-ordered reduction (kept even when records are
  /// off, so sharded aggregates stay bitwise reproducible).
  struct completion_entry {
    double finish_s = 0.0;
    std::uint32_t vehicle = 0;
    std::uint32_t cohort = 0;  ///< Cohort of the market that priced it.
    double msp_utility = 0.0;
    double vmu_utility = 0.0;
    double aotm = 0.0;
    double amplification = 0.0;
    double price_bandwidth = 0.0;
    double bandwidth = 0.0;
  };

  /// `config.graph` is the run's road (the coordinator lowers a chain to
  /// its path graph). `rsu_shard` maps every global RSU index to its owning
  /// shard and must outlive the engine, as must `config`, `vehicles`, and
  /// `mailbox`. The engine owns pools and books for global RSUs
  /// [rsu_lo, rsu_lo + rsu_count). In oligopoly mode `candidates` holds this
  /// shard's rows of the (cell, MSP) table: for each of its cells in order,
  /// the global RSU each roster MSP serves it from, all inside the shard
  /// (empty otherwise).
  shard_engine(const fleet_config& config,
               std::span<const std::size_t> candidates, std::size_t index,
               std::size_t rsu_lo, std::size_t rsu_count,
               std::span<const std::uint32_t> rsu_shard,
               std::vector<vehicle_slot>& vehicles,
               sim::shard_mailbox<shard_message>& mailbox,
               util::trace_lane* trace = nullptr);

  /// Take ownership of a spawned vehicle and schedule its next handover
  /// (posts a boundary handoff instead when the crossing leaves the shard).
  void adopt(std::size_t vehicle);

  /// Stage a streaming arrival whose slot this shard owns from now on. The
  /// lane admits it when its next window starts — after delivering its
  /// mail, so the queue sees the mail first: it writes the slot and the
  /// twin, then schedules the first handover computation at `at_s`, which
  /// must land at/after the shard clock. Barrier only.
  void stage(const vehicle_arrival& arrival,
             const util::barrier_phase& barrier) VTM_REQUIRES(barrier);

  /// Log every exit (a stream that flushes periodically): a vehicle whose
  /// next handover declines appends its slot and final state to the window
  /// log. Without it only the final flush retires, by scanning the slots.
  void log_exits() noexcept { log_exits_ = true; }

  /// Deliver this shard's flipped mail, admit the staged arrivals, then run
  /// every event with time <= t_end and advance the clock to t_end. Mail the
  /// window posts is clamped to t_end, every receiver's clock when it
  /// arrives, and a clamp is counted late here, so the flush the next
  /// barrier opens holds it.
  void run_window(double t_end);

  /// Drain-phase round: deliver this shard's flipped mail, clamping what
  /// lands behind the clock and counting it late, then run until the queue
  /// empties (mail it posts is delivered in the next round). Returns the
  /// number of events executed.
  std::size_t drain_round();

  /// Final sweep once every queue is dry and no messages remain: anything
  /// still booked has no release left to wait for. Runs the same
  /// `resolve_abandoned` bookkeeping as the in-run abandon path (twins are
  /// re-homed to their request's destination RSU), but schedules nothing —
  /// the horizon has passed.
  void abandon_remaining();

  /// Book of the pool serving global RSU `rsu` (white-box tests; joint mode
  /// only).
  [[nodiscard]] spot_market& market_at(std::size_t rsu);

  [[nodiscard]] const counters& stats() const noexcept { return counters_; }

  /// A vehicle that left coverage (its next handover declines) with no
  /// booked or in-flight work, so nothing touches its slot again until the
  /// flush that retires it: its slot and its final state.
  struct exit_entry {
    std::size_t slot = 0;
    vehicle_summary summary;
  };

  /// What a lane logs for the coordinator: completions in local completion
  /// order (nondecreasing finish time), their records when the run records
  /// migrations (one per ledger entry, in the same order, each carrying the
  /// stable vehicle id, since a slot can be recycled before the record is
  /// reduced), and exits when `log_exits()` is on, in exit order.
  struct window_log {
    std::vector<completion_entry> ledger;
    std::vector<migration_record> records;
    std::vector<exit_entry> exits;
  };
  /// Move this shard's log onto the back of `into` and start an empty one.
  /// An empty vector of `into` trades buffers with the shard's, so both
  /// keep their capacity. Barrier only — the lane appends to it mid-window.
  void hand_off(window_log& into, const util::barrier_phase& barrier)
      VTM_REQUIRES(barrier);

  /// No event is scheduled (mail still in the mailbox is not counted).
  /// Barrier only.
  [[nodiscard]] bool idle(const util::barrier_phase& barrier) const
      VTM_REQUIRES(barrier);

  /// Cohort snapshots accrued since the previous flush, moved out. Barrier
  /// only.
  [[nodiscard]] std::vector<cohort_snapshot> take_cohorts(
      const util::barrier_phase& barrier) VTM_REQUIRES(barrier);

  /// Requests waiting in this shard's deferral books, summed over its pools.
  /// Barrier only — reads state the lanes otherwise own.
  [[nodiscard]] std::size_t book_depth(const util::barrier_phase& barrier)
      const VTM_REQUIRES(barrier);

  /// Aggregate pool usage across this shard's pools (per-MSP pools in
  /// oligopoly mode). Barrier only.
  struct pool_usage {
    double allocated_mhz = 0.0;
    double capacity_mhz = 0.0;
  };
  [[nodiscard]] pool_usage pool_utilization(const util::barrier_phase&
                                                barrier) const
      VTM_REQUIRES(barrier);

 private:
  /// The engine's closed event set. `subject` is the vehicle slot (arrival,
  /// handover), the pool index (clearing), or the in-flight slab index
  /// (completion); `from_rsu`/`to_rsu` are set for handovers only.
  struct fleet_event {
    enum class kind : std::uint8_t { arrival, handover, clearing, completion };
    kind what = kind::arrival;
    std::uint32_t subject = 0;
    std::uint32_t from_rsu = 0;
    std::uint32_t to_rsu = 0;
  };

  /// A launched migration awaiting its completion event: the pool it
  /// cleared in, one grant per seller slice (one grant and no slices in
  /// joint mode), and its record.
  struct in_flight {
    std::size_t pidx = 0;
    std::vector<seller_slice> slices;
    std::vector<wireless::grant_id> grant_ids;
    migration_record record;
  };

  void dispatch(const fleet_event& event);
  /// Apply every message the last flip left for this shard, in (sender,
  /// send order) sequence; returns the number applied.
  std::size_t receive_mail();
  /// Apply one cross-shard message. A delivery behind the shard clock is
  /// clamped to it and counted late.
  void deliver(const shard_message& message);
  /// The time a handoff posted for `at` (a crossing or a clearing) carries:
  /// `at`, or `mail_clock_` when that is later, counted late.
  [[nodiscard]] double mail_time(double at);
  [[nodiscard]] std::size_t pool_index(std::size_t rsu) const noexcept;
  /// The run's channel over a migration link of `distance_m`.
  [[nodiscard]] wireless::link_params link_for(double distance_m) const;
  [[nodiscard]] bool oligopoly() const noexcept {
    return config_.mode == market_mode::oligopoly;
  }
  /// Pending book of pool `pidx`, whichever engine owns it.
  [[nodiscard]] std::vector<clearing_request>& book_of(std::size_t pidx);
  /// Submit into pool `pidx`'s book, whichever engine owns it.
  void submit_request(std::size_t pidx, clearing_request request);
  void sync_position(std::size_t vehicle);
  void schedule_next_handover(std::size_t vehicle);
  void on_handover(std::size_t vehicle, std::size_t from, std::size_t to);
  void schedule_clearing(std::size_t pidx, double at);
  void run_clearing(std::size_t pidx);
  /// Oligopoly tail of `run_clearing`: price the compacted book through the
  /// competitive market over every MSP's remaining candidate-pool capacity.
  void run_clearing_oligopoly(std::size_t pidx);
  void start_migration(std::size_t pidx, const clearing_grant& grant);
  void start_migration(std::size_t pidx, const competitive_grant& grant);
  /// Take an in-flight slab slot (a recycled one first) for a migration
  /// clearing in pool `pidx`, with empty slices and grants.
  [[nodiscard]] std::uint32_t acquire_flight(std::size_t pidx);
  /// Shared tail of both start paths: pre-copy over the granted rate,
  /// record bookkeeping, and the completion event for slab slot `flight`
  /// (whose grants the start path already holds).
  void launch_migration(std::uint32_t flight, const clearing_request& request,
                        double price, double bandwidth_mhz,
                        double vmu_utility, double msp_utility,
                        std::size_t cohort);
  /// Completion of slab slot `flight`: release its grants, account it, and
  /// recycle the slot.
  void finish_migration(std::uint32_t flight);
  /// Shared bookkeeping of both abandon paths (in-run and final sweep).
  void resolve_abandoned(const clearing_request& request);
  /// The vehicle's next handover declined: log its exit when logging.
  void exit_vehicle(std::size_t vehicle);

  const fleet_config& config_;
  /// The run's road: pools price `upstream_gap_m` and drifted grants
  /// rebuild over `site_distance_m`.
  const sim::road_graph* graph_;
  std::size_t index_;
  std::size_t rsu_lo_;
  std::span<const std::uint32_t> rsu_shard_;
  std::vector<vehicle_slot>& vehicles_;
  sim::shard_mailbox<shard_message>& mailbox_;
  sim::basic_event_queue<fleet_event> queue_;
  std::vector<in_flight> flights_;            ///< In-flight migration slab.
  std::vector<std::uint32_t> free_flights_;   ///< Recycled slab slots.
  double epoch_s_;
  std::vector<wireless::link_params> pool_links_;   ///< Per-pool channel.
  std::vector<wireless::link_budget> budgets_;      ///< Per-pool rates.
  std::vector<wireless::ofdma_pool> pools_;
  std::vector<spot_market> markets_;
  // Oligopoly state (empty in joint mode): each roster MSP's pools over
  // this shard's RSU range, the per-cell books, the per-(cell, MSP)
  // candidate pool slots resolved from the offset chains, for each (MSP,
  // pool slot) the cells that draw on that pool (index m · cells + slot),
  // the clearing's per-MSP availability scratch, and the completion's
  // scratch of the books its release may unblock.
  std::vector<std::vector<wireless::ofdma_pool>> msp_pools_;
  std::vector<double> msp_available_;
  std::vector<competitive_market> comarkets_;
  std::vector<std::vector<std::size_t>> candidates_;
  std::vector<std::vector<std::size_t>> sharers_;
  std::vector<std::size_t> unblocked_;
  std::vector<bool> clearing_scheduled_;
  counters counters_;
  window_log log_;
  bool log_exits_ = false;
  /// Every receiver's clock when this shard's mail is delivered: the running
  /// window's end (0 before the first window), or −∞ in a drain round, whose
  /// receivers' clocks differ, so they count lateness on delivery.
  double mail_clock_ = 0.0;
  std::vector<vehicle_arrival> staged_;  ///< Admitted when a window starts.
  std::vector<cohort_snapshot> cohorts_;
  util::trace_lane* trace_;  ///< Null when tracing is off.
};

/// One route's spawn span, in the route's arc coordinate. A chain's auto
/// floor can sit before the road's entry (below 0 m), so the span is a value,
/// not the config's "< 0 means auto" sentinel.
struct spawn_span {
  double lo_m = 0.0;
  double hi_m = 0.0;
};

/// Owns the lowered config, the route profiles, the vehicle slots, the
/// shards, and the window protocol. Single-shot: construct one per run; a
/// second `run()` or `run_stream()` fails its entry contract.
class shard_coordinator {
 public:
  /// Closed run: the whole population spawns here and arrives at t = 0.
  explicit shard_coordinator(const fleet_config& config);

  /// Streaming run: the closed-population spawn is skipped; vehicles arrive
  /// as a Poisson process over the horizon and results flush per window.
  explicit shard_coordinator(const streaming_config& config);

  /// Execute the run to full quiescence and return its result: a closed
  /// run's one final flush, or a stream's `totals`. Completion ledgers are
  /// reduced in global finish-time order, so aggregates are independent of
  /// thread timing.
  [[nodiscard]] fleet_result run();

  /// Execute the run as a stream: arrivals are admitted window by window up
  /// to the horizon, results flush every `flush_period_s`, and exited twins
  /// retire so the slot arena stays bounded by the live population. A
  /// closed run yields its single final flush and totals equal to it.
  [[nodiscard]] streaming_result run_stream();

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// The coordinator's own trace lane (lane index `shard_count()` of the
  /// run's `trace_session`), or null when tracing is off. Serial callers
  /// (e.g. `run_fleet_scenario`) may record whole-run spans on it.
  [[nodiscard]] util::trace_lane* coordinator_lane() noexcept {
    return coord_trace_;
  }

 private:
  shard_coordinator(const fleet_config& config, bool spawn);

  /// Resolve the telemetry sinks from `config_.telemetry`: register the
  /// metric histograms, and open and name one trace lane per shard plus one
  /// for the coordinator. Serial-only (ctor).
  void init_telemetry();

  void spawn_vehicles() VTM_REQUIRES(lane_);
  /// Draw one vehicle's spawn state into `spawn` (a closed run's slot, or a
  /// stream's drawn arrival), in draw order: route (roads with several
  /// routes only), position, speed, α, data.
  template <class Spawn>
  void draw_spawn(Spawn& spawn) VTM_REQUIRES(lane_);

  // ---- Barrier steps (every lane parked, the coordinator lane's too) ----
  // The analysis requires the coordinator's barrier capability, acquired
  // only by `run_windows()`'s barrier callback and around the serial pre-
  // and post-phase steps, where every lane is trivially idle.

  /// Move each shard's window log onto the coordinator lane's, which
  /// reduces the completions that finish before `before` in the next phase.
  void hand_off(double before) VTM_REQUIRES(barrier_, lane_);
  /// Open a flush for the coordinator lane to close: fold each shard's
  /// counter deltas since the previous flush, take its cohorts, and retire
  /// twins — a periodic flush those that exited since the previous flush
  /// (the first flush a barrier opens; a later one covers a span with no
  /// events), the final flush every live twin — returning their slots to
  /// the free list in ascending order.
  void open_flush(bool final) VTM_REQUIRES(barrier_, lane_);
  /// Admit the arrivals of the window that ends at the next barrier. A
  /// closed run's arrivals are its spawn cohort, adopted at t = 0 by the
  /// first call; a stream gives each drawn arrival a slot (popped from the
  /// free list, or grown) and its stable id, and stages it into the shard
  /// that serves it.
  void admit_arrivals() VTM_REQUIRES(barrier_, lane_);
  /// Nothing can happen before the horizon: no `mail` is in flight, no
  /// shard has an event left, and no arrival is drawn or still to come.
  [[nodiscard]] bool quiescent(std::size_t mail) const
      VTM_REQUIRES(barrier_, lane_);

  // ---- Coordinator lane (one window behind the shards) ----

  /// Reduce what the last barrier handed off, once: merge its completions,
  /// fold its exits into the open flush period, and close the flushes it
  /// opened.
  void reduce_window() VTM_REQUIRES(lane_);
  /// Merge the handed-off completions that finish before `before` into the
  /// open flush and the run totals, in global (finish time, vehicle slot)
  /// order, observing each completion's cohort and granted bandwidth into
  /// the metric histograms, then erase them. Every later completion
  /// finishes at or after the window's end, so an entry at exactly the end
  /// waits for the next reduction and the order stays the one a single
  /// merge at the flush would give. A drain round runs each shard to its own
  /// empty queue, so a later round can land a completion before an earlier
  /// round's: only the final flush reduces drain-round completions.
  /// Returns the number reduced.
  std::size_t reduce_completions(double before) VTM_REQUIRES(lane_);
  /// Sort the handed-off exits by slot and merge them into the open flush
  /// period's, which stay in slot order.
  void absorb_exits() VTM_REQUIRES(lane_);
  /// Close every opened flush, in order: the reduced sums, the records and
  /// the retired twins' summaries in slot order go to the first (a later
  /// one is empty), with the `stream.flush` trace instant.
  void close_flushes() VTM_REQUIRES(lane_);
  /// Draw every Poisson arrival at or before `upto` (and the horizon), in
  /// draw order: its spawn, then the next inter-arrival gap.
  void draw_arrivals(double upto) VTM_REQUIRES(lane_);

  /// The one window protocol behind `run()` and `run_stream()`: admit the
  /// first window, advance lockstep windows to the horizon, drain to
  /// quiescence, sweep the books, and push the final flush onto `flushes_`.
  /// Fails its contract on a second call.
  void run_windows();

  /// The validated config, its chain lowered to a path graph (`graph` is
  /// always set).
  fleet_config config_;
  /// Spawn spans, one per route, resolved from the config as given.
  std::vector<spawn_span> route_spans_;
  /// Route profiles, one per graph route (vehicle slots point into this).
  std::vector<sim::route_profile> routes_;
  double window_s_ = 0.0;
  // Stream state. `stream_` is set by the streaming ctor only; a closed run
  // admits one t = 0 cohort and emits one final flush.
  streaming_config stream_;
  bool streaming_ = false;
  bool ran_ = false;  ///< `run_windows()` has started (single-shot).

  // Barrier state.
  std::vector<std::size_t> free_slots_;  ///< Retired slots, recycled LIFO.
  std::size_t arrivals_ = 0;
  std::size_t retired_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::vector<shard_engine::counters> flushed_;  ///< Last-flush snapshots.
  std::vector<std::size_t> slot_scratch_;  ///< A window's exited slots.
  std::vector<std::uint32_t> rsu_shard_;  ///< Global RSU index -> shard.
  std::vector<vehicle_slot> vehicles_;
  /// The run's barrier capability: "all shard lanes are parked". Stateless;
  /// exists so the analysis can gate the mailbox flip, `open_flush` and the
  /// other barrier steps to barrier scopes (DESIGN.md §13).
  util::barrier_phase barrier_;
  sim::shard_mailbox<shard_message> mailbox_;

  /// The coordinator lane's capability: held by its phase function and at
  /// barriers, never by a shard lane (DESIGN.md §13).
  util::lane_role lane_;
  util::rng gen_ VTM_GUARDED_BY(lane_);
  /// Next Poisson arrival, drawn ahead.
  double next_arrival_s_ VTM_GUARDED_BY(lane_) = 0.0;
  /// Arrivals drawn for the window after the current one; the next barrier
  /// admits them.
  std::vector<vehicle_arrival> drawn_ VTM_GUARDED_BY(lane_);
  /// Per shard: the handed-off log the lane has yet to reduce. Completions
  /// at exactly a window's end stay here until the next reduction.
  std::vector<shard_engine::window_log> logs_ VTM_GUARDED_BY(lane_);
  double merge_before_ VTM_GUARDED_BY(lane_) = 0.0;
  bool handed_off_ VTM_GUARDED_BY(lane_) = false;
  /// Exits since the last periodic flush, in slot order.
  std::vector<shard_engine::exit_entry> period_exits_ VTM_GUARDED_BY(lane_);
  std::vector<shard_engine::exit_entry> exit_scratch_ VTM_GUARDED_BY(lane_);

  /// A flush the barrier opened and the coordinator lane closes: the
  /// counter deltas and cohorts (the final flush's summaries too), and the
  /// state of the `stream.flush` trace instant at the barrier.
  struct opened_flush {
    fleet_result result;
    std::size_t retired = 0;
    std::size_t live = 0;
    std::size_t arena = 0;
    std::size_t deferral_depth = 0;
    double pool_utilization = 0.0;
  };
  std::vector<opened_flush> opened_ VTM_GUARDED_BY(lane_);
  std::vector<fleet_result> flushes_ VTM_GUARDED_BY(lane_);

  /// Counts and sums over reduced completions, in reduction order.
  struct completion_sums {
    std::size_t completed = 0;
    std::size_t max_cohort = 0;
    double msp_utility = 0.0;
    double vmu_utility = 0.0;
    double aotm = 0.0;
    double amplification = 0.0;
    double price_bandwidth = 0.0;
    double bandwidth = 0.0;

    void add(const shard_engine::completion_entry& entry);
    /// Set `out`'s completion count, largest cohort, utility totals and
    /// means.
    void write(fleet_result& out) const;
  };
  completion_sums flush_sums_ VTM_GUARDED_BY(lane_);  ///< The open flush's.
  completion_sums run_sums_ VTM_GUARDED_BY(lane_);    ///< Across flushes.
  /// The open flush's records.
  std::vector<migration_record> flush_migrations_ VTM_GUARDED_BY(lane_);
  /// Reduce scratch: next entry per shard.
  std::vector<std::size_t> heads_ VTM_GUARDED_BY(lane_);

  // Telemetry sinks resolved from `config_.telemetry` (null when off) and
  // the registered histograms, which only the coordinator lane fills;
  // `coord_trace_` is the coordinator's own trace lane (index == shard
  // count), written by the barrier and by the coordinator lane. The lane
  // runs on the calling thread; the barrier runs on whichever thread
  // finished its phase last, after every lane, so the writes never overlap.
  util::metrics_registry* metrics_ = nullptr;
  util::trace_session* trace_ = nullptr;
  util::trace_lane* coord_trace_ = nullptr;
  util::metric_id cohort_histogram_ = 0;     ///< market.cohort
  util::metric_id grant_mhz_histogram_ = 0;  ///< market.grant_mhz
  std::vector<std::unique_ptr<shard_engine>> shards_;
  util::thread_pool pool_;
};

}  // namespace vtm::core
