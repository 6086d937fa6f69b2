#include "core/fleet_shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "core/aotm.hpp"
#include "sim/precopy.hpp"
#include "sim/road_graph.hpp"
#include "util/contracts.hpp"
#include "util/units.hpp"
#include "wireless/link.hpp"

namespace vtm::core {

namespace {

/// Lower a validated chain config to its path graph, so the engine runs one
/// geometry: a uniform chain becomes `road_graph::path(n, s, r)`, explicit
/// centres the path with one edge per gap. A graph config is returned as
/// given.
fleet_config lowered(fleet_config config) {
  if (config.graph) return config;
  config.graph = std::make_shared<const sim::road_graph>(
      config.rsu_positions_m.empty()
          ? sim::road_graph::path(config.rsu_count,
                                  config.rsu_spacing_m.value(),
                                  config.coverage_radius_m.value())
          : sim::road_graph::path(config.rsu_positions_m,
                                  config.coverage_radius_m));
  return config;
}

/// The spawn span of every route (the rule `fleet_config::spawn_min_m`
/// documents), read from the config as given: the chain fields (one route)
/// or the user's graph. Fails its contract on a floor at or past a route's
/// end or an empty window; NaN bounds are the validator's to reject. The
/// validator and the coordinator both call it, so a validated config spawns.
std::vector<spawn_span> resolve_spawn_spans(const fleet_config& config) {
  const bool fixed_lo = config.spawn_min_m >= util::meters{0.0};
  const bool fixed_hi = config.spawn_max_m >= util::meters{0.0};
  const auto resolve = [&](spawn_span automatic, double length_m) {
    spawn_span span;
    span.lo_m = fixed_lo ? config.spawn_min_m.value() : automatic.lo_m;
    if (fixed_lo) VTM_EXPECTS(span.lo_m < length_m);
    span.hi_m = fixed_hi ? std::min(config.spawn_max_m.value(), length_m)
                         : std::max(span.lo_m, automatic.hi_m);
    VTM_EXPECTS(span.hi_m >= span.lo_m);
    return span;
  };
  std::vector<spawn_span> spans;
  if (config.graph) {
    const auto& graph = *config.graph;
    spans.reserve(graph.route_count());
    for (std::size_t r = 0; r < graph.route_count(); ++r) {
      const double length = graph.route(r).length_m;
      spans.push_back(resolve({0.0, length}, length));
    }
  } else if (config.rsu_positions_m.empty()) {
    const double spacing = config.rsu_spacing_m.value();
    const auto n = static_cast<double>(config.rsu_count);
    spans.push_back(resolve({0.5 * spacing, (n - 0.5) * spacing},
                            spacing * n));
  } else {
    const auto& c = config.rsu_positions_m;
    const double first = c.front().value();
    const double last = c.back().value();
    const double first_gap = c.size() > 1
                                 ? c[1].value() - first
                                 : 2.0 * config.coverage_radius_m.value();
    const double last_gap = c.size() > 1 ? last - c[c.size() - 2].value()
                                         : 0.0;
    spans.push_back(
        resolve({first - 0.5 * first_gap, last - 0.5 * last_gap}, last));
  }
  return spans;
}

/// Conservative window: a vehicle entering a shard's first cell must
/// traverse at least the narrowest inter-boundary cell before it can cross
/// into the next shard, so half that travel time at the worst-case speed
/// (max base speed × max edge factor) leaves margin for crossings announced
/// late (a migration resolving near the boundary). The window snaps down to
/// a clearing-epoch multiple so epoch-grid clearings — and the requests they
/// re-home across shards — land exactly on barriers.
double auto_window_s(const fleet_config& config) {
  const auto& graph = *config.graph;
  const double min_cell_m = graph.min_boundary_gap_m();
  if (!std::isfinite(min_cell_m))
    return config.duration_s.value();  // <= 1 boundary
  double window = 0.5 * min_cell_m /
                  (config.max_speed_mps.value() * graph.max_speed_factor());
  const double epoch_s = config.clearing_epoch_s.value();
  if (epoch_s > 0.0)
    window = epoch_s * std::max(1.0, std::floor(window / epoch_s));
  return std::clamp(window, 1e-3, config.duration_s.value());
}

/// Narrow an engine index into a 32-bit event, slab, or ledger field.
std::uint32_t narrow_index(std::size_t index) {
  VTM_ASSERT(index <= std::numeric_limits<std::uint32_t>::max());
  return static_cast<std::uint32_t>(index);
}

/// The streaming run's base config: the horizon is the handover admission
/// deadline, and the closed-population `vehicle_count` is ignored (floored
/// to satisfy the base validation).
fleet_config resolved_base(const streaming_config& config) {
  fleet_config base = config.base;
  base.duration_s = config.horizon_s;
  if (base.vehicle_count == 0) base.vehicle_count = 1;
  return base;
}

/// Validate a streaming config, then resolve its base (streaming ctor).
fleet_config streaming_base(const streaming_config& config) {
  validate_streaming_config(config);
  return resolved_base(config);
}

/// Fold `now - since` into `out`, field by field: the one list of counter
/// fields, shared by each flush's per-window delta and a stream's run
/// totals (`since` = {}). An empty `since` vector reads as zeros, and
/// `x - 0.0 == x`, so a fold from {} is the cumulative value bitwise.
void fold_counters(fleet_result& out, const shard_engine::counters& now,
                   const shard_engine::counters& since) {
  out.handovers += now.handovers - since.handovers;
  out.deferred += now.deferred - since.deferred;
  out.priced_out += now.priced_out - since.priced_out;
  out.abandoned += now.abandoned - since.abandoned;
  out.clearings += now.clearings - since.clearings;
  out.cross_shard_transfers +=
      now.cross_shard_transfers - since.cross_shard_transfers;
  out.cross_shard_retargets +=
      now.cross_shard_retargets - since.cross_shard_retargets;
  out.late_handoffs += now.late_handoffs - since.late_handoffs;
  out.unconverged_clearings +=
      now.unconverged_clearings - since.unconverged_clearings;
  out.solver_sweeps += now.solver_sweeps - since.solver_sweeps;
  out.objective_evals += now.objective_evals - since.objective_evals;
  out.warm_started_clearings +=
      now.warm_started_clearings - since.warm_started_clearings;
  const auto fold = [](std::vector<double>& to, const std::vector<double>& at,
                       const std::vector<double>& from) {
    to.resize(at.size());
    for (std::size_t m = 0; m < at.size(); ++m)
      to[m] += at[m] - (from.empty() ? 0.0 : from[m]);
  };
  fold(out.msp_utilities, now.msp_utility, since.msp_utility);
  fold(out.msp_sold_mhz, now.msp_sold_mhz, since.msp_sold_mhz);
}

/// Move `from`'s entries onto the back of `into`, leaving `from` empty. An
/// empty `into` trades buffers with `from`, so both keep their capacity.
template <class T>
void move_onto(std::vector<T>& into, std::vector<T>& from) {
  if (into.empty())
    into.swap(from);
  else
    into.insert(into.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
  from.clear();
}

}  // namespace

double epoch_grid_snap(double now_s, double epoch_s) {
  if (epoch_s <= 0.0) return now_s;
  const double r = now_s / epoch_s;
  // Absolute 1e-9 preserves the historic snap for short horizons; the
  // ulp-scaled term takes over once 1e-9 falls below the grid coordinate's
  // own rounding noise (r above ~2^20), where a time landing one ulp past a
  // boundary must still count as *on* it.
  const double tolerance =
      std::max(1e-9, 8.0 * std::numeric_limits<double>::epsilon() * r);
  return std::max(now_s, epoch_s * std::ceil(r - tolerance));
}

void validate_fleet_config(const fleet_config& config) {
  VTM_EXPECTS(config.vehicle_count >= 1);
  // Every bound, capacity, price and migration or channel parameter below
  // must be finite: an infinite α, speed or pool passes the ordering checks
  // and then poisons the clearing in the middle of the run (the in-place
  // clearing re-checks no cohort), and a NaN fails a precondition deep in
  // the first migration. A finite upper bound also makes its lower bound
  // finite.
  VTM_EXPECTS(std::isfinite(config.duration_s.value()) &&
              config.duration_s > util::seconds{0.0});
  VTM_EXPECTS(std::isfinite(config.rsu_spacing_m.value()) &&
              config.rsu_spacing_m > util::meters{0.0});
  VTM_EXPECTS(std::isfinite(config.coverage_radius_m.value()) &&
              config.coverage_radius_m > util::meters{0.0});
  // Speeds must be strictly positive: each pool prices its *upstream* RSU
  // gap, so backward traffic (which `rsu_chain::next_handover` itself can
  // model) would clear over the wrong link. Rejected by design; see the
  // (from, to)-gap handling in `shard_engine::start_migration` for how
  // non-adjacent forward hops are priced.
  VTM_EXPECTS(config.min_speed_mps > util::mps{0.0});
  VTM_EXPECTS(std::isfinite(config.max_speed_mps.value()) &&
              config.max_speed_mps >= config.min_speed_mps);
  VTM_EXPECTS(config.min_data_mb > util::megabytes{0.0});
  VTM_EXPECTS(std::isfinite(config.max_data_mb.value()) &&
              config.max_data_mb >= config.min_data_mb);
  VTM_EXPECTS(config.min_alpha > 0.0);
  VTM_EXPECTS(std::isfinite(config.max_alpha) &&
              config.max_alpha >= config.min_alpha);
  VTM_EXPECTS(std::isfinite(config.bandwidth_per_pool_mhz.value()) &&
              config.bandwidth_per_pool_mhz > util::megahertz{0.0});
  VTM_EXPECTS(config.unit_cost > 0.0);
  VTM_EXPECTS(std::isfinite(config.price_cap) &&
              config.price_cap >= config.unit_cost);
  // An infinite epoch snaps every clearing to the handover instant, which
  // is epoch 0 under another name.
  VTM_EXPECTS(std::isfinite(config.clearing_epoch_s.value()) &&
              config.clearing_epoch_s >= util::seconds{0.0});
  // An infinite clearable minimum abandons every handover.
  VTM_EXPECTS(std::isfinite(config.min_clearable_mhz.value()) &&
              config.min_clearable_mhz > util::megahertz{0.0});
  // Pre-copy: a twin dirties at a finite, non-negative rate in pages of a
  // positive size, and stops copying below a positive remainder.
  VTM_EXPECTS(std::isfinite(config.dirty_rate_mb_s.value()) &&
              config.dirty_rate_mb_s >= util::mb_per_s{0.0});
  VTM_EXPECTS(std::isfinite(config.page_mb.value()) &&
              config.page_mb > util::megabytes{0.0});
  VTM_EXPECTS(std::isfinite(config.stop_copy_threshold_mb.value()) &&
              config.stop_copy_threshold_mb > util::megabytes{0.0});
  // The migration channel; every pool overrides its distance. Its linear
  // form must not overflow or underflow: an infinite transmit power makes
  // the SNR infinite (AoTM 0), and a noise power that rounds to 0 W divides
  // by zero, both at the first migration.
  VTM_EXPECTS(std::isfinite(util::to_watts(config.link.tx_power_dbm).value()));
  const double unit_gain = util::to_linear(config.link.unit_gain_db);
  VTM_EXPECTS(std::isfinite(unit_gain) && unit_gain > 0.0);
  VTM_EXPECTS(std::isfinite(config.link.path_loss_exponent) &&
              config.link.path_loss_exponent >= 0.0);
  const double noise_w = util::to_watts(config.link.noise_power_dbm).value();
  VTM_EXPECTS(std::isfinite(noise_w) && noise_w > 0.0);
  // Geometry, read from the config as given: the chain fields or the
  // user's graph. `shortest_link_m` is the shortest link a pool prices (the
  // smallest upstream gap) and `longest_hop_m` the longest hop a drifted
  // request can take (the widest first-to-last site span over the routes).
  std::size_t rsu_count = 0;
  double shortest_link_m = std::numeric_limits<double>::infinity();
  double longest_hop_m = 0.0;
  if (config.graph) {
    // The RSUs are the graph's sites, so explicit chain centres would be
    // dead config.
    const auto& graph = *config.graph;
    VTM_EXPECTS(config.rsu_positions_m.empty());
    rsu_count = graph.rsu_count();
    for (std::size_t s = 0; s < rsu_count; ++s)
      shortest_link_m = std::min(shortest_link_m, graph.upstream_gap_m(s));
    for (std::size_t r = 0; r < graph.route_count(); ++r) {
      const auto& sites = graph.route(r).site_pos_m;
      longest_hop_m = std::max(longest_hop_m, sites.back() - sites.front());
    }
    // The sellers' offset chains shift the road's one route, so oligopoly
    // needs a single route through every site, as a chain has.
    if (config.mode == market_mode::oligopoly)
      VTM_EXPECTS(graph.route_count() == 1 &&
                  graph.route(0).sites.size() == rsu_count);
  } else if (config.rsu_positions_m.empty()) {
    // The chain's own construction contract (`sim::rsu_chain`), which the
    // path graph's route profile inherits: cells cover the road without
    // gaps. A radius below that would be silently inflated per route.
    VTM_EXPECTS(config.rsu_count >= 1);
    VTM_EXPECTS(config.coverage_radius_m.value() >=
                config.rsu_spacing_m.value() / 2.0);
    rsu_count = config.rsu_count;
    shortest_link_m = config.rsu_spacing_m.value();
    longest_hop_m = config.rsu_spacing_m.value() *
                    static_cast<double>(rsu_count - 1);
  } else {
    // Explicit centres run strictly forward from a positive first centre
    // (the path graph's first edge runs from 0 m to it), and cells cover
    // the road without gaps.
    const auto& centres = config.rsu_positions_m;
    rsu_count = centres.size();
    VTM_EXPECTS(std::isfinite(centres.front().value()) &&
                centres.front().value() > 0.0);
    double widest_gap_m = 0.0;
    for (std::size_t i = 1; i < rsu_count; ++i) {
      const double gap = centres[i].value() - centres[i - 1].value();
      VTM_EXPECTS(std::isfinite(centres[i].value()) && gap > 0.0);
      widest_gap_m = std::max(widest_gap_m, gap);
      shortest_link_m = std::min(shortest_link_m, gap);
    }
    VTM_EXPECTS(config.coverage_radius_m.value() >= widest_gap_m / 2.0);
    longest_hop_m = centres.back().value() - centres.front().value();
  }
  // The channel at the extremes of the geometry: the SNR falls with
  // distance, so a finite, positive spectral efficiency at both ends holds
  // on every link the run migrates over. A product that overflows (AoTM 0)
  // or rounds log2(1 + SNR) to 0 would otherwise fail mid-run. A road with
  // one RSU never migrates.
  if (rsu_count > 1) {
    for (const double distance_m :
         {shortest_link_m, std::max(shortest_link_m, longest_hop_m)}) {
      wireless::link_params link = config.link;
      link.distance_m = util::meters{distance_m};
      const double efficiency =
          wireless::link_budget(link).spectral_efficiency();
      VTM_EXPECTS(std::isfinite(efficiency) && efficiency > 0.0);
    }
  }
  // A NaN spawn bound would silently read as the "< 0 means auto"
  // sentinel, and an explicit ceiling is a finite distance. The window
  // itself is checked against every route by the one spawn resolver the
  // coordinator also calls.
  VTM_EXPECTS(!std::isnan(config.spawn_min_m.value()) &&
              !std::isnan(config.spawn_max_m.value()));
  if (config.spawn_max_m >= util::meters{0.0})
    VTM_EXPECTS(std::isfinite(config.spawn_max_m.value()));
  (void)resolve_spawn_spans(config);
  VTM_EXPECTS(config.shard_count >= 1);
  VTM_EXPECTS(config.shard_count <= rsu_count);

  // Oligopoly roster (market_mode::oligopoly only; a roster in any other
  // mode is a misconfiguration, not something to silently ignore).
  if (config.mode != market_mode::oligopoly) {
    VTM_EXPECTS(config.msps.empty());
    return;
  }
  VTM_EXPECTS(std::isfinite(config.share_sharpness) &&
              config.share_sharpness > 0.0);
  // One seller is the monopoly, which joint mode clears.
  VTM_EXPECTS(config.msps.size() >= 2);
  for (const auto& msp : config.msps) {
    VTM_EXPECTS(std::isfinite(msp.chain_offset_m.value()));
    VTM_EXPECTS(msp.unit_cost > 0.0);
    VTM_EXPECTS(std::isfinite(msp.price_cap) &&
                msp.price_cap >= msp.unit_cost);
    VTM_EXPECTS(std::isfinite(msp.bandwidth_per_pool_mhz.value()) &&
                msp.bandwidth_per_pool_mhz > util::megahertz{0.0});
  }
  // The best-response solve prices every oligopoly clearing, so a pricer
  // would be dead config.
  VTM_EXPECTS(config.pricer == nullptr);
}

void validate_streaming_config(const streaming_config& config) {
  VTM_EXPECTS(std::isfinite(config.arrival_rate_per_s.value()) &&
              config.arrival_rate_per_s > util::per_second{0.0});
  VTM_EXPECTS(std::isfinite(config.horizon_s.value()) &&
              config.horizon_s > util::seconds{0.0});
  VTM_EXPECTS(std::isfinite(config.flush_period_s.value()) &&
              config.flush_period_s > util::seconds{0.0});
  // The competitive roster's warm-started books assume a closed population;
  // streaming stays on the spot-market paths.
  VTM_EXPECTS(config.base.mode != market_mode::oligopoly);
  validate_fleet_config(resolved_base(config));
}

// ---- shard_engine -----------------------------------------------------------

shard_engine::shard_engine(const fleet_config& config,
                           std::span<const std::size_t> candidates,
                           std::size_t index, std::size_t rsu_lo,
                           std::size_t rsu_count,
                           std::span<const std::uint32_t> rsu_shard,
                           std::vector<vehicle_slot>& vehicles,
                           sim::shard_mailbox<shard_message>& mailbox,
                           util::trace_lane* trace)
    : config_(config),
      graph_(config.graph.get()),
      index_(index),
      rsu_lo_(rsu_lo),
      rsu_shard_(rsu_shard),
      vehicles_(vehicles),
      mailbox_(mailbox),
      epoch_s_(config.clearing_epoch_s.value()),
      trace_(trace) {
  VTM_EXPECTS(graph_ != nullptr);
  VTM_EXPECTS(rsu_count >= 1);
  VTM_EXPECTS(rsu_lo + rsu_count <= graph_->rsu_count());
  VTM_EXPECTS(candidates.size() == rsu_count * config.msps.size());

  if (oligopoly()) {
    // One pool per (MSP, local RSU) plus one competitive book per cell; the
    // candidate table maps each cell to the pool slot each MSP serves it
    // from (its own chain's serving RSU — validated by the coordinator to
    // stay inside this shard).
    const auto& msps = config.msps;
    counters_.msp_utility.assign(msps.size(), 0.0);
    counters_.msp_sold_mhz.assign(msps.size(), 0.0);
    msp_pools_.resize(msps.size());
    msp_available_.resize(msps.size());
    for (std::size_t m = 0; m < msps.size(); ++m) {
      msp_pools_[m].reserve(rsu_count);
      for (std::size_t p = 0; p < rsu_count; ++p)
        msp_pools_[m].emplace_back(msps[m].bandwidth_per_pool_mhz);
    }
    competitive_market_config book_config;
    book_config.msps = msps;
    book_config.share_sharpness = config.share_sharpness;
    book_config.min_clearable_mhz = config.min_clearable_mhz;
    book_config.trace = trace_;
    comarkets_.reserve(rsu_count);
    candidates_.reserve(rsu_count);
    sharers_.resize(msps.size() * rsu_count);
    pool_links_.reserve(rsu_count);
    budgets_.reserve(rsu_count);
    for (std::size_t p = 0; p < rsu_count; ++p) {
      const wireless::link_params link =
          link_for(graph_->upstream_gap_m(rsu_lo + p));
      pool_links_.push_back(link);
      budgets_.emplace_back(link);
      book_config.link = link;
      comarkets_.emplace_back(book_config);
      auto& slots = candidates_.emplace_back();
      for (const std::size_t serving :
           candidates.subspan(p * msps.size(), msps.size())) {
        VTM_ASSERT(serving >= rsu_lo_ && serving < rsu_lo_ + rsu_count);
        slots.push_back(serving - rsu_lo_);
      }
      for (std::size_t m = 0; m < msps.size(); ++m)
        sharers_[m * rsu_count + slots[m]].push_back(p);
    }
    clearing_scheduled_.assign(rsu_count, false);
    return;
  }

  spot_market_config market_config;
  market_config.unit_cost = config.unit_cost;
  market_config.price_cap = config.price_cap;
  market_config.min_clearable_mhz = config.min_clearable_mhz;
  market_config.pool_capacity_mhz = config.bandwidth_per_pool_mhz;
  // Copied into every pool's book below (one learned pricer serves the
  // whole road; null selects the analytic oracle per book).
  market_config.pricer = config.pricer;
  market_config.trace = trace_;

  pools_.reserve(rsu_count);
  markets_.reserve(rsu_count);
  pool_links_.reserve(rsu_count);
  budgets_.reserve(rsu_count);
  for (std::size_t p = 0; p < rsu_count; ++p) {
    const wireless::link_params link =
        link_for(graph_->upstream_gap_m(rsu_lo + p));
    pool_links_.push_back(link);
    budgets_.emplace_back(link);
    market_config.link = link;
    pools_.emplace_back(config.bandwidth_per_pool_mhz);
    markets_.emplace_back(market_config);
  }
  clearing_scheduled_.assign(rsu_count, false);
}

std::size_t shard_engine::pool_index(std::size_t rsu) const noexcept {
  return rsu - rsu_lo_;
}

spot_market& shard_engine::market_at(std::size_t rsu) {
  const std::size_t pidx = pool_index(rsu);
  VTM_EXPECTS(pidx < markets_.size());
  return markets_[pidx];
}

std::vector<clearing_request>& shard_engine::book_of(std::size_t pidx) {
  return oligopoly() ? comarkets_[pidx].pending_requests()
                     : markets_[pidx].pending_requests();
}

void shard_engine::submit_request(std::size_t pidx,
                                  clearing_request request) {
  if (oligopoly()) {
    VTM_ASSERT(pidx < comarkets_.size());
    comarkets_[pidx].submit(std::move(request));
  } else {
    VTM_ASSERT(pidx < markets_.size());
    markets_[pidx].submit(std::move(request));
  }
}

wireless::link_params shard_engine::link_for(double distance_m) const {
  wireless::link_params link = config_.link;
  link.distance_m = util::meters{distance_m};
  return link;
}

/// Bring a vehicle's kinematics forward to the current simulation time.
void shard_engine::sync_position(std::size_t vehicle) {
  auto& slot = vehicles_[vehicle];
  const double dt = queue_.now() - slot.position_at;
  if (dt > 0.0) {
    slot.kinematics = slot.route->advance(slot.kinematics, dt);
    slot.position_at = queue_.now();
  }
}

void shard_engine::adopt(std::size_t vehicle) {
  schedule_next_handover(vehicle);
}

void shard_engine::stage(const vehicle_arrival& arrival,
                         [[maybe_unused]] const util::barrier_phase& barrier) {
  staged_.push_back(arrival);
}

void shard_engine::dispatch(const fleet_event& event) {
  switch (event.what) {
    case fleet_event::kind::arrival:
      schedule_next_handover(event.subject);
      return;
    case fleet_event::kind::handover:
      sync_position(event.subject);
      on_handover(event.subject, event.from_rsu, event.to_rsu);
      return;
    case fleet_event::kind::clearing:
      run_clearing(event.subject);
      return;
    case fleet_event::kind::completion:
      finish_migration(event.subject);
      return;
  }
}

void shard_engine::schedule_next_handover(std::size_t vehicle) {
  sync_position(vehicle);
  auto& slot = vehicles_[vehicle];
  const auto next = slot.route->next_handover(slot.kinematics);
  // Both decline branches leave the vehicle with no scheduled event, no
  // booked request, and no in-flight migration — nothing will ever touch
  // this twin again, so streaming runs may retire it at the next flush.
  if (!next) {  // cruising past the end of its route
    exit_vehicle(vehicle);
    return;
  }
  const double when = queue_.now() + next->after_s;
  if (when > config_.duration_s.value()) {
    exit_vehicle(vehicle);
    return;
  }
  const std::size_t dest = rsu_shard_[next->to_rsu];
  if (dest != index_) {
    // The crossing lands in another shard: hand the vehicle over now, at
    // scheduling time, so the destination (which owns the target pool) can
    // execute the handover at the exact kinematic crossing time.
    ++counters_.cross_shard_transfers;
    mailbox_.post(index_, dest,
                  boundary_handoff{vehicle, next->from_rsu, next->to_rsu,
                                   mail_time(when)});
    return;
  }
  queue_.schedule(when, {fleet_event::kind::handover, narrow_index(vehicle),
                         narrow_index(next->from_rsu),
                         narrow_index(next->to_rsu)});
}

void shard_engine::exit_vehicle(std::size_t vehicle) {
  if (!log_exits_) return;
  // The slot stays as it is until a flush retires it, so its state now is
  // the state the flush reports.
  const auto& slot = vehicles_[vehicle];
  auto& exit = log_.exits.emplace_back();
  exit.slot = vehicle;
  exit.summary.id = slot.id;
  exit.summary.host_rsu = slot.twin->host_rsu();
  exit.summary.migrations = slot.twin->migration_count();
  exit.summary.position_m = slot.kinematics.position_m;
  exit.summary.shard = index_;
}

void shard_engine::on_handover(std::size_t vehicle, std::size_t from,
                               std::size_t to) {
  ++counters_.handovers;
  clearing_request request;
  request.vehicle = vehicle;
  request.profile = vehicles_[vehicle].profile;
  request.from_rsu = from;
  request.to_rsu = to;
  request.submitted_s = queue_.now();
  const std::size_t pidx = pool_index(to);
  submit_request(pidx, std::move(request));
  schedule_clearing(pidx, epoch_grid_snap(queue_.now(), epoch_s_));
}

void shard_engine::schedule_clearing(std::size_t pidx, double at) {
  if (clearing_scheduled_[pidx]) return;
  clearing_scheduled_[pidx] = true;
  queue_.schedule(at, {fleet_event::kind::clearing, narrow_index(pidx)});
}

void shard_engine::run_clearing(std::size_t pidx) {
  clearing_scheduled_[pidx] = false;

  // Retarget deferred requests before pricing: a vehicle may have crossed
  // further boundaries while waiting, so its destination (and therefore its
  // pool — possibly in another shard) is recomputed from the *current*
  // position, and the source from where the twin actually sits. Requests
  // submitted at this very instant keep the handover's own from/to:
  // recomputing them would trust a position that can sit one ulp shy of the
  // cell midpoint and bounce the destination back into the source cell.
  auto& book = book_of(pidx);
  std::size_t keep = 0;  // FIFO-preserving compaction of kept requests
  for (std::size_t i = 0; i < book.size(); ++i) {
    auto& request = book[i];
    bool stays = true;
    if (request.submitted_s < queue_.now()) {
      sync_position(request.vehicle);
      const auto& slot = vehicles_[request.vehicle];
      request.from_rsu = slot.twin->host_rsu();
      request.to_rsu = slot.route->serving_rsu(slot.kinematics.position_m);
      const std::size_t dest = rsu_shard_[request.to_rsu];
      if (dest != index_) {
        // The vehicle drifted out of this shard's RSU range while deferred:
        // the request (and the vehicle with it) re-homes across the next
        // barrier, at this clearing's grid time.
        ++counters_.cross_shard_retargets;
        mailbox_.post(index_, dest,
                      retarget_handoff{std::move(request),
                                       mail_time(epoch_grid_snap(
                                           queue_.now(), epoch_s_))});
        stays = false;
      } else {
        const std::size_t target = pool_index(request.to_rsu);
        if (target != pidx) {
          submit_request(target, std::move(request));
          schedule_clearing(target, epoch_grid_snap(queue_.now(), epoch_s_));
          stays = false;
        }
      }
    }
    if (stays) {
      if (keep != i) book[keep] = std::move(request);
      ++keep;
    }
  }
  book.resize(keep);

  if (oligopoly()) {
    run_clearing_oligopoly(pidx);
    return;
  }

  // The pool tolerates epsilon overshoot at the capacity boundary, so the
  // remainder can read a hair below zero.
  const double available = std::max(0.0, pools_[pidx].available_mhz());
  if (config_.record_cohorts && !book.empty() &&
      available >= config_.min_clearable_mhz.value()) {
    // Harvest the clearing cohort as training data for the learned pricer:
    // full profiles (the oracle label needs them) + the pool state the
    // partial-information observation summarizes.
    cohort_snapshot snapshot;
    snapshot.profiles.reserve(book.size());
    for (const auto& request : book)
      snapshot.profiles.push_back(request.profile);
    snapshot.available_mhz = available;
    snapshot.capacity_mhz = config_.bandwidth_per_pool_mhz.value();
    snapshot.link = pool_links_[pidx];
    snapshot.unit_cost = config_.unit_cost;
    snapshot.price_cap = config_.price_cap;
    cohorts_.push_back(std::move(snapshot));
  }
  const auto& outcome = markets_[pidx].clear(available);
  counters_.deferred += outcome.deferred;
  if (outcome.markets_cleared > 0) ++counters_.clearings;

  for (const auto& request : outcome.priced_out) {
    // Price too high for this VMU: the twin stays behind (service
    // degrades); the handover completes without migration.
    ++counters_.priced_out;
    vehicles_[request.vehicle].twin->set_host_rsu(request.to_rsu);
    schedule_next_handover(request.vehicle);
  }
  for (const auto& grant : outcome.grants) start_migration(pidx, grant);

  if (outcome.deferred > 0) {
    if (pools_[pidx].active_grants() > 0) {
      // Capacity is in flight; the next completion re-clears this book.
      return;
    }
    // Nothing will ever release capacity (the pool itself is smaller than
    // the clearable minimum): drop the requests instead of spinning.
    for (const auto& request : markets_[pidx].abandon_pending()) {
      resolve_abandoned(request);
      schedule_next_handover(request.vehicle);
    }
  }
}

void shard_engine::resolve_abandoned(const clearing_request& request) {
  ++counters_.abandoned;
  // Same twin bookkeeping as a priced-out handover: the twin is re-homed to
  // the request's destination without a migration (service degrades). Both
  // the in-run abandon path and the final drain sweep come through here.
  vehicles_[request.vehicle].twin->set_host_rsu(request.to_rsu);
}

void shard_engine::run_clearing_oligopoly(std::size_t pidx) {
  // Each MSP's offer is the remainder of the pool *its* chain serves this
  // cell from; pools tolerate epsilon overshoot at the capacity boundary,
  // so a remainder can read a hair below zero.
  for (std::size_t m = 0; m < msp_pools_.size(); ++m)
    msp_available_[m] =
        std::max(0.0, msp_pools_[m][candidates_[pidx][m]].available_mhz());

  const auto& outcome = comarkets_[pidx].clear(msp_available_);
  counters_.deferred += outcome.deferred;
  if (outcome.markets_cleared > 0) ++counters_.clearings;
  if (!outcome.converged) ++counters_.unconverged_clearings;
  counters_.solver_sweeps += outcome.solver_sweeps;
  counters_.objective_evals += outcome.objective_evals;
  if (outcome.warm_started) ++counters_.warm_started_clearings;

  for (const auto& request : outcome.priced_out) {
    ++counters_.priced_out;
    vehicles_[request.vehicle].twin->set_host_rsu(request.to_rsu);
    schedule_next_handover(request.vehicle);
  }
  for (const auto& grant : outcome.grants) start_migration(pidx, grant);

  if (outcome.deferred > 0) {
    // Deferred requests wait for capacity on any of this cell's candidate
    // pools; if none has a grant in flight, nothing will ever release.
    bool in_flight = false;
    for (std::size_t m = 0; m < msp_pools_.size() && !in_flight; ++m)
      in_flight = msp_pools_[m][candidates_[pidx][m]].active_grants() > 0;
    if (in_flight) return;
    for (const auto& request : comarkets_[pidx].abandon_pending()) {
      resolve_abandoned(request);
      schedule_next_handover(request.vehicle);
    }
  }
}

void shard_engine::start_migration(std::size_t pidx,
                                   const clearing_grant& grant) {
  const auto handle = pools_[pidx].allocate(grant.bandwidth_mhz);
  VTM_ASSERT(handle.has_value());
  const std::uint32_t flight = acquire_flight(pidx);
  flights_[flight].grant_ids.push_back(*handle);
  launch_migration(flight, grant.request, grant.price, grant.bandwidth_mhz,
                   grant.vmu_utility, grant.msp_utility, grant.cohort);
}

void shard_engine::start_migration(std::size_t pidx,
                                   const competitive_grant& grant) {
  // One physical grant per seller slice: the sellers' subchannels are
  // orthogonal within each pool, and every slice must release back to the
  // pool it came from.
  const std::uint32_t flight = acquire_flight(pidx);
  auto& pending = flights_[flight];
  pending.slices.assign(grant.slices.begin(), grant.slices.end());
  for (const auto& slice : grant.slices) {
    const auto handle = msp_pools_[slice.msp][candidates_[pidx][slice.msp]]
                            .allocate(slice.bandwidth_mhz);
    VTM_ASSERT(handle.has_value());
    pending.grant_ids.push_back(*handle);
  }
  launch_migration(flight, grant.request, grant.price, grant.bandwidth_mhz,
                   grant.vmu_utility, grant.msp_utility, grant.cohort);
}

std::uint32_t shard_engine::acquire_flight(std::size_t pidx) {
  if (free_flights_.empty()) {
    free_flights_.push_back(narrow_index(flights_.size()));
    flights_.emplace_back();
  }
  const std::uint32_t flight = free_flights_.back();
  free_flights_.pop_back();
  auto& pending = flights_[flight];
  pending.pidx = pidx;
  pending.slices.clear();
  pending.grant_ids.clear();
  return flight;
}

void shard_engine::launch_migration(std::uint32_t flight,
                                    const clearing_request& request,
                                    double price, double bandwidth_mhz,
                                    double vmu_utility, double msp_utility,
                                    std::size_t cohort) {
  auto& slot = vehicles_[request.vehicle];
  auto& pending = flights_[flight];
  const std::size_t pidx = pending.pidx;

  // Pre-copy migration over the granted bandwidth (normalized MB/s rate:
  // MHz × spectral efficiency, matching the paper's unit convention).
  sim::precopy_params precopy;
  precopy.dirty_rate_mb_s = config_.dirty_rate_mb_s;
  precopy.stop_copy_threshold_mb = config_.stop_copy_threshold_mb;

  // The pool budget prices the destination's upstream gap, which is the
  // link a forward handover actually migrates over. A request that drifted
  // while deferred can arrive from further back: its twin moves over the
  // true graph distance from its host's site, so a hop that differs from
  // the pool's link rebuilds the transfer rate and closed-form AoTM over it.
  // Same-site re-homes keep the pool budget. The *price* stays the posted
  // cohort price — the market clears one link per cell.
  const wireless::link_budget* budget = &budgets_[pidx];
  std::optional<wireless::link_budget> actual;
  if (request.to_rsu != request.from_rsu) {
    const double gap =
        graph_->site_distance_m(request.from_rsu, request.to_rsu);
    if (gap != pool_links_[pidx].distance_m.value()) {
      VTM_ASSERT(std::isfinite(gap));
      actual.emplace(link_for(gap));
      budget = &*actual;
    }
  }
  const double rate_mb_s = bandwidth_mhz * budget->spectral_efficiency();
  const auto report = sim::run_precopy(*slot.twin, rate_mb_s, precopy);

  migration_record& record = pending.record;
  record = {};
  record.start_s = queue_.now();
  record.requested_s = request.submitted_s;
  record.vehicle = request.vehicle;
  record.from_rsu = request.from_rsu;
  record.to_rsu = request.to_rsu;
  record.price = price;
  record.bandwidth_mhz = bandwidth_mhz;
  record.cohort = cohort;
  record.sellers = pending.slices.empty() ? 1 : pending.slices.size();
  record.aotm_closed_form =
      aotm_closed_form(slot.twin->total_mb(), bandwidth_mhz, *budget);
  record.aotm_simulated = aotm_from_migration(report);
  record.downtime_s = report.downtime_s;
  record.data_sent_mb = report.total_sent_mb;
  record.vmu_utility = vmu_utility;
  record.msp_utility = msp_utility;
  record.precopy_converged = report.converged;

  queue_.schedule_in(report.total_time_s,
                     {fleet_event::kind::completion, flight});
}

void shard_engine::finish_migration(std::uint32_t flight) {
  const auto& pending = flights_[flight];
  const std::size_t pidx = pending.pidx;
  const auto& slices = pending.slices;
  const auto& grant_ids = pending.grant_ids;
  const migration_record& record = pending.record;
  if (slices.empty()) {
    pools_[pidx].release(grant_ids.front());
  } else {
    for (std::size_t s = 0; s < slices.size(); ++s) {
      msp_pools_[slices[s].msp][candidates_[pidx][slices[s].msp]].release(
          grant_ids[s]);
      // Per-seller realized accounting, accrued at completion like the
      // scalar totals. Accrues the utility rounded at clearing time —
      // recomputing (price − cost)·bandwidth here is an FMA under
      // -march=native and drifts ulps from the ledger reduction.
      counters_.msp_utility[slices[s].msp] += slices[s].utility;
      counters_.msp_sold_mhz[slices[s].msp] += slices[s].bandwidth_mhz;
    }
  }
  auto& slot = vehicles_[record.vehicle];
  slot.twin->set_host_rsu(record.to_rsu);
  slot.twin->record_migration();

  // Completion-based accounting: every completion lands one ledger entry
  // (and one record when recording), and the coordinator reduces the merged
  // ledger in global finish-time order, so totals == Σ over `migrations`
  // and sharded aggregates reproduce the serial summation order. The entry
  // keys ties by slot; the record carries the stable id, since the
  // coordinator lane reduces it a window later, when the slot may already
  // hold another vehicle.
  completion_entry entry;
  entry.finish_s = queue_.now();
  entry.vehicle = narrow_index(record.vehicle);
  entry.cohort = narrow_index(record.cohort);
  entry.msp_utility = record.msp_utility;
  entry.vmu_utility = record.vmu_utility;
  entry.aotm = record.aotm_simulated;
  entry.amplification =
      record.data_sent_mb / std::max(1e-9, slot.twin->total_mb());
  entry.price_bandwidth = record.price * record.bandwidth_mhz;
  entry.bandwidth = record.bandwidth_mhz;
  log_.ledger.push_back(entry);
  if (config_.record_migrations) {
    migration_record finished = record;
    finished.finish_s = queue_.now();
    finished.vehicle = slot.id;
    log_.records.push_back(std::move(finished));
  }

  // Neither the handover schedule nor a clearing schedule touches the slab,
  // so `pending` stays valid until the slot is recycled below.
  schedule_next_handover(record.vehicle);
  // A release frees capacity: re-clear any deferred requests immediately.
  if (slices.empty()) {
    if (markets_[pidx].pending() > 0) schedule_clearing(pidx, queue_.now());
  } else {
    // Offset chains let neighbouring cells draw on the same MSP pool, so a
    // release can unblock any book sharing one of the released candidate
    // pools (book q shares seller m's pool with this cell iff both resolve
    // m to the same slot). Visit the union of the released pools' sharer
    // lists in cell order — deterministic.
    const std::size_t cells = comarkets_.size();
    unblocked_.clear();
    for (const auto& slice : slices) {
      const auto& sharers =
          sharers_[slice.msp * cells + candidates_[pidx][slice.msp]];
      unblocked_.insert(unblocked_.end(), sharers.begin(), sharers.end());
    }
    std::sort(unblocked_.begin(), unblocked_.end());
    unblocked_.erase(std::unique(unblocked_.begin(), unblocked_.end()),
                     unblocked_.end());
    for (const std::size_t q : unblocked_)
      if (comarkets_[q].pending() > 0) schedule_clearing(q, queue_.now());
  }
  free_flights_.push_back(flight);
}

double shard_engine::mail_time(double at) {
  if (!(at < mail_clock_)) return at;
  // The crossing or clearing falls inside the window that announced it (a
  // resolution landed close to the boundary): every receiver's clock on
  // delivery is the window's end, so it runs there instead — skewed by less
  // than one window, never dropped — and is counted now, in the flush the
  // next barrier opens.
  ++counters_.late_handoffs;
  return mail_clock_;
}

std::size_t shard_engine::receive_mail() {
  return mailbox_.receive(
      index_, [this](const shard_message& message) { deliver(message); });
}

void shard_engine::deliver(const shard_message& message) {
  // A drain round's mail was not clamped by its sender: it runs at this
  // shard's clock if that has passed, counted late here.
  const auto clamped = [this](double at) {
    if (!(at < queue_.now())) return at;
    ++counters_.late_handoffs;
    return queue_.now();
  };
  if (const auto* handoff = std::get_if<boundary_handoff>(&message)) {
    queue_.schedule(clamped(handoff->crossing_s),
                    {fleet_event::kind::handover,
                     narrow_index(handoff->vehicle),
                     narrow_index(handoff->from_rsu),
                     narrow_index(handoff->to_rsu)});
    return;
  }
  const auto& retarget = std::get<retarget_handoff>(message);
  const std::size_t pidx = pool_index(retarget.request.to_rsu);
  submit_request(pidx, retarget.request);
  schedule_clearing(pidx, clamped(retarget.clearing_s));
}

void shard_engine::run_window(double t_end) {
  util::trace_span span(trace_, "shard.window");
  span.arg("t_end", t_end);
  // Mail first, then the arrivals: equal-time events run in push order, and
  // the pinned results were taken with this one.
  const std::size_t mail = receive_mail();
  span.arg("mail", static_cast<double>(mail));
  mail_clock_ = t_end;
  for (const auto& arrival : staged_) {
    VTM_EXPECTS(arrival.at_s >= queue_.now());
    auto& slot = vehicles_[arrival.slot];
    slot.route = arrival.route;
    slot.kinematics = arrival.kinematics;
    slot.profile = arrival.profile;
    slot.position_at = arrival.at_s;
    slot.id = arrival.id;
    slot.twin.emplace(sim::vehicular_twin::with_total_mb(
        arrival.id, arrival.profile.data_mb, config_.page_mb.value()));
    slot.twin->set_host_rsu(arrival.serving_rsu);
    queue_.schedule(arrival.at_s, {fleet_event::kind::arrival,
                                   narrow_index(arrival.slot)});
  }
  staged_.clear();
  queue_.run_until(t_end,
                   [this](const fleet_event& event) { dispatch(event); });
}

std::size_t shard_engine::drain_round() {
  util::trace_span span(trace_, "shard.drain");
  const std::size_t mail = receive_mail();
  span.arg("mail", static_cast<double>(mail));
  mail_clock_ = -std::numeric_limits<double>::infinity();
  const std::size_t events =
      queue_.run_all(std::numeric_limits<std::size_t>::max(),
                     [this](const fleet_event& event) { dispatch(event); });
  span.arg("events", static_cast<double>(events));
  return events;
}

void shard_engine::abandon_remaining() {
  for (auto& market : markets_)
    for (const auto& request : market.abandon_pending())
      resolve_abandoned(request);
  for (auto& market : comarkets_)
    for (const auto& request : market.abandon_pending())
      resolve_abandoned(request);
}

void shard_engine::hand_off(window_log& into,
                            [[maybe_unused]] const util::barrier_phase&
                                barrier) {
  move_onto(into.ledger, log_.ledger);
  move_onto(into.records, log_.records);
  move_onto(into.exits, log_.exits);
}

bool shard_engine::idle(
    [[maybe_unused]] const util::barrier_phase& barrier) const {
  return queue_.pending() == 0;
}

std::vector<cohort_snapshot> shard_engine::take_cohorts(
    [[maybe_unused]] const util::barrier_phase& barrier) {
  std::vector<cohort_snapshot> cohorts = std::move(cohorts_);
  cohorts_.clear();
  return cohorts;
}

std::size_t shard_engine::book_depth(
    [[maybe_unused]] const util::barrier_phase& barrier) const {
  std::size_t depth = 0;
  for (const auto& market : markets_) depth += market.pending();
  for (const auto& market : comarkets_) depth += market.pending();
  return depth;
}

shard_engine::pool_usage shard_engine::pool_utilization(
    [[maybe_unused]] const util::barrier_phase& barrier) const {
  pool_usage usage;
  for (const auto& pool : pools_) {
    usage.allocated_mhz += pool.allocated_mhz();
    usage.capacity_mhz += pool.capacity_mhz();
  }
  for (const auto& seller_pools : msp_pools_)
    for (const auto& pool : seller_pools) {
      usage.allocated_mhz += pool.allocated_mhz();
      usage.capacity_mhz += pool.capacity_mhz();
    }
  return usage;
}

// ---- shard_coordinator ------------------------------------------------------

// Each public constructor validates its config once (a stream's base
// through `streaming_base`); the shared one lowers it.
shard_coordinator::shard_coordinator(const fleet_config& config)
    : shard_coordinator((validate_fleet_config(config), config),
                        /*spawn=*/true) {}

shard_coordinator::shard_coordinator(const streaming_config& config)
    : shard_coordinator(streaming_base(config), /*spawn=*/false) {
  stream_ = config;
  streaming_ = true;
  // Periodic flushes retire exited twins from the shards' exit logs; a
  // stream whose only flush is the final one retires by scanning the slots.
  if (stream_.flush_period_s.value() <= stream_.horizon_s.value())
    for (auto& shard : shards_) shard->log_exits();
  // Poisson arrivals: exponential inter-arrival gaps, each drawn right after
  // the previous arrival's spawn (the first one here).
  const util::lane_scope lane(lane_);
  next_arrival_s_ = gen_.exponential(stream_.arrival_rate_per_s.value());
}

shard_coordinator::shard_coordinator(const fleet_config& config, bool spawn)
    : config_(lowered(config)),
      route_spans_(resolve_spawn_spans(config)),
      mailbox_(config_.shard_count),
      gen_(config_.seed),
      pool_(config_.shard_count > 1 ? config_.shard_count - 1 : 0) {
  const sim::road_graph& graph = *config_.graph;
  window_s_ = auto_window_s(config_);

  // Contiguous balanced partition of the sites, in their global order, into
  // shards.
  const std::size_t shard_count = config_.shard_count;
  const std::size_t rsu_count = graph.rsu_count();
  rsu_shard_.resize(rsu_count);
  const std::size_t base = rsu_count / shard_count;
  const std::size_t extra = rsu_count % shard_count;

  std::size_t lo = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t count = base + (s < extra ? 1 : 0);
    for (std::size_t r = lo; r < lo + count; ++r)
      rsu_shard_[r] = static_cast<std::uint32_t>(s);
    lo += count;
  }

  init_telemetry();

  // One mobility profile per route (slots point into this, so it is built
  // once and never resized again). The graph self-measured its
  // shortest-path and route-enumeration phases; export them here, where the
  // run's trace lanes exist.
  if (coord_trace_ != nullptr) {
    const auto& gstats = graph.stats();
    coord_trace_->instant(
        "graph.build",
        {{"floyd_warshall_us",
          static_cast<double>(gstats.floyd_warshall_ns) / 1000.0},
         {"routes_us", static_cast<double>(gstats.routes_ns) / 1000.0},
         {"routes", static_cast<double>(graph.route_count())},
         {"sites", static_cast<double>(rsu_count)}});
  }
  {
    util::trace_span span(coord_trace_, "coord.route_profiles");
    routes_.reserve(graph.route_count());
    for (std::size_t r = 0; r < graph.route_count(); ++r)
      routes_.push_back(graph.make_route_profile(r));
    span.arg("routes", static_cast<double>(routes_.size()));
  }

  // Oligopoly: each seller serves a cell from its own chain, the road's one
  // route shifted by the seller's offset, and the (cell, MSP) table holds
  // the global RSU it serves the cell from. Every candidate must live in
  // the cell's own shard — an offset pushing one across a shard boundary
  // would let two shards race on one pool, so it is rejected up front
  // (reduce the offset or the shard count).
  const std::size_t sellers = config_.msps.size();
  std::vector<std::size_t> candidates(rsu_count * sellers);
  const sim::route_profile& road = routes_.front();
  std::vector<sim::rsu_chain> chains;
  for (const auto& msp : config_.msps)
    chains.push_back(road.chain().shifted(msp.chain_offset_m));
  for (std::size_t i = 0; i < road.count(); ++i) {
    const std::size_t cell = road.global_rsu(i);
    for (std::size_t m = 0; m < sellers; ++m) {
      const std::size_t candidate =
          road.global_rsu(chains[m].serving_rsu(road.chain().center_m(i)));
      VTM_EXPECTS(rsu_shard_[candidate] == rsu_shard_[cell]);
      candidates[cell * sellers + m] = candidate;
    }
  }

  shards_.reserve(shard_count);
  lo = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t count = base + (s < extra ? 1 : 0);
    shards_.push_back(std::make_unique<shard_engine>(
        config_,
        std::span<const std::size_t>(candidates)
            .subspan(lo * sellers, count * sellers),
        s, lo, count, rsu_shard_, vehicles_, mailbox_,
        trace_ != nullptr ? trace_->lane(s) : nullptr));
    lo += count;
  }
  flushed_.resize(shard_count);
  const util::lane_scope lane(lane_);
  logs_.resize(shard_count);
  heads_.resize(shard_count);
  if (spawn) spawn_vehicles();
}

void shard_coordinator::init_telemetry() {
  if (!util::telemetry_compiled()) return;
  metrics_ = config_.telemetry.metrics;
  trace_ = config_.telemetry.trace;
  if (metrics_ != nullptr) {
    cohort_histogram_ = metrics_->histogram(
        "market.cohort", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
    grant_mhz_histogram_ = metrics_->histogram(
        "market.grant_mhz", {1.0, 2.0, 5.0, 10.0, 20.0, 50.0});
  }
  if (trace_ != nullptr) {
    trace_->ensure_lanes(config_.shard_count + 1);  // +1: coordinator.
    for (std::size_t s = 0; s < config_.shard_count; ++s)
      trace_->set_lane_name(s, "shard " + std::to_string(s));
    trace_->set_lane_name(config_.shard_count, "coordinator");
    coord_trace_ = trace_->lane(config_.shard_count);
  }
}

template <class Spawn>
void shard_coordinator::draw_spawn(Spawn& spawn) {
  // A road with several routes draws the route first; one route (every
  // chain) draws none, so a chain's draw sequence (position, speed, α,
  // data) is bitwise the legacy spawn loop.
  std::size_t route = 0;
  if (routes_.size() > 1)
    route = static_cast<std::size_t>(gen_.uniform_int(
        0, static_cast<std::int64_t>(routes_.size()) - 1));
  spawn.route = &routes_[route];
  spawn.kinematics.position_m =
      gen_.uniform(route_spans_[route].lo_m, route_spans_[route].hi_m);
  spawn.kinematics.speed_mps = gen_.uniform(config_.min_speed_mps.value(),
                                            config_.max_speed_mps.value());
  spawn.profile.alpha = gen_.uniform(config_.min_alpha, config_.max_alpha);
  spawn.profile.data_mb =
      gen_.uniform(config_.min_data_mb.value(), config_.max_data_mb.value());
}

void shard_coordinator::spawn_vehicles() {
  vehicles_.resize(config_.vehicle_count);
  for (std::size_t v = 0; v < vehicles_.size(); ++v) {
    auto& slot = vehicles_[v];
    draw_spawn(slot);
    slot.id = v;
    slot.twin.emplace(sim::vehicular_twin::with_total_mb(
        v, slot.profile.data_mb, config_.page_mb.value()));
    const std::size_t serving =
        slot.route->serving_rsu(slot.kinematics.position_m);
    slot.twin->set_host_rsu(serving);
  }
}

void shard_coordinator::run_windows() {
  VTM_EXPECTS(!ran_);  // single-shot: construct one coordinator per run
  ran_ = true;
  const double horizon = config_.duration_s.value();
  const auto next_window_end = [&](double t) {
    return std::min(horizon, t + window_s_);
  };
  double t_end = next_window_end(0.0);
  {
    // No lane has started yet, so both capabilities hold trivially. The
    // first window's arrivals — a closed run's whole spawn cohort — are
    // admitted before the first flip, so vehicles spawned next to a shard
    // boundary re-home as the first window starts, at t = 0, and no handoff
    // posted then is late.
    const util::barrier_scope at_barrier(barrier_);
    const util::lane_scope lane(lane_);
    draw_arrivals(t_end);
    admit_arrivals();
    mailbox_.flip(barrier_);
  }

  // Window phases up to the admission horizon, then drain rounds until
  // every queue is dry and no message is in flight: no new handovers are
  // admitted past the horizon, so only completions and the re-clearings
  // they trigger remain, and running to quiescence guarantees every started
  // migration lands in a flush. A closed run never flushes periodically.
  // Each shard lane starts its phase by delivering the mail the barrier
  // flipped to it. Lane `shard_count` is the coordinator's: `run_phased`
  // runs it on the calling thread after shard 0, where it reduces the
  // previous window while the shards run this one.
  bool draining = false;
  double next_flush = streaming_ ? stream_.flush_period_s.value()
                                 : std::numeric_limits<double>::infinity();
  pool_.run_phased(
      shards_.size() + 1,
      [&](std::size_t lane, std::size_t) {
        if (lane == shards_.size()) {
          const util::lane_scope in_lane(lane_);
          reduce_window();
          draw_arrivals(next_window_end(t_end));
        } else if (draining) {
          shards_[lane]->drain_round();
        } else {
          shards_[lane]->run_window(t_end);
        }
      },
      [&](std::size_t) {
        // `run_phased` runs the barrier callback once every lane of the
        // phase has returned, on the thread of the one that returned last —
        // the one place the barrier capability is legitimately acquired,
        // and the coordinator lane is parked too. What the lanes posted
        // becomes their next phase's mail; drain rounds go on while any is
        // in flight.
        const util::barrier_scope at_barrier(barrier_);
        const util::lane_scope lane(lane_);
        const std::size_t mail = mailbox_.flip(barrier_);
        if (draining) return mail > 0;
        // Hand the window's logs to the coordinator lane, which folds them
        // into the open flush in the next phase, and open every flush whose
        // boundary this window crossed (a flush reduces all it is handed).
        // A flush covers events up to the barrier that opened it (window
        // granularity); conservation holds per window by the exactly-once
        // ledger.
        hand_off(next_flush <= t_end ? std::numeric_limits<double>::infinity()
                                     : t_end);
        while (next_flush <= t_end) {
          open_flush(/*final=*/false);
          next_flush += stream_.flush_period_s.value();
        }
        if (t_end >= horizon) {
          draining = true;
          return true;
        }
        // When nothing can happen in the windows left before the horizon,
        // the next window ends there; the flushes it crosses still open at
        // its end.
        t_end = quiescent(mail) ? horizon : next_window_end(t_end);
        admit_arrivals();
        return true;
      });

  // Quiesced: anything still booked has no release left to wait for. The
  // pool has joined, so both capabilities hold for the sweep and the final
  // flush, which reduces everything left and retires every remaining twin.
  const util::barrier_scope at_barrier(barrier_);
  const util::lane_scope lane(lane_);
  reduce_window();
  for (auto& shard : shards_) shard->abandon_remaining();
  hand_off(std::numeric_limits<double>::infinity());
  open_flush(/*final=*/true);
  reduce_window();
}

fleet_result shard_coordinator::run() {
  if (streaming_) return run_stream().totals;
  run_windows();
  const util::lane_scope lane(lane_);  // joined: the lane is done
  return std::move(flushes_.back());   // a closed run's one flush
}

void shard_coordinator::draw_arrivals(double upto) {
  if (!streaming_) return;
  util::trace_span span(coord_trace_, "coord.draw");
  const std::size_t before = drawn_.size();
  while (next_arrival_s_ <= upto &&
         next_arrival_s_ <= stream_.horizon_s.value()) {
    vehicle_arrival& arrival = drawn_.emplace_back();
    draw_spawn(arrival);
    arrival.serving_rsu =
        arrival.route->serving_rsu(arrival.kinematics.position_m);
    arrival.at_s = next_arrival_s_;
    next_arrival_s_ += gen_.exponential(stream_.arrival_rate_per_s.value());
  }
  span.arg("drawn", static_cast<double>(drawn_.size() - before));
}

void shard_coordinator::admit_arrivals() {
  if (!streaming_ && arrivals_ > 0) return;  // the closed cohort arrived
  util::trace_span span(coord_trace_, "coord.arrivals");
  const std::size_t before = arrivals_;
  if (!streaming_) {
    // A closed run's arrival source is its spawn cohort, all at t = 0, each
    // vehicle adopted by the shard of the RSU hosting its twin.
    for (std::size_t v = 0; v < vehicles_.size(); ++v)
      shards_[rsu_shard_[vehicles_[v].twin->host_rsu()]]->adopt(v);
    arrivals_ = vehicles_.size();
  } else {
    for (vehicle_arrival& arrival : drawn_) {
      if (!free_slots_.empty()) {
        arrival.slot = free_slots_.back();  // LIFO keeps the arena hot
        free_slots_.pop_back();
      } else {
        arrival.slot = vehicles_.size();
        vehicles_.emplace_back();
      }
      arrival.id = arrivals_++;
      shards_[rsu_shard_[arrival.serving_rsu]]->stage(arrival, barrier_);
    }
    drawn_.clear();
  }
  const std::size_t admitted = arrivals_ - before;
  live_ += admitted;
  peak_live_ = std::max(peak_live_, live_);
  span.arg("admitted", static_cast<double>(admitted));
}

bool shard_coordinator::quiescent(std::size_t mail) const {
  if (mail > 0 || !drawn_.empty()) return false;
  if (streaming_ && next_arrival_s_ <= stream_.horizon_s.value()) return false;
  for (const auto& shard : shards_)
    if (!shard->idle(barrier_)) return false;
  return true;
}

void shard_coordinator::hand_off(double before) {
  for (std::size_t s = 0; s < shards_.size(); ++s)
    shards_[s]->hand_off(logs_[s], barrier_);
  merge_before_ = before;
  handed_off_ = true;
}

void shard_coordinator::open_flush(bool final) {
  util::trace_span span(coord_trace_, "coord.flush");
  const bool first = opened_.empty();
  opened_flush& flush = opened_.emplace_back();
  fleet_result& window = flush.result;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    // Counter deltas against the previous flush's cumulative snapshots.
    const shard_engine::counters& stats = shards_[s]->stats();
    fold_counters(window, stats, flushed_[s]);
    flushed_[s] = stats;
    auto cohorts = shards_[s]->take_cohorts(barrier_);
    window.cohorts.insert(window.cohorts.end(),
                          std::make_move_iterator(cohorts.begin()),
                          std::make_move_iterator(cohorts.end()));
  }

  if (final) {
    // Every live twin retires, in slot order: the slots not on the free
    // list. Their logged exits, if any, are the same states, so they go.
    // At quiescence every twin is hosted in the shard that owns its vehicle:
    // a shard resolves every request it takes over onto one of its own
    // RSUs, and hands on the ones it cannot.
    period_exits_.clear();
    for (auto& log : logs_) log.exits.clear();
    std::vector<bool> free_slot(vehicles_.size(), false);
    for (const std::size_t v : free_slots_) free_slot[v] = true;
    for (std::size_t v = 0; v < vehicles_.size(); ++v) {
      if (free_slot[v]) continue;
      const auto& slot = vehicles_[v];
      VTM_ASSERT(slot.twin.has_value());
      vehicle_summary& summary = window.vehicles.emplace_back();
      summary.id = slot.id;
      summary.host_rsu = slot.twin->host_rsu();
      summary.migrations = slot.twin->migration_count();
      summary.position_m = slot.kinematics.position_m;
      summary.shard = rsu_shard_[summary.host_rsu];
      ++flush.retired;
    }
  } else if (first) {
    // The twins that exited since the previous flush: the coordinator lane
    // holds the earlier windows' exits in slot order, and this window's
    // were just handed off. Nothing references them again, so their slots
    // go onto the free list in ascending order, as an arena scan would push
    // them, and memory stays bounded by the live population.
    slot_scratch_.clear();
    for (const auto& log : logs_)
      for (const auto& exit : log.exits) slot_scratch_.push_back(exit.slot);
    std::sort(slot_scratch_.begin(), slot_scratch_.end());
    const auto& held = period_exits_;
    const auto& fresh = slot_scratch_;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < held.size() || j < fresh.size()) {
      if (j == fresh.size() || (i < held.size() && held[i].slot < fresh[j]))
        free_slots_.push_back(held[i++].slot);
      else
        free_slots_.push_back(fresh[j++]);
    }
    flush.retired = held.size() + fresh.size();
  }
  retired_ += flush.retired;
  live_ -= flush.retired;

  // Flush snapshot for Perfetto: live twins, slot-arena high water,
  // deferral-book depth, and aggregate pool utilization at this barrier.
  if (coord_trace_ != nullptr) {
    shard_engine::pool_usage usage;
    for (const auto& shard : shards_) {
      flush.deferral_depth += shard->book_depth(barrier_);
      const auto shard_usage = shard->pool_utilization(barrier_);
      usage.allocated_mhz += shard_usage.allocated_mhz;
      usage.capacity_mhz += shard_usage.capacity_mhz;
    }
    flush.pool_utilization = usage.capacity_mhz > 0.0
                                 ? usage.allocated_mhz / usage.capacity_mhz
                                 : 0.0;
    flush.live = live_;
    flush.arena = vehicles_.size();
  }
}

void shard_coordinator::reduce_window() {
  if (!handed_off_) return;
  handed_off_ = false;
  util::trace_span span(coord_trace_, "coord.merge");
  span.arg("completions",
           static_cast<double>(reduce_completions(merge_before_)));
  absorb_exits();
  close_flushes();
}

void shard_coordinator::completion_sums::add(
    const shard_engine::completion_entry& entry) {
  ++completed;
  max_cohort = std::max<std::size_t>(max_cohort, entry.cohort);
  msp_utility += entry.msp_utility;
  vmu_utility += entry.vmu_utility;
  aotm += entry.aotm;
  amplification += entry.amplification;
  price_bandwidth += entry.price_bandwidth;
  bandwidth += entry.bandwidth;
}

void shard_coordinator::completion_sums::write(fleet_result& out) const {
  out.completed = completed;
  out.max_cohort = max_cohort;
  out.msp_total_utility = msp_utility;
  out.vmu_total_utility = vmu_utility;
  if (completed == 0) return;
  const double n = static_cast<double>(completed);
  out.mean_aotm = aotm / n;
  out.mean_amplification = amplification / n;
  if (bandwidth > 0.0) out.mean_price = price_bandwidth / bandwidth;
}

std::size_t shard_coordinator::reduce_completions(double before) {
  // A k-way merge of the handed-off log prefixes finishing before `before`
  // (vehicle slot breaks exact ties): one shard reproduces the serial
  // engine's event-order summation bitwise, and multi-shard aggregates are
  // independent of thread timing by construction. The flush and run sums
  // advance in the same loop, so a stream's totals are the ordered sum one
  // reduction of the whole stream would produce.
  const std::size_t shards = logs_.size();
  std::fill(heads_.begin(), heads_.end(), std::size_t{0});
  std::size_t reduced = 0;
  for (;; ++reduced) {
    std::size_t best = shards;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto& ledger = logs_[s].ledger;
      if (heads_[s] >= ledger.size() || !(ledger[heads_[s]].finish_s < before))
        continue;
      if (best == shards) {
        best = s;
        continue;
      }
      const auto& a = ledger[heads_[s]];
      const auto& b = logs_[best].ledger[heads_[best]];
      if (a.finish_s < b.finish_s ||
          (a.finish_s == b.finish_s && a.vehicle < b.vehicle))
        best = s;
    }
    if (best == shards) break;
    auto& log = logs_[best];
    const auto& entry = log.ledger[heads_[best]];
    flush_sums_.add(entry);
    run_sums_.add(entry);
    if (metrics_ != nullptr) {
      metrics_->observe(cohort_histogram_, static_cast<double>(entry.cohort));
      metrics_->observe(grant_mhz_histogram_, entry.bandwidth);
    }
    if (config_.record_migrations)
      flush_migrations_.push_back(std::move(log.records[heads_[best]]));
    ++heads_[best];
  }
  for (std::size_t s = 0; s < shards; ++s) {
    auto& log = logs_[s];
    const auto taken = static_cast<std::ptrdiff_t>(heads_[s]);
    log.ledger.erase(log.ledger.begin(), log.ledger.begin() + taken);
    if (config_.record_migrations)
      log.records.erase(log.records.begin(), log.records.begin() + taken);
  }
  return reduced;
}

void shard_coordinator::absorb_exits() {
  const auto by_slot = [](const shard_engine::exit_entry& a,
                          const shard_engine::exit_entry& b) {
    return a.slot < b.slot;
  };
  const std::size_t held = period_exits_.size();
  for (auto& log : logs_) {
    period_exits_.insert(period_exits_.end(), log.exits.begin(),
                         log.exits.end());
    log.exits.clear();
  }
  if (period_exits_.size() == held) return;
  const auto fresh = period_exits_.begin() + static_cast<std::ptrdiff_t>(held);
  std::sort(fresh, period_exits_.end(), by_slot);
  if (held == 0) return;
  exit_scratch_.clear();
  std::merge(period_exits_.begin(), fresh, fresh, period_exits_.end(),
             std::back_inserter(exit_scratch_), by_slot);
  period_exits_.swap(exit_scratch_);
}

void shard_coordinator::close_flushes() {
  for (opened_flush& flush : opened_) {
    fleet_result& window = flush.result;
    flush_sums_.write(window);
    flush_sums_ = {};
    window.migrations = std::move(flush_migrations_);
    flush_migrations_.clear();
    window.vehicles.reserve(window.vehicles.size() + period_exits_.size());
    for (const auto& exit : period_exits_)
      window.vehicles.push_back(exit.summary);
    period_exits_.clear();
    if (coord_trace_ != nullptr)
      coord_trace_->instant(
          "stream.flush",
          {{"live", static_cast<double>(flush.live)},
           {"arena", static_cast<double>(flush.arena)},
           {"deferral_depth", static_cast<double>(flush.deferral_depth)},
           {"pool_utilization", flush.pool_utilization},
           {"completed", static_cast<double>(window.completed)},
           {"retired", static_cast<double>(flush.retired)}});
    flushes_.push_back(std::move(window));
  }
  opened_.clear();
}

streaming_result shard_coordinator::run_stream() {
  run_windows();
  const util::lane_scope lane(lane_);  // joined: the lane is done
  streaming_result result;
  result.arrivals = arrivals_;
  result.retired = retired_;
  result.peak_live = peak_live_;
  result.slot_high_water = vehicles_.size();
  result.flushes = std::move(flushes_);

  fleet_result& totals = result.totals;
  for (const auto& shard : shards_) fold_counters(totals, shard->stats(), {});
  run_sums_.write(totals);
  totals.vehicles.resize(arrivals_);
  for (const auto& flush : result.flushes) {
    for (const auto& summary : flush.vehicles) {
      VTM_ASSERT(summary.id < arrivals_);
      totals.vehicles[summary.id] = summary;
    }
    if (config_.record_migrations)
      totals.migrations.insert(totals.migrations.end(),
                               flush.migrations.begin(),
                               flush.migrations.end());
    totals.cohorts.insert(totals.cohorts.end(), flush.cohorts.begin(),
                          flush.cohorts.end());
  }
  return result;
}

}  // namespace vtm::core
