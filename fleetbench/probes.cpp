// Layer probes: time public layer functions on inputs harvested from the
// workload (never on the timed run itself).
//
// Each probe repeats a pass over its inputs for its share of the budget (at
// least three passes) and reports the median cost per operation across
// passes. Inputs:
//   - event times (handover, clearing, completion), pool grants, and
//     pre-copy inputs come from the harvested migration records;
//   - clearing inputs come from the cohorts of a joint-market run;
//   - mobility states are drawn from the seed over the workload's geometry
//     (chain cells or graph routes);
//   - mailbox traffic follows the records' RSU-to-shard crossings.
#include <algorithm>
#include <optional>

#include "core/multi_msp.hpp"
#include "core/spot_market.hpp"
#include "fleetbench.hpp"
#include "sim/event_queue.hpp"
#include "sim/mailbox.hpp"
#include "sim/mobility.hpp"
#include "sim/precopy.hpp"
#include "sim/road_graph.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "wireless/link.hpp"
#include "wireless/ofdma.hpp"

namespace fleetbench {

namespace vc = vtm::core;
namespace vs = vtm::sim;

namespace {

/// Keep `value` observable so the optimizer cannot drop the work behind it.
inline void keep(double value) { asm volatile("" : : "g"(value) : "memory"); }

/// Repeat `pass` (returning the operations it performed) for about
/// `budget_s`, at least three times; median nanoseconds per operation.
template <typename Pass>
double ns_per_op(double budget_s, Pass&& pass) {
  std::vector<double> samples;
  const auto start = clock_type::now();
  for (int passes = 0; passes < 3 || seconds_since(start) < budget_s;
       ++passes) {
    const auto t0 = clock_type::now();
    const std::size_t ops = pass();
    const double elapsed = seconds_since(t0);
    if (ops > 0) samples.push_back(elapsed * 1e9 / static_cast<double>(ops));
  }
  return median(samples);
}

/// At most `limit` elements of `items`, evenly strided over the whole range.
template <typename T>
std::vector<const T*> sample(const std::vector<T>& items, std::size_t limit) {
  std::vector<const T*> out;
  if (items.empty()) return out;
  const std::size_t stride = std::max<std::size_t>(1, items.size() / limit);
  for (std::size_t i = 0; i < items.size() && out.size() < limit; i += stride)
    out.push_back(&items[i]);
  return out;
}

/// Global RSU -> shard map of the coordinator's contiguous balanced
/// partition.
std::vector<std::size_t> rsu_shards(std::size_t rsus, std::size_t shards) {
  std::vector<std::size_t> map(rsus);
  const std::size_t base = rsus / shards;
  const std::size_t extra = rsus % shards;
  std::size_t lo = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t count = base + (s < extra ? 1 : 0);
    for (std::size_t r = lo; r < lo + count; ++r) map[r] = s;
    lo += count;
  }
  return map;
}

// ---- sim::event_queue --------------------------------------------------------

double probe_event_queue(const harvest& inputs, double budget_s) {
  // Replay the engine's event mix — handover, clearing, completion per
  // migration — at a queue depth near the stream regime's live population.
  constexpr std::size_t kDepth = 2048;
  auto order = sample(inputs.records, 60000);
  std::sort(order.begin(), order.end(),
            [](const vc::migration_record* a, const vc::migration_record* b) {
              return a->requested_s < b->requested_s;
            });
  return ns_per_op(budget_s, [&] {
    vs::event_queue queue;
    std::size_t executed = 0;
    std::size_t checksum = 0;
    for (const auto* r : order) {
      if (queue.pending() >= kDepth) queue.run_until(r->requested_s);
      // Two references plus two indices: past std::function's small buffer,
      // like the engine's closures.
      const std::size_t vehicle = r->vehicle;
      const std::size_t pool = r->to_rsu;
      const auto action = [&executed, &checksum, vehicle, pool] {
        ++executed;
        checksum += vehicle ^ pool;
      };
      queue.schedule(std::max(r->requested_s, queue.now()), action);
      queue.schedule(std::max(r->start_s, queue.now()), action);
      queue.schedule(std::max(r->finish_s, queue.now()), action);
    }
    queue.run_all(static_cast<std::size_t>(-1));
    keep(static_cast<double>(checksum));
    return executed;
  });
}

// ---- sim::mobility -----------------------------------------------------------

double probe_mobility(const workload& w, const vs::road_graph* graph,
                      std::uint64_t seed, double budget_s) {
  constexpr std::size_t kStates = 8192;
  const auto& config = w.base();
  vtm::util::rng gen(seed ^ 0x6d6f62696c697479ULL);
  std::vector<vs::vehicle_state> states(kStates);
  std::vector<std::size_t> route_of(kStates, 0);
  std::vector<vs::route_profile> routes;
  const vs::rsu_chain chain(config.rsu_count, config.rsu_spacing_m,
                            config.coverage_radius_m);
  if (graph != nullptr)
    for (std::size_t r = 0; r < graph->route_count(); ++r)
      routes.push_back(graph->make_route_profile(r));
  for (std::size_t i = 0; i < kStates; ++i) {
    double lo = 0.5 * config.rsu_spacing_m.value();
    double hi = (static_cast<double>(config.rsu_count) - 0.5) *
                config.rsu_spacing_m.value();
    if (!routes.empty()) {
      route_of[i] = static_cast<std::size_t>(gen.uniform_int(
          0, static_cast<std::int64_t>(routes.size()) - 1));
      lo = 0.0;
      hi = graph->route(route_of[i]).length_m;
    }
    states[i].position_m = gen.uniform(lo, hi);
    states[i].speed_mps = gen.uniform(config.min_speed_mps.value(),
                                      config.max_speed_mps.value());
  }
  return ns_per_op(budget_s, [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < kStates; ++i) {
      const auto next = routes.empty()
                            ? chain.next_handover(states[i])
                            : routes[route_of[i]].next_handover(states[i]);
      if (next) sum += next->after_s;
    }
    keep(sum);
    return kStates;
  });
}

// ---- wireless::ofdma_pool ----------------------------------------------------

struct pool_replay {
  double ns_per_grant = 0.0;
  std::size_t failed_allocs = 0;
};

pool_replay probe_ofdma_pool(const workload& w, const harvest& inputs,
                             double budget_s) {
  // Replay every harvested grant against its destination pool: allocate at
  // the clearing, release at the completion (releases first on ties, as a
  // completion re-clears its pool after releasing).
  const auto& config = w.base();
  double capacity = config.bandwidth_per_pool_mhz.value();
  if (config.mode == vc::market_mode::oligopoly) {
    capacity = 0.0;
    for (const auto& msp : config.msps)
      capacity += msp.bandwidth_per_pool_mhz.value();
  }
  const auto grants = sample(inputs.records, 100000);
  struct event {
    double at;
    bool release;
    std::size_t grant;
  };
  std::vector<event> events;
  std::size_t pools = 0;
  for (std::size_t g = 0; g < grants.size(); ++g) {
    events.push_back({grants[g]->start_s, false, g});
    events.push_back({grants[g]->finish_s, true, g});
    pools = std::max(pools, grants[g]->to_rsu + 1);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const event& a, const event& b) {
                     return a.at != b.at ? a.at < b.at
                                         : a.release > b.release;
                   });
  pool_replay out;
  bool first = true;
  out.ns_per_grant = ns_per_op(budget_s, [&] {
    std::vector<vtm::wireless::ofdma_pool> pool(
        pools, vtm::wireless::ofdma_pool(capacity));
    std::vector<std::optional<vtm::wireless::grant_id>> live(grants.size());
    std::size_t failed = 0;
    for (const event& e : events) {
      auto& p = pool[grants[e.grant]->to_rsu];
      if (!e.release) {
        live[e.grant] = p.allocate(grants[e.grant]->bandwidth_mhz);
        if (!live[e.grant]) ++failed;
      } else if (live[e.grant]) {
        p.release(*live[e.grant]);
      }
    }
    if (first) out.failed_allocs = failed;
    first = false;
    return grants.size();
  });
  return out;
}

// ---- core::spot_market -------------------------------------------------------

double probe_spot_market(const workload& w, const harvest& inputs,
                         double budget_s, std::vector<std::string>& failures) {
  const auto cohorts = sample(inputs.cohorts, 4000);
  bool checked = false;
  return ns_per_op(budget_s, [&] {
    double sum = 0.0;
    for (const auto* c : cohorts) {
      vc::spot_market_config config;
      config.link = c->link;
      config.unit_cost = c->unit_cost;
      config.price_cap = c->price_cap;
      config.min_clearable_mhz = w.base().min_clearable_mhz;
      config.pool_capacity_mhz = vtm::util::megahertz{c->capacity_mhz};
      vc::spot_market market(config);
      for (std::size_t n = 0; n < c->profiles.size(); ++n)
        market.submit({n, c->profiles[n], 0, 1, 0.0});
      const auto outcome = market.clear(c->available_mhz);
      double granted = 0.0;
      for (const auto& grant : outcome.grants) granted += grant.bandwidth_mhz;
      if (!checked && granted > c->available_mhz * (1.0 + 1e-12))
        failures.push_back("spot_market probe: a clearing overfilled its "
                           "pool");
      sum += outcome.price;
    }
    checked = true;
    keep(sum);
    return cohorts.size();
  }) * 1e-3;
}

// ---- core::multi_msp ---------------------------------------------------------

double probe_multi_msp(const workload& w, const harvest& inputs,
                       double budget_s) {
  // The oligopoly workload's cohorts priced against its own sellers.
  const auto cohorts = sample(inputs.cohorts, 1000);
  std::vector<vc::msp_profile> roster;
  for (const auto& msp : w.base().msps)
    roster.push_back({msp.unit_cost, msp.bandwidth_per_pool_mhz.value(),
                      msp.price_cap});
  std::vector<vc::multi_msp_market> markets;
  markets.reserve(cohorts.size());
  for (const auto* c : cohorts)
    markets.emplace_back(vc::multi_msp_params{
        roster, c->profiles, c->link, w.base().share_sharpness});
  return ns_per_op(budget_s, [&] {
    double sum = 0.0;
    for (const auto& market : markets)
      sum += vc::solve_price_competition(market, vc::price_competition_options{})
                 .effective_price;
    keep(sum);
    return markets.size();
  }) * 1e-3;
}

// ---- sim::shard_mailbox ------------------------------------------------------

double probe_mailbox(const workload& w, const harvest& inputs,
                     const vs::road_graph* graph, double budget_s) {
  // Post the records' RSU crossings as boundary handoffs in window-sized
  // batches, delivering each batch at a barrier.
  constexpr std::size_t kBatch = 256;
  const auto& config = w.base();
  const std::size_t lanes = config.shard_count;
  const std::size_t rsus =
      graph != nullptr ? graph->rsu_count() : config.rsu_count;
  const auto shard_of = rsu_shards(rsus, lanes);
  const auto records = sample(inputs.records, 65536);
  vs::shard_mailbox<vc::shard_message> mailbox(lanes);
  return ns_per_op(budget_s, [&] {
    std::size_t delivered = 0;
    double sum = 0.0;
    for (std::size_t lo = 0; lo < records.size(); lo += kBatch) {
      const std::size_t hi = std::min(records.size(), lo + kBatch);
      for (std::size_t i = lo; i < hi; ++i) {
        const auto* r = records[i];
        mailbox.post(shard_of[std::min(r->from_rsu, rsus - 1)],
                     shard_of[std::min(r->to_rsu, rsus - 1)],
                     vc::boundary_handoff{r->vehicle, r->from_rsu, r->to_rsu,
                                          r->requested_s});
      }
      const vtm::util::barrier_phase phase;
      const vtm::util::barrier_scope at_barrier(phase);
      for (std::size_t dst = 0; dst < lanes; ++dst)
        delivered += mailbox.deliver(
            dst,
            [&](const vc::shard_message& message) {
              sum += std::get<vc::boundary_handoff>(message).crossing_s;
            },
            phase);
    }
    keep(sum);
    return delivered;
  });
}

// ---- sim::precopy ------------------------------------------------------------

double probe_precopy(const workload& w, const harvest& inputs,
                     double budget_s, std::vector<std::string>& failures) {
  // Rebuild each sampled migration's (twin, rate) pair: the record keeps
  // the granted bandwidth and the closed-form AoTM D/(b·R), so with the
  // workload's nominal link efficiency R the twin footprint is
  // D = AoTM·b·R.
  const auto& config = w.base();
  auto link = config.link;
  link.distance_m = w.grid_rows > 0 ? vtm::util::meters{w.grid_edge_m}
                                    : config.rsu_spacing_m;
  const double efficiency =
      vtm::wireless::link_budget(link).spectral_efficiency();
  vs::precopy_params params;
  params.dirty_rate_mb_s = config.dirty_rate_mb_s;
  params.stop_copy_threshold_mb = config.stop_copy_threshold_mb;
  std::vector<vs::vehicular_twin> twins;
  std::vector<double> rates;
  for (const auto* r : sample(inputs.records, 1024)) {
    const double rate = r->bandwidth_mhz * efficiency;
    const double data_mb = r->aotm_closed_form * rate;
    if (!(rate > 0.0) || !(data_mb > 0.0)) continue;
    twins.push_back(vs::vehicular_twin::with_total_mb(
        r->vehicle, data_mb, config.page_mb.value()));
    rates.push_back(rate);
  }
  bool checked = false;
  return ns_per_op(budget_s, [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < twins.size(); ++i) {
      const auto report = vs::run_precopy(twins[i], rates[i], params);
      if (!checked && report.total_sent_mb < twins[i].total_mb() * (1 - 1e-9))
        failures.push_back("precopy probe: a migration sent less than its "
                           "twin");
      sum += report.total_time_s;
    }
    checked = true;
    keep(sum);
    return twins.size();
  }) * 1e-3;
}

// ---- sim::road_graph ---------------------------------------------------------

double probe_road_graph(const workload& w, double budget_s) {
  // The graph the workload builds in set-up (grid), or the chain's
  // degenerate path graph for chain workloads.
  const auto& config = w.base();
  return ns_per_op(budget_s, [&] {
    const auto graph =
        w.grid_rows > 0
            ? vs::road_graph::grid(w.grid_rows, w.grid_cols, w.grid_edge_m,
                                   w.grid_radius_m)
            : vs::road_graph::path(config.rsu_count,
                                   config.rsu_spacing_m.value(),
                                   config.coverage_radius_m.value());
    keep(static_cast<double>(graph.route_count()));
    return std::size_t{1};
  }) * 1e-9;
}

}  // namespace

std::vector<metric> run_probes(const workload& w, const harvest& inputs,
                               std::uint64_t seed, double budget_s,
                               std::vector<std::string>& failures) {
  constexpr double kProbes = 8.0;
  const double each = budget_s / kProbes;
  std::optional<vs::road_graph> graph;
  if (w.grid_rows > 0)
    graph.emplace(vs::road_graph::grid(w.grid_rows, w.grid_cols,
                                       w.grid_edge_m, w.grid_radius_m));
  const vs::road_graph* g = graph ? &*graph : nullptr;

  const auto pools = probe_ofdma_pool(w, inputs, each);
  return {
      {"sim.event_queue.ns_per_event", probe_event_queue(inputs, each), "ns"},
      {"sim.mobility.ns_per_next_handover", probe_mobility(w, g, seed, each),
       "ns"},
      {"wireless.ofdma_pool.ns_per_grant", pools.ns_per_grant, "ns"},
      {"wireless.ofdma_pool.failed_allocs",
       static_cast<double>(pools.failed_allocs), "count"},
      {"core.spot_market.us_per_clear",
       probe_spot_market(w, inputs, each, failures), "us"},
      // Only the oligopoly runs the solver; the streams report 0.
      {"core.multi_msp.us_per_solve",
       w.base().mode == vc::market_mode::oligopoly
           ? probe_multi_msp(w, inputs, each)
           : 0.0,
       "us"},
      {"sim.mailbox.ns_per_message", probe_mailbox(w, inputs, g, each), "ns"},
      {"sim.precopy.us_per_migration",
       probe_precopy(w, inputs, each, failures), "us"},
      {"sim.road_graph.build_s", probe_road_graph(w, each), "s"},
  };
}

}  // namespace fleetbench
