// Workload definitions, run set-up/execution, and the per-run output checks.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "fleetbench.hpp"
#include "sim/road_graph.hpp"

namespace fleetbench {

namespace vc = vtm::core;
namespace vu = vtm::util;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

/// The closed_oligopoly sellers: costs 5 / 5.5 / 6, 50 MHz pools each.
std::vector<vc::fleet_msp> oligopoly_roster() {
  std::vector<vc::fleet_msp> roster;
  for (const double cost : {5.0, 5.5, 6.0})
    roster.push_back({vu::meters{0.0}, cost, 50.0, vu::megahertz{50.0}});
  return roster;
}

/// The open loop shared by both stream workloads: Poisson λ = 6/s over a
/// 20000 s horizon (about 120k arrivals), flushed every 50 s, 4 shards.
vc::streaming_config open_loop(std::uint64_t seed) {
  vc::streaming_config config;
  config.base.rsu_count = 8;
  config.base.shard_count = 4;
  config.base.record_migrations = false;
  config.base.seed = seed;
  config.arrival_rate_per_s = vu::per_second{6.0};
  config.horizon_s = vu::seconds{20000.0};
  config.flush_period_s = vu::seconds{50.0};
  return config;
}

}  // namespace

workload make_workload(const std::string& name, std::uint64_t seed) {
  workload w;
  w.name = name;
  if (name == "stream_chain") {
    w.streaming = true;
    w.stream = open_loop(seed);
    w.min_arrivals = 100000;
  } else if (name == "stream_grid") {
    w.streaming = true;
    w.stream = open_loop(seed);
    w.grid_rows = 8;
    w.grid_cols = 8;
    w.grid_edge_m = 1000.0;
    w.grid_radius_m = 600.0;
  } else if (name == "closed_oligopoly") {
    // 5000 vehicles on a 32-RSU chain for 1200 s, served by three competing
    // MSPs on the serial engine.
    w.closed.rsu_count = 32;
    w.closed.vehicle_count = 5000;
    w.closed.duration_s = vu::seconds{1200.0};
    w.closed.shard_count = 1;
    w.closed.record_migrations = false;
    w.closed.mode = vc::market_mode::oligopoly;
    w.closed.msps = oligopoly_roster();
    w.closed.seed = seed;
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return w;
}

prepared_run prepare(const workload& w, vc::fleet_telemetry telemetry) {
  prepared_run run;
  run.streaming = w.streaming;
  if (w.streaming) {
    vc::streaming_config config = w.stream;
    config.base.telemetry = telemetry;
    const double start = cpu_seconds();
    if (w.grid_rows > 0)
      config.base.graph = std::make_shared<const vtm::sim::road_graph>(
          vtm::sim::road_graph::grid(w.grid_rows, w.grid_cols, w.grid_edge_m,
                                     w.grid_radius_m));
    vc::validate_streaming_config(config);
    run.coordinator = std::make_unique<vc::shard_coordinator>(config);
    run.setup_cpu_s = cpu_seconds() - start;
  } else {
    vc::fleet_config config = w.closed;
    config.telemetry = telemetry;
    const double start = cpu_seconds();
    vc::validate_fleet_config(config);
    run.coordinator = std::make_unique<vc::shard_coordinator>(config);
    run.setup_cpu_s = cpu_seconds() - start;
  }
  return run;
}

namespace {

void reduce_vehicles(run_outcome& out) {
  out.vehicle_count = out.totals.vehicles.size();
  for (const auto& v : out.totals.vehicles) out.twin_migrations += v.migrations;
  out.totals.vehicles = {};
}

}  // namespace

run_outcome execute(prepared_run& run, bool keep_records) {
  run_outcome out;
  const double cpu_start = cpu_seconds();
  const auto start = clock_type::now();
  if (run.streaming) {
    vc::streaming_result result = run.coordinator->run_stream();
    out.run_s = seconds_since(start);
    out.run_cpu_s = cpu_seconds() - cpu_start;
    out.arrivals = result.arrivals;
    out.retired = result.retired;
    out.peak_live = result.peak_live;
    out.slot_high_water = result.slot_high_water;
    out.flushes = result.flushes.size();
    for (const auto& flush : result.flushes) {
      out.flush_handovers += flush.handovers;
      out.flush_completed += flush.completed;
      out.flush_vehicles += flush.vehicles.size();
    }
    out.totals = std::move(result.totals);
  } else {
    out.totals = run.coordinator->run();
    out.run_s = seconds_since(start);
    out.run_cpu_s = cpu_seconds() - cpu_start;
  }
  reduce_vehicles(out);
  if (!keep_records) {
    out.totals.migrations = {};
    out.totals.cohorts = {};
  }
  return out;
}

namespace {

/// Bitwise equality of every count and aggregate two runs report.
std::vector<std::string> diff_outcomes(const run_outcome& a,
                                       const run_outcome& b) {
  std::vector<std::string> diffs;
  const auto count = [&](const char* name, std::size_t x, std::size_t y) {
    if (x != y)
      diffs.push_back(std::string(name) + " " + std::to_string(x) +
                      " != first run's " + std::to_string(y));
  };
  const auto value = [&](const char* name, double x, double y) {
    if (!(x == y) && !(std::isnan(x) && std::isnan(y)))
      diffs.push_back(std::string(name) + " differs bitwise from the first "
                                          "run's");
  };
  const auto& x = a.totals;
  const auto& y = b.totals;
  count("handovers", x.handovers, y.handovers);
  count("deferred", x.deferred, y.deferred);
  count("priced_out", x.priced_out, y.priced_out);
  count("abandoned", x.abandoned, y.abandoned);
  count("completed", x.completed, y.completed);
  count("clearings", x.clearings, y.clearings);
  count("max_cohort", x.max_cohort, y.max_cohort);
  count("cross_shard_transfers", x.cross_shard_transfers,
        y.cross_shard_transfers);
  count("cross_shard_retargets", x.cross_shard_retargets,
        y.cross_shard_retargets);
  count("late_handoffs", x.late_handoffs, y.late_handoffs);
  count("unconverged_clearings", x.unconverged_clearings,
        y.unconverged_clearings);
  count("solver_sweeps", x.solver_sweeps, y.solver_sweeps);
  count("objective_evals", x.objective_evals, y.objective_evals);
  count("warm_started_clearings", x.warm_started_clearings,
        y.warm_started_clearings);
  value("msp_total_utility", x.msp_total_utility, y.msp_total_utility);
  value("vmu_total_utility", x.vmu_total_utility, y.vmu_total_utility);
  value("mean_aotm", x.mean_aotm, y.mean_aotm);
  value("mean_amplification", x.mean_amplification, y.mean_amplification);
  value("mean_price", x.mean_price, y.mean_price);
  count("msp_utilities.size", x.msp_utilities.size(), y.msp_utilities.size());
  for (std::size_t m = 0;
       m < x.msp_utilities.size() && m < y.msp_utilities.size(); ++m) {
    value("msp_utilities", x.msp_utilities[m], y.msp_utilities[m]);
    value("msp_sold_mhz", x.msp_sold_mhz[m], y.msp_sold_mhz[m]);
  }
  count("arrivals", a.arrivals, b.arrivals);
  count("retired", a.retired, b.retired);
  count("peak_live", a.peak_live, b.peak_live);
  count("slot_high_water", a.slot_high_water, b.slot_high_water);
  count("flushes", a.flushes, b.flushes);
  count("vehicles", a.vehicle_count, b.vehicle_count);
  count("twin_migrations", a.twin_migrations, b.twin_migrations);
  return diffs;
}

}  // namespace

std::vector<std::string> check_outcome(const workload& w,
                                       const run_outcome& outcome,
                                       const run_outcome* reference) {
  std::vector<std::string> failures;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  const auto& t = outcome.totals;
  const auto& config = w.base();
  expect(t.handovers > 0 && t.completed > 0, "the run admitted no work");
  expect(t.handovers == t.completed + t.priced_out + t.abandoned,
         "conservation: handovers != completed + priced_out + abandoned");
  expect(outcome.twin_migrations == t.completed,
         "per-twin migration counts do not sum to completed");
  if (w.streaming) {
    // Exactly-once flush accounting: the windows reassemble the totals and
    // every arrival retires into exactly one flush.
    expect(outcome.flush_handovers == t.handovers,
           "flush handovers do not sum to the totals");
    expect(outcome.flush_completed == t.completed,
           "flush completions do not sum to the totals");
    expect(outcome.retired == outcome.arrivals,
           "retired twins != arrivals after the drain");
    expect(outcome.flush_vehicles == outcome.arrivals,
           "flushed vehicle summaries != arrivals");
    expect(outcome.vehicle_count == outcome.arrivals,
           "total vehicle summaries != arrivals");
    expect(outcome.slot_high_water <= outcome.peak_live + 1,
           "slot arena outgrew the live population");
    expect(outcome.arrivals >= w.min_arrivals,
           "shape guard: " + std::to_string(outcome.arrivals) +
               " arrivals, below " + std::to_string(w.min_arrivals));
  } else {
    expect(outcome.vehicle_count == config.vehicle_count,
           "vehicle summaries != vehicle_count");
  }
  double price_cap = config.price_cap;
  if (config.mode == vc::market_mode::oligopoly) {
    expect(t.unconverged_clearings == 0, "unconverged oligopoly clearings");
    expect(t.msp_utilities.size() == config.msps.size(),
           "seller split does not match the roster");
    double split = 0.0;
    for (const double u : t.msp_utilities) split += u;
    const double tolerance = 1e-9 * std::max(1.0, std::abs(t.msp_total_utility));
    expect(std::abs(split - t.msp_total_utility) <= tolerance,
           "seller utilities do not sum to the total");
    price_cap = 0.0;
    for (const auto& msp : config.msps)
      price_cap = std::max(price_cap, msp.price_cap);
  }
  expect(t.mean_price > 0.0 && t.mean_price < price_cap,
         "shape guard: mean price " + std::to_string(t.mean_price) +
             " not below the price cap (saturated market)");
  if (reference != nullptr)
    for (auto& diff : diff_outcomes(outcome, *reference))
      failures.push_back("not reproducible: " + diff);
  return failures;
}

}  // namespace fleetbench
