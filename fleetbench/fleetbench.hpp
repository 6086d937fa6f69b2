// Shared declarations of the fleet-engine benchmark program.
//
// The program runs one named workload through the public engine API only:
// `validate_*_config`, then `core::shard_coordinator(config)`, then
// `.run()` / `.run_stream()`. End-to-end numbers come from untraced runs;
// per-layer numbers come from a traced run (the engine's own
// `util::trace_session`, attached through `fleet_config::telemetry`, whose
// export run.py reduces) and from probes that time public layer functions on inputs harvested from a
// separate run of the same workload.
#pragma once

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet_scenario.hpp"
#include "core/fleet_shard.hpp"

namespace fleetbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// CPU time consumed so far by every thread of the process. Unlike wall
/// time it excludes time the hypervisor steals from the VM's vCPUs, which
/// on a shared host can stretch the wall time of one run threefold.
[[nodiscard]] inline double cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

/// Median of a sample (the mean of the two middle values for even sizes);
/// 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// One reported metric.
struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ---- workloads (workloads.cpp) ---------------------------------------------

/// One benchmark workload: an engine configuration derived from the seed,
/// plus the shape guards its outputs must satisfy.
struct workload {
  std::string name;
  bool streaming = false;
  vtm::core::streaming_config stream;  ///< Streaming workloads.
  vtm::core::fleet_config closed;      ///< Closed-population workloads.
  /// Road-graph workloads build `grid(rows, cols, ...)` during set-up; 0 on
  /// the chain.
  std::size_t grid_rows = 0;
  std::size_t grid_cols = 0;
  double grid_edge_m = 0.0;
  double grid_radius_m = 0.0;
  std::size_t min_arrivals = 0;  ///< Shape guard (0: none).

  /// The engine config the run uses (the streaming base or the closed one).
  [[nodiscard]] const vtm::core::fleet_config& base() const {
    return streaming ? stream.base : closed;
  }
  [[nodiscard]] vtm::core::fleet_config& base() {
    return streaming ? stream.base : closed;
  }
};

/// The workload called `name` with inputs drawn from `seed`; throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// A constructed coordinator plus its set-up cost: validation, the graph
/// build (graph workloads), and coordinator construction.
struct prepared_run {
  bool streaming = false;
  std::unique_ptr<vtm::core::shard_coordinator> coordinator;
  double setup_cpu_s = 0.0;  ///< Process CPU time of the set-up.
};

/// Set up one run of `w`, attaching `telemetry` (may be empty).
[[nodiscard]] prepared_run prepare(const workload& w,
                                   vtm::core::fleet_telemetry telemetry = {});

/// Everything the output checks and the metrics need from one run; the
/// bulky per-vehicle and per-migration vectors are reduced on the spot.
struct run_outcome {
  vtm::core::fleet_result totals;  ///< Vectors kept only when recorded.
  std::size_t arrivals = 0;
  std::size_t retired = 0;
  std::size_t peak_live = 0;
  std::size_t slot_high_water = 0;
  std::size_t flushes = 0;
  std::size_t flush_handovers = 0;
  std::size_t flush_completed = 0;
  std::size_t flush_vehicles = 0;
  std::size_t vehicle_count = 0;    ///< totals.vehicles.size().
  std::size_t twin_migrations = 0;  ///< Σ vehicle_summary::migrations.
  double run_s = 0.0;               ///< Run-phase wall time.
  double run_cpu_s = 0.0;           ///< Run-phase CPU time, all threads.
};

/// Execute a prepared run (timing only the run phase) and reduce it.
/// `keep_records` keeps the migration records and cohorts in `totals`.
[[nodiscard]] run_outcome execute(prepared_run& run, bool keep_records);

/// Output checks for one run: conservation, exactly-once flush accounting,
/// certified oligopoly clearings with a decomposing seller split, the shape
/// guards, and — when `reference` is given — bitwise equality of every
/// count and aggregate with it. Returns one message per failed check.
[[nodiscard]] std::vector<std::string> check_outcome(
    const workload& w, const run_outcome& outcome,
    const run_outcome* reference);

// ---- layer probes (probes.cpp) ---------------------------------------------

/// Inputs harvested from separate runs of the workload: migration records
/// (event times, pool grants, pre-copy inputs) and clearing cohorts from a
/// joint-market run of the same fleet.
struct harvest {
  std::vector<vtm::core::migration_record> records;
  std::vector<vtm::core::cohort_snapshot> cohorts;
};

/// Time the public layer functions on `inputs`, spending about `budget_s`
/// in total, one per-layer metric per probe. Probe failures
/// (a clearing that overfills its pool, a pre-copy that sends less than the
/// twin) are appended to `failures`.
[[nodiscard]] std::vector<metric> run_probes(
    const workload& w, const harvest& inputs, std::uint64_t seed,
    double budget_s, std::vector<std::string>& failures);

}  // namespace fleetbench
