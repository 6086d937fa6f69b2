#include "core/fleet_scenario.hpp"

#include <cstdint>

#include "core/fleet_shard.hpp"
#include "util/thread_pool.hpp"

namespace vtm::core {

// The engine itself lives in core/fleet_shard.{hpp,cpp}: a run is a
// `shard_coordinator` owning `shard_count` shard-local engines (per-RSU
// pools and books over per-shard event queues) advanced in conservative
// time windows. `shard_count = 1` — the default — executes the exact
// pre-shard event sequence, so this entry point stayed bitwise stable across
// the refactor.

fleet_result run_fleet_scenario(const fleet_config& config) {
  validate_fleet_config(config);  // fail fast at the public entry point
  shard_coordinator coordinator(config);
  util::trace_span span(coordinator.coordinator_lane(), "fleet.run");
  span.arg("shards", static_cast<double>(coordinator.shard_count()));
  span.arg("vehicles", static_cast<double>(config.vehicle_count));
  return coordinator.run();
}

streaming_result run_streaming_fleet(const streaming_config& config) {
  validate_streaming_config(config);  // fail fast at the public entry point
  shard_coordinator coordinator(config);
  util::trace_span span(coordinator.coordinator_lane(), "fleet.stream");
  span.arg("shards", static_cast<double>(coordinator.shard_count()));
  span.arg("horizon_s", config.horizon_s.value());
  return coordinator.run_stream();
}

std::vector<fleet_result> run_fleet_sweep(
    const fleet_config& base, std::span<const std::uint64_t> seeds,
    std::size_t threads) {
  // Validate once before fanning out: a bad base config should throw here,
  // not as an exception ferried back from a worker thread per seed.
  validate_fleet_config(base);
  std::vector<fleet_result> results(seeds.size());
  util::thread_pool pool(threads);
  pool.parallel_for(seeds.size(), [&](std::size_t i) {
    fleet_config config = base;
    config.seed = seeds[i];
    results[i] = run_fleet_scenario(config);
  });
  return results;
}

}  // namespace vtm::core
