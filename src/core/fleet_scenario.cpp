#include "core/fleet_scenario.hpp"

#include "core/fleet_shard.hpp"

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

}  // namespace vtm::core
