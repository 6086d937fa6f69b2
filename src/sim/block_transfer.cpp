#include "sim/block_transfer.hpp"

#include <limits>
#include <memory>

#include "util/contracts.hpp"

namespace vtm::sim {

std::vector<double> twin_block_sizes(const vehicular_twin& twin) {
  std::vector<double> blocks;
  blocks.reserve(2 + twin.config().memory_pages);
  if (twin.config().system_config_mb > util::megabytes{0.0})
    blocks.push_back(twin.config().system_config_mb.value());
  for (std::size_t p = 0; p < twin.config().memory_pages; ++p)
    blocks.push_back(twin.config().page_mb.value());
  if (twin.config().runtime_state_mb > util::megabytes{0.0})
    blocks.push_back(twin.config().runtime_state_mb.value());
  return blocks;
}

double schedule_block_transfer(
    event_queue& queue, std::span<const double> block_sizes_mb,
    double rate_mb_s,
    std::function<void(const transfer_timeline&)> on_complete) {
  VTM_EXPECTS(rate_mb_s > 0.0);
  VTM_EXPECTS(!block_sizes_mb.empty());
  for (double size : block_sizes_mb) VTM_EXPECTS(size > 0.0);

  auto timeline = std::make_shared<transfer_timeline>();
  timeline->generated_at = queue.now();
  timeline->blocks.reserve(block_sizes_mb.size());

  // Blocks stream back-to-back on the dedicated subchannel; one completion
  // event each. All completion times are known at schedule time (no
  // contention within a grant), so events carry precomputed timestamps.
  double clock = queue.now();
  const std::size_t count = block_sizes_mb.size();
  for (std::size_t i = 0; i < count; ++i) {
    block_event event;
    event.index = i;
    event.size_mb = block_sizes_mb[i];
    event.started_at = clock;
    clock += block_sizes_mb[i] / rate_mb_s;
    event.completed_at = clock;
    const bool last = (i + 1 == count);
    queue.schedule(event.completed_at,
                   [timeline, event, last,
                    on_complete = last ? on_complete : nullptr] {
                     timeline->blocks.push_back(event);
                     if (last) {
                       timeline->completed_at = event.completed_at;
                       if (on_complete) on_complete(*timeline);
                     }
                   });
  }
  return clock;
}

transfer_timeline run_block_transfer(std::span<const double> block_sizes_mb,
                                     double rate_mb_s) {
  event_queue queue;
  transfer_timeline result;
  bool completed = false;
  schedule_block_transfer(queue, block_sizes_mb, rate_mb_s,
                          [&](const transfer_timeline& timeline) {
                            result = timeline;
                            completed = true;
                          });
  // One event per block: run to empty, not to run_all's default budget.
  queue.run_all(std::numeric_limits<std::size_t>::max());
  VTM_ENSURES(completed);
  return result;
}

}  // namespace vtm::sim
