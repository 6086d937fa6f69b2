// Block-level VT transfer: the event-driven counterpart of the paper's
// block-based AoTM definition (§III-A), kept as the oracle for the pre-copy
// engine's fluid approximation.
//
// The paper's AoTM is "the time elapsed between the last successfully
// received VT block and the generation of the first VT block". The pre-copy
// engine (sim/precopy.hpp) moves bytes as a fluid; the oracle below
// transmits an explicit block sequence through a `sim::basic_event_queue` —
// one completion event per block — and measures AoTM from the resulting
// timeline. The two agree exactly for the same byte counts, and both match
// eq. (1) for a cold transfer.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "core/aotm.hpp"
#include "sim/event_queue.hpp"
#include "sim/precopy.hpp"
#include "sim/vt.hpp"
#include "wireless/link.hpp"

namespace s = vtm::sim;

namespace {

/// One completed block transmission.
struct block_event {
  std::size_t index = 0;      ///< Position in the block sequence.
  double size_mb = 0.0;
  double started_at = 0.0;    ///< Transmission start (simulation time).
  double completed_at = 0.0;  ///< Reception time.
};

/// A transfer's timeline, filled in as its blocks land.
struct transfer_timeline {
  std::vector<block_event> blocks;  ///< In completion order.
  double generated_at = 0.0;  ///< First block's generation time.
  double completed_at = 0.0;  ///< Last block's reception time.

  /// The AoTM measured from the timeline (paper §III-A definition).
  [[nodiscard]] double aotm() const noexcept {
    return completed_at - generated_at;
  }

  [[nodiscard]] double total_mb() const noexcept {
    double total = 0.0;
    for (const auto& b : blocks) total += b.size_mb;
    return total;
  }
};

/// The queue's payload: one block landing, tagged with its transfer.
struct block_landed {
  std::size_t transfer = 0;  ///< Index into the recorded timelines.
  block_event block;
};

using block_queue = s::basic_event_queue<block_landed>;

/// Decompose a twin into its transmission block sequence: the system-config
/// block, one block per memory page, then the runtime-state block.
std::vector<double> twin_block_sizes(const s::vehicular_twin& twin) {
  std::vector<double> blocks;
  blocks.reserve(2 + twin.config().memory_pages);
  if (twin.config().system_config_mb > vtm::util::megabytes{0.0})
    blocks.push_back(twin.config().system_config_mb.value());
  for (std::size_t p = 0; p < twin.config().memory_pages; ++p)
    blocks.push_back(twin.config().page_mb.value());
  if (twin.config().runtime_state_mb > vtm::util::megabytes{0.0})
    blocks.push_back(twin.config().runtime_state_mb.value());
  return blocks;
}

/// Open a timeline in `timelines` and schedule its blocks back-to-back over
/// a link of `rate_mb_s`, starting now. Every completion time is known at
/// schedule time (no contention within a grant), so each block's event
/// carries its precomputed record. Returns the predicted completion time.
double schedule_transfer(block_queue& queue,
                         std::vector<transfer_timeline>& timelines,
                         std::span<const double> block_sizes_mb,
                         double rate_mb_s) {
  const std::size_t transfer = timelines.size();
  timelines.push_back({{}, queue.now(), queue.now()});
  double clock = queue.now();
  for (std::size_t i = 0; i < block_sizes_mb.size(); ++i) {
    block_event block{i, block_sizes_mb[i], clock, 0.0};
    clock += block_sizes_mb[i] / rate_mb_s;
    block.completed_at = clock;
    queue.schedule(clock, {transfer, block});
  }
  return clock;
}

/// Run the queue to empty (one event per block, so not to `run_all`'s
/// default budget), appending each landed block to its transfer's timeline.
void run_transfers(block_queue& queue,
                   std::vector<transfer_timeline>& timelines) {
  queue.run_all(std::numeric_limits<std::size_t>::max(),
                [&](const block_landed& landed) {
                  auto& timeline = timelines[landed.transfer];
                  timeline.blocks.push_back(landed.block);
                  timeline.completed_at = landed.block.completed_at;
                });
}

/// One transfer run to completion on its own queue.
transfer_timeline run_block_transfer(std::span<const double> block_sizes_mb,
                                     double rate_mb_s) {
  block_queue queue;
  std::vector<transfer_timeline> timelines;
  (void)schedule_transfer(queue, timelines, block_sizes_mb, rate_mb_s);
  run_transfers(queue, timelines);
  return timelines.front();
}

}  // namespace

TEST(blocks, twin_decomposition_covers_footprint) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 200.0);
  const auto blocks = twin_block_sizes(twin);
  double total = 0.0;
  for (double b : blocks) total += b;
  EXPECT_NEAR(total, twin.total_mb(), 1e-9);
  // config + pages + state
  EXPECT_EQ(blocks.size(), 2u + twin.config().memory_pages);
}

TEST(blocks, timeline_aotm_equals_total_over_rate) {
  const std::vector<double> blocks{2.0, 5.0, 3.0};
  const auto timeline = run_block_transfer(blocks, 4.0);
  EXPECT_NEAR(timeline.aotm(), 10.0 / 4.0, 1e-12);
  EXPECT_NEAR(timeline.total_mb(), 10.0, 1e-12);
  ASSERT_EQ(timeline.blocks.size(), 3u);
}

TEST(blocks, completion_times_are_cumulative) {
  const std::vector<double> blocks{4.0, 2.0, 6.0};
  const auto timeline = run_block_transfer(blocks, 2.0);
  EXPECT_DOUBLE_EQ(timeline.blocks[0].completed_at, 2.0);
  EXPECT_DOUBLE_EQ(timeline.blocks[1].completed_at, 3.0);
  EXPECT_DOUBLE_EQ(timeline.blocks[2].completed_at, 6.0);
  // Back-to-back streaming: each block starts when the previous ends.
  EXPECT_DOUBLE_EQ(timeline.blocks[1].started_at, 2.0);
  EXPECT_DOUBLE_EQ(timeline.blocks[2].started_at, 3.0);
}

TEST(blocks, blocks_complete_in_sequence_order) {
  const std::vector<double> blocks{1.0, 1.0, 1.0, 1.0};
  const auto timeline = run_block_transfer(blocks, 10.0);
  for (std::size_t i = 0; i < timeline.blocks.size(); ++i)
    EXPECT_EQ(timeline.blocks[i].index, i);
}

TEST(blocks, block_aotm_matches_closed_form_for_cold_twin) {
  // Paper-normalized: rate = b·R "MB/s"; a cold block-by-block transfer of
  // the whole twin reproduces eq. (1) exactly.
  const auto twin = s::vehicular_twin::with_total_mb(1, 150.0);
  const vtm::wireless::link_budget link(vtm::wireless::link_params{});
  const double bandwidth_mhz = 12.5;
  const double rate = bandwidth_mhz * link.spectral_efficiency();
  const auto timeline = run_block_transfer(twin_block_sizes(twin), rate);
  EXPECT_NEAR(timeline.aotm(),
              vtm::core::aotm_closed_form(twin.total_mb(), bandwidth_mhz,
                                          link),
              1e-9);
}

TEST(blocks, block_path_matches_fluid_precopy_at_zero_dirty_rate) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 100.0);
  const double rate = 300.0;
  const auto fluid = s::run_precopy(twin, rate);
  const auto block = run_block_transfer(twin_block_sizes(twin), rate);
  EXPECT_NEAR(block.aotm(), fluid.total_time_s, 1e-9);
  EXPECT_NEAR(block.total_mb(), fluid.total_sent_mb, 1e-9);
}

// A transfer scheduled mid-run starts its timeline at the queue's clock.
TEST(blocks, scheduled_transfer_integrates_with_event_queue) {
  block_queue queue;
  std::vector<transfer_timeline> timelines;
  const std::vector<double> earlier{3.0};
  (void)schedule_transfer(queue, timelines, earlier, 1.0);
  ASSERT_TRUE(queue.step([&](const block_landed&) {}));  // now = 3.0

  const std::vector<double> blocks{5.0, 5.0};
  const double predicted = schedule_transfer(queue, timelines, blocks, 2.0);
  EXPECT_DOUBLE_EQ(predicted, 8.0);  // 3.0 + 10/2
  run_transfers(queue, timelines);
  const auto& timeline = timelines[1];
  EXPECT_DOUBLE_EQ(timeline.generated_at, 3.0);
  EXPECT_EQ(timeline.blocks.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline.completed_at, 8.0);
}

TEST(blocks, interleaved_transfers_keep_independent_timelines) {
  block_queue queue;
  std::vector<transfer_timeline> timelines;
  const std::vector<double> a{4.0};
  const std::vector<double> b{2.0, 2.0};
  (void)schedule_transfer(queue, timelines, a, 1.0);
  (void)schedule_transfer(queue, timelines, b, 2.0);
  run_transfers(queue, timelines);
  EXPECT_DOUBLE_EQ(timelines[0].aotm(), 4.0);
  EXPECT_DOUBLE_EQ(timelines[1].aotm(), 2.0);
  EXPECT_EQ(timelines[1].blocks.size(), 2u);
}

// One event per block, and more blocks than run_all's default event budget:
// the run still delivers every block.
TEST(blocks, run_block_transfer_outlasts_the_default_event_budget) {
  const std::vector<double> blocks(1'000'001, 1.0);
  const auto timeline = run_block_transfer(blocks, 1024.0);
  EXPECT_EQ(timeline.blocks.size(), blocks.size());
  EXPECT_EQ(timeline.completed_at, 1'000'001.0 / 1024.0);
}
