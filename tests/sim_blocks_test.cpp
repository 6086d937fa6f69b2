// Tests for block-level VT transfer: the event-driven counterpart of the
// paper's block-based AoTM definition (§III-A).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/aotm.hpp"
#include "sim/block_transfer.hpp"
#include "util/contracts.hpp"
#include "wireless/link.hpp"

namespace s = vtm::sim;

TEST(blocks, twin_decomposition_covers_footprint) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 200.0);
  const auto blocks = s::twin_block_sizes(twin);
  double total = 0.0;
  for (double b : blocks) total += b;
  EXPECT_NEAR(total, twin.total_mb(), 1e-9);
  // config + pages + state
  EXPECT_EQ(blocks.size(), 2u + twin.config().memory_pages);
}

TEST(blocks, timeline_aotm_equals_total_over_rate) {
  const std::vector<double> blocks{2.0, 5.0, 3.0};
  const auto timeline = s::run_block_transfer(blocks, 4.0);
  EXPECT_NEAR(timeline.aotm(), 10.0 / 4.0, 1e-12);
  EXPECT_NEAR(timeline.total_mb(), 10.0, 1e-12);
  ASSERT_EQ(timeline.blocks.size(), 3u);
}

TEST(blocks, completion_times_are_cumulative) {
  const std::vector<double> blocks{4.0, 2.0, 6.0};
  const auto timeline = s::run_block_transfer(blocks, 2.0);
  EXPECT_DOUBLE_EQ(timeline.blocks[0].completed_at, 2.0);
  EXPECT_DOUBLE_EQ(timeline.blocks[1].completed_at, 3.0);
  EXPECT_DOUBLE_EQ(timeline.blocks[2].completed_at, 6.0);
  // Back-to-back streaming: each block starts when the previous ends.
  EXPECT_DOUBLE_EQ(timeline.blocks[1].started_at, 2.0);
  EXPECT_DOUBLE_EQ(timeline.blocks[2].started_at, 3.0);
}

TEST(blocks, blocks_complete_in_sequence_order) {
  const std::vector<double> blocks{1.0, 1.0, 1.0, 1.0};
  const auto timeline = s::run_block_transfer(blocks, 10.0);
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
  const auto timeline = s::run_block_transfer(s::twin_block_sizes(twin), rate);
  EXPECT_NEAR(timeline.aotm(),
              vtm::core::aotm_closed_form(twin.total_mb(), bandwidth_mhz,
                                          link),
              1e-9);
}

TEST(blocks, block_path_matches_fluid_precopy_at_zero_dirty_rate) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 100.0);
  const double rate = 300.0;
  const auto fluid = s::run_precopy(twin, rate);
  const auto block = s::run_block_transfer(s::twin_block_sizes(twin), rate);
  EXPECT_NEAR(block.aotm(), fluid.total_time_s, 1e-9);
  EXPECT_NEAR(block.total_mb(), fluid.total_sent_mb, 1e-9);
}

TEST(blocks, scheduled_transfer_integrates_with_event_queue) {
  s::event_queue queue;
  queue.schedule(3.0, [] {});  // unrelated event first
  queue.step();                // now = 3.0

  bool completed = false;
  double completion = 0.0;
  const std::vector<double> blocks{5.0, 5.0};
  const double predicted = s::schedule_block_transfer(
      queue, blocks, 2.0, [&](const s::transfer_timeline& timeline) {
        completed = true;
        completion = timeline.completed_at;
        EXPECT_DOUBLE_EQ(timeline.generated_at, 3.0);
      });
  EXPECT_DOUBLE_EQ(predicted, 8.0);  // 3.0 + 10/2
  queue.run_all();
  EXPECT_TRUE(completed);
  EXPECT_DOUBLE_EQ(completion, 8.0);
}

TEST(blocks, interleaved_transfers_keep_independent_timelines) {
  s::event_queue queue;
  double first_aotm = 0.0, second_aotm = 0.0;
  const std::vector<double> a{4.0};
  const std::vector<double> b{2.0, 2.0};
  (void)s::schedule_block_transfer(
      queue, a, 1.0,
      [&](const s::transfer_timeline& t) { first_aotm = t.aotm(); });
  (void)s::schedule_block_transfer(
      queue, b, 2.0,
      [&](const s::transfer_timeline& t) { second_aotm = t.aotm(); });
  queue.run_all();
  EXPECT_DOUBLE_EQ(first_aotm, 4.0);
  EXPECT_DOUBLE_EQ(second_aotm, 2.0);
}

// One event per block, and more blocks than run_all's default event budget:
// the synchronous transfer still delivers every block.
TEST(blocks, run_block_transfer_outlasts_the_default_event_budget) {
  const std::vector<double> blocks(1'000'001, 1.0);
  const auto timeline = s::run_block_transfer(blocks, 1024.0);
  EXPECT_EQ(timeline.blocks.size(), blocks.size());
  EXPECT_EQ(timeline.completed_at, 1'000'001.0 / 1024.0);
}

TEST(blocks, rejects_invalid_input) {
  EXPECT_THROW((void)s::run_block_transfer(std::vector<double>{}, 1.0),
               vtm::util::contract_error);
  EXPECT_THROW((void)s::run_block_transfer(std::vector<double>{1.0}, 0.0),
               vtm::util::contract_error);
  EXPECT_THROW((void)s::run_block_transfer(std::vector<double>{1.0, -1.0}, 1.0),
               vtm::util::contract_error);
}
