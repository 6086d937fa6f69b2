// Contention stress for util::thread_pool's barrier protocol (DESIGN.md
// §13). These tests deliberately share NON-atomic state across the phase
// boundary: lanes read values rival lanes wrote in the previous phase, and
// the barrier callback mutates state every lane reads next phase. That is
// only defined behaviour if run_phased establishes a happens-before edge
// lane-write → barrier → lane-read — exactly the contract the shard
// mailbox's flip leans on — so under TSan (VTM_SANITIZE=thread) these tests
// verify the synchronization itself, not merely the observable ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace {

/// Data-dependent spin so lanes finish phases in scrambled order; returns
/// the hash so the work cannot be optimized away.
std::uint64_t churn(std::uint64_t seed, std::uint64_t rounds) {
  std::uint64_t h = seed | 1;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
  }
  return h;
}

/// One lane's private accumulator, padded to its own 64-byte cache line so
/// lanes neither race on nor false-share it.
struct alignas(64) lane_sink {
  std::uint64_t value = 0;
};

}  // namespace

// More lanes than workers, uneven per-lane work, and cross-lane reads of
// plain (non-atomic) values published in the previous phase. Any lane that
// outruns the barrier — or a barrier that runs before every lane drains —
// shows up both as a value mismatch and as a TSan race.
TEST(concurrency_stress, run_phased_orders_nonatomic_cross_lane_state) {
  constexpr std::size_t phases = 40;
  std::uint64_t sink = 0;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    vtm::util::thread_pool pool(threads);
    const std::size_t lanes = 2 * threads + 3;  // always oversubscribed

    // All plain values: the pool's barrier is the only synchronization.
    // Publications are double-buffered by phase parity so a lane's read of
    // its rival's *previous-phase* value never overlaps the rival's
    // same-phase write — the cross-phase edge is the one under test.
    std::vector<std::vector<std::size_t>> published(
        2, std::vector<std::size_t>(lanes, 0));
    std::size_t epoch = 0;  // written by the barrier, read by every lane
    std::atomic<int> violations{0};
    // Each lane only ever touches its own sink; they are summed after the
    // run, once run_phased has joined every lane.
    std::vector<lane_sink> sinks(lanes);

    pool.run_phased(
        lanes,
        [&](std::size_t lane, std::size_t phase) {
          // The barrier's write to `epoch` must be visible here.
          if (epoch != phase) ++violations;
          // The *rival* lane's previous-phase publication must be visible:
          // this read is cross-thread and non-atomic on purpose.
          const std::size_t rival = (lane + 1) % lanes;
          if (phase > 0 &&
              published[(phase - 1) % 2][rival] != (phase - 1) * lanes + rival)
            ++violations;
          sinks[lane].value +=
              churn(lane * 977 + phase, (lane * 31 + phase * 7) % 997);
          published[phase % 2][lane] = phase * lanes + lane;
        },
        [&](std::size_t phase) {
          // Serial section: every lane's write of this phase is visible.
          for (std::size_t lane = 0; lane < lanes; ++lane)
            if (published[phase % 2][lane] != phase * lanes + lane)
              ++violations;
          ++epoch;
          return phase + 1 < phases;
        });

    for (const auto& lane_total : sinks) sink += lane_total.value;
    EXPECT_EQ(violations.load(), 0) << "threads=" << threads;
    EXPECT_EQ(epoch, phases);
  }
  // Keep the spin loops alive past the optimizer.
  EXPECT_NE(sink, 0u);
}

// Generation churn: back-to-back parallel_for jobs reusing the same pool,
// each writing plain per-index slots the main thread reads immediately
// after the call returns. Verifies the per-job join edge (worker write →
// parallel_for return) across many generations, including empty jobs.
TEST(concurrency_stress, parallel_for_generations_publish_results) {
  vtm::util::thread_pool pool(3);
  constexpr std::size_t rounds = 200;
  constexpr std::size_t n = 17;  // odd, > workers, exercises work stealing
  std::vector<std::uint64_t> out(n, 0);
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round % 16 == 15) {
      pool.parallel_for(0, [&](std::size_t) { FAIL() << "empty job ran"; });
      continue;
    }
    pool.parallel_for(n, [&](std::size_t i) {
      out[i] = churn(round * n + i, 1 + (i * 13 + round) % 61);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out[i], churn(round * n + i, 1 + (i * 13 + round) % 61))
          << "round " << round << " index " << i;
  }
}

// A lane exception mid-run must drain cleanly (no worker left touching
// shared state after run_phased returns) and leave the pool reusable.
TEST(concurrency_stress, run_phased_survives_lane_exception_under_load) {
  vtm::util::thread_pool pool(4);
  constexpr std::size_t lanes = 11;
  std::vector<std::size_t> scratch(lanes, 0);
  EXPECT_THROW(pool.run_phased(
                   lanes,
                   [&](std::size_t lane, std::size_t phase) {
                     scratch[lane] = churn(lane, 50 + lane) % 1000;
                     if (phase == 2 && lane == 7) throw std::runtime_error("x");
                   },
                   [](std::size_t) { return true; }),
               std::runtime_error);
  // The pool survives and the barrier protocol still orders a fresh run.
  std::size_t epoch = 0;
  std::atomic<int> violations{0};
  pool.run_phased(
      lanes,
      [&](std::size_t, std::size_t phase) {
        if (epoch != phase) ++violations;
      },
      [&](std::size_t phase) {
        ++epoch;
        return phase + 1 < 3;
      });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(epoch, 3u);
}

// Lane affinity: every lane runs on one thread for the whole run — the
// caller's when its index is a multiple of the participant count (workers +
// 1), a worker's otherwise — and each phase's one barrier runs after every
// lane of the phase has returned, on one of those participants' threads.
// Lanes record their phase-0 thread in plain slots and compare against it
// every later phase, so under TSan the test also checks that the atomic
// hand-off orders those reads.
TEST(concurrency_stress, run_phased_keeps_each_lane_on_one_thread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::uint64_t sink = 0;
  for (const std::size_t threads : {1u, 3u}) {
    vtm::util::thread_pool pool(threads);
    const std::size_t participants = threads + 1;
    const std::size_t lanes = 2 * participants + 1;
    std::vector<std::thread::id> home(lanes);
    std::vector<lane_sink> moves(lanes);
    std::vector<lane_sink> sinks(lanes);
    std::vector<lane_sink> returned(lanes);  // phases the lane has finished
    std::vector<std::thread::id> barrier_thread;
    std::size_t barriers_out_of_turn = 0;
    std::size_t barriers = 0;
    pool.run_phased(
        lanes,
        [&](std::size_t lane, std::size_t phase) {
          const std::thread::id self = std::this_thread::get_id();
          if (phase == 0)
            home[lane] = self;
          else if (home[lane] != self)
            ++moves[lane].value;
          sinks[lane].value +=
              churn(lane * 131 + phase, (lane * 17 + phase * 29) % 503);
          returned[lane].value = phase + 1;
        },
        [&](std::size_t phase) {
          barrier_thread.push_back(std::this_thread::get_id());
          bool in_turn = phase == barriers;
          for (const lane_sink& lane : returned)
            in_turn = in_turn && lane.value == phase + 1;
          if (!in_turn) ++barriers_out_of_turn;
          ++barriers;
          return phase + 1 < 30;
        });
    EXPECT_EQ(barriers, 30u);
    EXPECT_EQ(barriers_out_of_turn, 0u) << "threads=" << threads;
    for (std::size_t phase = 0; phase < barrier_thread.size(); ++phase)
      EXPECT_NE(std::find(home.begin(), home.begin() + participants,
                          barrier_thread[phase]),
                home.begin() + participants)
          << "barrier " << phase << " ran off the participants, threads="
          << threads;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      EXPECT_EQ(moves[lane].value, 0u)
          << "lane " << lane << " changed thread, threads=" << threads;
      if (lane % participants == 0)
        EXPECT_EQ(home[lane], caller) << "lane " << lane;
      else
        EXPECT_NE(home[lane], caller) << "lane " << lane;
      // Lanes that share a participant share its thread.
      EXPECT_EQ(home[lane], home[lane % participants]) << "lane " << lane;
      sink += sinks[lane].value;
    }
  }
  EXPECT_NE(sink, 0u);
}

// An exception from a lane, or from the barrier, ends the run at the next
// barrier and rethrows on the caller: the throwing phase's other lanes still
// run, no lane starts another phase, and the pool runs the next job.
TEST(concurrency_stress, run_phased_rethrows_lane_and_barrier_exceptions) {
  vtm::util::thread_pool pool(3);
  constexpr std::size_t lanes = 9;
  std::vector<std::size_t> last_phase(lanes, 0);
  std::size_t barriers = 0;

  // Lane 5 runs on a worker (participant 1 of 4).
  try {
    pool.run_phased(
        lanes,
        [&](std::size_t lane, std::size_t phase) {
          last_phase[lane] = phase;
          if (phase == 2 && lane == 5) throw std::runtime_error("lane");
        },
        [&](std::size_t) {
          ++barriers;
          return true;
        });
    ADD_FAILURE() << "the lane's exception was not rethrown";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "lane");
  }
  EXPECT_EQ(barriers, 2u);  // no barrier ran for the throwing phase
  for (std::size_t lane = 0; lane < lanes; ++lane)
    EXPECT_EQ(last_phase[lane], 2u) << "lane " << lane;

  barriers = 0;
  EXPECT_THROW(pool.run_phased(
                   lanes,
                   [&](std::size_t lane, std::size_t phase) {
                     last_phase[lane] = phase;
                   },
                   [&](std::size_t phase) -> bool {
                     ++barriers;
                     if (phase == 3) throw std::logic_error("barrier");
                     return true;
                   }),
               std::logic_error);
  EXPECT_EQ(barriers, 4u);
  for (std::size_t lane = 0; lane < lanes; ++lane)
    EXPECT_EQ(last_phase[lane], 3u) << "lane " << lane;

  // The pool is still usable, for both kinds of job.
  std::vector<std::size_t> out(lanes, 0);
  pool.parallel_for(lanes, [&](std::size_t i) { out[i] = i + 1; });
  for (std::size_t i = 0; i < lanes; ++i) EXPECT_EQ(out[i], i + 1);
  std::size_t epoch = 0;
  std::atomic<int> violations{0};
  pool.run_phased(
      lanes,
      [&](std::size_t, std::size_t phase) {
        if (epoch != phase) ++violations;
      },
      [&](std::size_t phase) {
        ++epoch;
        return phase + 1 < 5;
      });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(epoch, 5u);
}
