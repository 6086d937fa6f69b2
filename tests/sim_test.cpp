// Tests for the vehicular simulator: event queue, cross-shard mailbox, VT
// model, pre-copy migration engine, highway mobility.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/mailbox.hpp"
#include "sim/mobility.hpp"
#include "sim/precopy.hpp"
#include "sim/vt.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace s = vtm::sim;

// ---- event queue ------------------------------------------------------------

TEST(event_queue, executes_in_time_order) {
  s::event_queue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(event_queue, equal_times_run_fifo) {
  s::event_queue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(event_queue, schedule_in_is_relative) {
  s::event_queue q;
  double fired_at = -1.0;
  q.schedule(2.0, [&] {
    q.schedule_in(1.5, [&] { fired_at = q.now(); });
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(event_queue, cannot_schedule_in_the_past) {
  s::event_queue q;
  q.schedule(5.0, [] {});
  q.step();
  EXPECT_THROW((void)q.schedule(1.0, [] {}), vtm::util::contract_error);
}

TEST(event_queue, run_until_stops_at_horizon) {
  s::event_queue q;
  int count = 0;
  q.schedule(1.0, [&] { ++count; });
  q.schedule(2.0, [&] { ++count; });
  q.schedule(5.0, [&] { ++count; });
  EXPECT_EQ(q.run_until(3.0), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(event_queue, events_can_schedule_events) {
  s::event_queue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) q.schedule_in(1.0, recurse);
  };
  q.schedule(0.0, recurse);
  q.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

TEST(event_queue, run_all_respects_event_budget) {
  s::event_queue q;
  std::function<void()> forever = [&] { q.schedule_in(1.0, forever); };
  q.schedule(0.0, forever);
  EXPECT_EQ(q.run_all(100), 100u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(event_queue, next_event_time_peeks_without_advancing) {
  s::event_queue q;
  EXPECT_FALSE(q.next_event_time().has_value());
  q.schedule(3.0, [] {});
  q.schedule(1.5, [] {});
  ASSERT_TRUE(q.next_event_time().has_value());
  EXPECT_DOUBLE_EQ(*q.next_event_time(), 1.5);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);  // peeking never advances the clock
  q.run_until(2.0);
  ASSERT_TRUE(q.next_event_time().has_value());
  EXPECT_DOUBLE_EQ(*q.next_event_time(), 3.0);
}

// Windowed runs are the sharded engine's primitive: repeated run_until calls
// with increasing horizons execute exactly the events one call would, and
// events landing on a window boundary can still be scheduled at the barrier
// (at == now) and run in the next window at their exact time.
TEST(event_queue, windowed_run_until_matches_single_run) {
  std::vector<std::pair<int, double>> single, windowed;
  const auto drive = [](s::event_queue& q, auto record) {
    for (int i = 0; i < 8; ++i)
      q.schedule(0.7 * i, [record, &q, i] { record(i, q.now()); });
  };
  {
    s::event_queue q;
    drive(q, [&](int i, double t) { single.emplace_back(i, t); });
    q.run_until(10.0);
  }
  {
    s::event_queue q;
    drive(q, [&](int i, double t) { windowed.emplace_back(i, t); });
    for (double t = 2.0; t <= 10.0; t += 2.0) q.run_until(t);
  }
  EXPECT_EQ(single, windowed);

  s::event_queue q;
  int ran_at_boundary = 0;
  q.run_until(5.0);
  q.schedule(5.0, [&] { ++ran_at_boundary; });  // at == now: still legal
  q.run_until(6.0);
  EXPECT_EQ(ran_at_boundary, 1);
}

// The queue's pop order is a stable sort by time over schedule order: exact
// ties run FIFO, and an event scheduled at now() while another is being
// dispatched runs after every event already pending at that time. Random
// schedules over a few distinct times (many exact ties), events that schedule
// more events from their dispatch, and windowed run_until calls followed by
// a drain.
TEST(event_queue, pop_order_is_a_stable_sort_by_time) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    vtm::util::rng gen(seed);
    s::basic_event_queue<std::size_t> q;
    std::vector<double> scheduled_at;  // indexed by schedule order
    std::vector<std::size_t> popped;
    const auto add = [&](double at) {
      q.schedule(at, scheduled_at.size());
      scheduled_at.push_back(at);
    };
    const auto initial = gen.uniform_int(1, 400);
    for (std::int64_t i = 0; i < initial; ++i)
      add(static_cast<double>(gen.uniform_int(0, 12)));
    const auto dispatch = [&](std::size_t id) {
      ASSERT_EQ(q.now(), scheduled_at[id]);
      popped.push_back(id);
      if (scheduled_at.size() >= 4000 || !gen.bernoulli(0.5)) return;
      const auto extra = gen.uniform_int(1, 3);
      for (std::int64_t k = 0; k < extra; ++k)
        add(gen.bernoulli(0.5)
                ? q.now()
                : q.now() + static_cast<double>(gen.uniform_int(0, 3)));
    };
    for (double t = 0.0; t < 10.0; t += 1.0 + static_cast<double>(
                                                 gen.uniform_int(0, 2)))
      q.run_until(t, dispatch);
    q.run_all(std::numeric_limits<std::size_t>::max(), dispatch);
    EXPECT_EQ(q.pending(), 0u);

    std::vector<std::size_t> expected(scheduled_at.size());
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scheduled_at[a] < scheduled_at[b];
                     });
    EXPECT_EQ(popped, expected) << "seed " << seed;
  }
}

namespace {

/// The 4-ary `(time, seq)` min-heap the radix queue replaced, kept as the
/// differential reference: `seq` is the schedule order, so it pops in time
/// order and first-in first-out among equal times.
template <class Payload>
class reference_heap {
 public:
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::optional<double> next_event_time() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().time;
  }

  void schedule(double at, Payload payload) {
    VTM_EXPECTS(at >= now_);
    heap_.push_back(entry{at, next_seq_++, std::move(payload)});
    std::size_t i = heap_.size() - 1;
    entry moving = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / arity;
      if (!before(moving, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(moving);
  }

  template <class Dispatch>
  bool step(Dispatch&& dispatch) {
    if (heap_.empty()) return false;
    entry top = pop();
    now_ = top.time;
    dispatch(top.payload);
    return true;
  }

  template <class Dispatch>
  std::size_t run_until(double t, Dispatch&& dispatch) {
    VTM_EXPECTS(t >= now_);
    std::size_t executed = 0;
    while (!heap_.empty() && heap_.front().time <= t) {
      step(dispatch);
      ++executed;
    }
    now_ = t;
    return executed;
  }

  template <class Dispatch>
  std::size_t run_all(std::size_t max_events, Dispatch&& dispatch) {
    std::size_t executed = 0;
    while (executed < max_events && step(dispatch)) ++executed;
    return executed;
  }

 private:
  static constexpr std::size_t arity = 4;

  struct entry {
    double time;
    std::uint64_t seq;
    Payload payload;
  };

  [[nodiscard]] static bool before(const entry& a, const entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Take the root out; the last entry refills the hole and sinks.
  entry pop() {
    entry top = std::move(heap_.front());
    entry moving = std::move(heap_.back());
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * arity + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + arity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], moving)) break;
      heap_[i] = std::move(heap_[best]);
      i = best;
    }
    heap_[i] = std::move(moving);
    return top;
  }

  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::vector<entry> heap_;
};

/// One randomized scenario, driven identically on `Queue`. Returns every
/// observation in order: each pop's id and clock, each window's event count,
/// clock and peeked minimum (-1 when empty), and each drain's count. Two
/// queues that pop the same sequence return equal traces.
template <class Queue>
std::vector<double> queue_scenario(std::uint64_t seed) {
  vtm::util::rng gen(seed);
  Queue q;
  std::vector<double> seen;
  std::size_t next_id = 0;
  const auto add = [&](double at) { q.schedule(at, next_id++); };
  // A time at or after `from`: exactly `from`, a small integer step (exact
  // ties across bursts), a continuous step, a step of a few ulps, or a far
  // jump that lands in a high bucket.
  const auto later = [&](double from) {
    switch (gen.uniform_int(0, 4)) {
      case 0:
        return from;
      case 1:
        return from + static_cast<double>(gen.uniform_int(0, 3));
      case 2:
        return from + gen.uniform(0.0, 5.0);
      case 3:
        return std::nextafter(
            from + static_cast<double>(gen.uniform_int(0, 1)),
            std::numeric_limits<double>::infinity());
      default:
        return from + gen.uniform(0.0, 1e6);
    }
  };
  const auto dispatch = [&](std::size_t id) {
    seen.push_back(static_cast<double>(id));
    seen.push_back(q.now());
    if (next_id >= 6000 || !gen.bernoulli(0.4)) return;
    // Schedules from inside a dispatch, half of them at now(): those run
    // after every event already pending at this time.
    const auto extra = gen.uniform_int(1, 3);
    for (std::int64_t k = 0; k < extra; ++k)
      add(gen.bernoulli(0.5) ? q.now() : later(q.now()));
  };
  const auto peek = [&] {
    const auto next = q.next_event_time();
    seen.push_back(next ? *next : -1.0);
    return next;
  };

  add(-0.0);  // the same instant as +0.0, first in line
  for (int round = 0; round < 3; ++round) {
    // Refill (after the previous round's drain): an equal-time burst, then
    // a spread of times.
    const double burst_at = later(q.now());
    const auto burst = gen.uniform_int(1, 60);
    for (std::int64_t i = 0; i < burst; ++i) add(burst_at);
    const auto spread = gen.uniform_int(0, 300);
    for (std::int64_t i = 0; i < spread; ++i) add(later(q.now()));

    // Windowed runs. After each, peek twice (a peek must not move the base)
    // and schedule between now() and the pending minimum, both ends
    // included: a barrier's injections behind the next event.
    double t = q.now();
    const auto windows = gen.uniform_int(1, 12);
    for (std::int64_t w = 0; w < windows; ++w) {
      t = gen.bernoulli(0.2) ? t : later(t);
      seen.push_back(static_cast<double>(q.run_until(t, dispatch)));
      seen.push_back(q.now());
      const auto next = peek();
      (void)peek();
      if (!next) continue;
      const auto injections = gen.uniform_int(0, 4);
      for (std::int64_t k = 0; k < injections; ++k) {
        switch (gen.uniform_int(0, 2)) {
          case 0:
            add(q.now());
            break;
          case 1:
            add(*next);
            break;
          default:
            add(gen.uniform(q.now(), *next));
        }
      }
      (void)peek();
    }

    // Drain to empty; the next round refills the drained queue.
    seen.push_back(static_cast<double>(
        q.run_all(std::numeric_limits<std::size_t>::max(), dispatch)));
    seen.push_back(static_cast<double>(q.pending()));
    (void)peek();
  }
  return seen;
}

}  // namespace

// The radix queue against the 4-ary heap it replaced: equal-time bursts,
// schedules at now() during dispatch, windowed run_until followed by
// schedules between now() and the pending minimum, peeks that must not move
// the radix base, and drains followed by refills. Any difference in pop
// order, clock or peeked minimum shows up as a trace mismatch.
TEST(event_queue, radix_queue_pops_the_reference_heap_sequence) {
  std::size_t observations = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto radix = queue_scenario<s::basic_event_queue<std::size_t>>(seed);
    const auto reference = queue_scenario<reference_heap<std::size_t>>(seed);
    ASSERT_EQ(radix, reference) << "seed " << seed;
    observations += radix.size();
  }
  EXPECT_GT(observations, 100'000u);
}

// ---- shard mailbox -------------------------------------------------------------

namespace {

/// A message naming its sender, the phase that posted it, and its place in
/// the sender's sequence.
struct letter {
  std::size_t from = 0;
  std::size_t phase = 0;
  std::size_t seq = 0;
};

/// (sender, send order) of every message `to` receives.
std::vector<std::pair<std::size_t, std::size_t>> receive_all(
    s::shard_mailbox<letter>& mailbox, std::size_t to) {
  std::vector<std::pair<std::size_t, std::size_t>> got;
  const std::size_t n = mailbox.receive(
      to, [&](const letter& l) { got.emplace_back(l.from, l.seq); });
  EXPECT_EQ(n, got.size());
  return got;
}

/// Flip `mailbox` under a barrier scope; returns the pending count.
template <typename Message>
std::size_t flip(s::shard_mailbox<Message>& mailbox) {
  const vtm::util::barrier_phase barrier;
  const vtm::util::barrier_scope at_barrier(barrier);
  return mailbox.flip(barrier);
}

/// One lane's error count, on its own cache line.
struct alignas(64) lane_errors {
  std::size_t value = 0;
};

}  // namespace

// Senders post in any interleaving; after a flip each destination receives
// its column in (sender, send order), and receiving clears it.
TEST(shard_mailbox, flipped_inbox_delivers_in_sender_then_send_order) {
  constexpr std::size_t lanes = 3;
  s::shard_mailbox<letter> mailbox(lanes);
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> expected(
      lanes);
  std::size_t posted = 0;
  for (std::size_t seq = 0; seq < 4; ++seq)
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::size_t from = lanes - 1 - k;  // senders interleave
      for (std::size_t to = 0; to < lanes; ++to) {
        if ((from + 2 * to + seq) % 3 == 0) continue;  // uneven cells
        mailbox.post(from, to, {from, 0, seq});
        expected[to].emplace_back(from, seq);
        ++posted;
      }
    }
  EXPECT_EQ(receive_all(mailbox, 0).size(), 0u);  // nothing flipped yet
  EXPECT_EQ(flip(mailbox), posted);
  for (std::size_t to = 0; to < lanes; ++to) {
    std::sort(expected[to].begin(), expected[to].end());
    EXPECT_EQ(receive_all(mailbox, to), expected[to]) << "to " << to;
    EXPECT_TRUE(receive_all(mailbox, to).empty()) << "to " << to;
  }
}

// A flip moves only what was posted before it: later mail waits for the
// next flip, which counts only it.
TEST(shard_mailbox, mail_posted_after_a_flip_waits_for_the_next) {
  s::shard_mailbox<letter> mailbox(2);
  mailbox.post(0, 1, {0, 0, 0});
  EXPECT_EQ(flip(mailbox), 1u);
  mailbox.post(1, 1, {1, 1, 0});
  mailbox.post(0, 1, {0, 1, 1});
  using got = std::vector<std::pair<std::size_t, std::size_t>>;
  EXPECT_EQ(receive_all(mailbox, 1), (got{{0, 0}}));
  EXPECT_EQ(flip(mailbox), 2u);
  EXPECT_EQ(receive_all(mailbox, 1), (got{{0, 1}, {1, 0}}));
  EXPECT_EQ(flip(mailbox), 0u);
  EXPECT_TRUE(receive_all(mailbox, 1).empty());
}

// `flip` returns how many messages it made deliverable, over every cell,
// and refuses to bury a previous flip's unread mail.
TEST(shard_mailbox, flip_returns_the_pending_count) {
  s::shard_mailbox<int> mailbox(3);
  EXPECT_EQ(flip(mailbox), 0u);
  for (int i = 0; i < 5; ++i) mailbox.post(2, 0, i);
  mailbox.post(0, 1, 5);
  mailbox.post(1, 1, 6);
  mailbox.post(1, 1, 7);
  EXPECT_EQ(flip(mailbox), 8u);
  mailbox.post(0, 2, 8);
  EXPECT_THROW((void)flip(mailbox), vtm::util::contract_error);
}

// The barrier-side `deliver` drains everything buffered for one
// destination: the flipped mail first, then what was posted since.
TEST(shard_mailbox, barrier_delivery_takes_flipped_then_posted_mail) {
  s::shard_mailbox<int> mailbox(2);
  mailbox.post(1, 0, 1);
  mailbox.post(0, 0, 0);
  EXPECT_EQ(flip(mailbox), 2u);
  mailbox.post(1, 0, 3);
  mailbox.post(0, 0, 2);
  std::vector<int> got;
  const vtm::util::barrier_phase barrier;
  const vtm::util::barrier_scope at_barrier(barrier);
  EXPECT_EQ(mailbox.deliver(0, [&](int m) { got.push_back(m); }, barrier), 4u);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(mailbox.flip(barrier), 0u);
}

// The protocol on real threads: each lane receives its inbox as its phase
// starts, then posts to every lane; the barrier flips. Every lane must see
// exactly the previous phase's mail, in (sender, send order). Under TSan
// this also checks that the pool's barrier orders the cell writes of one
// phase before the reads of the next.
TEST(shard_mailbox, lanes_receive_last_phase_mail_across_threads) {
  constexpr std::size_t lanes = 4;
  constexpr std::size_t phases = 40;
  vtm::util::thread_pool pool(lanes - 1);
  s::shard_mailbox<letter> mailbox(lanes);
  const vtm::util::barrier_phase barrier;
  std::vector<lane_errors> errors(lanes);
  std::size_t flipped = 0;
  std::size_t barrier_errors = 0;
  // Lane l sends (l + to + phase) % 3 messages to lane `to`.
  const auto sent = [](std::size_t from, std::size_t to, std::size_t phase) {
    return (from + to + phase) % 3;
  };
  pool.run_phased(
      lanes,
      [&](std::size_t lane, std::size_t phase) {
        std::size_t from = 0;
        std::size_t seq = 0;
        std::size_t received = 0;
        mailbox.receive(lane, [&](const letter& l) {
          // Senders in order, each sender's messages in send order.
          if (l.from < from || phase == 0 || l.phase != phase - 1)
            ++errors[lane].value;
          if (l.from != from) seq = 0;
          if (l.seq != seq++) ++errors[lane].value;
          from = l.from;
          ++received;
        });
        std::size_t expected = 0;
        for (std::size_t f = 0; phase > 0 && f < lanes; ++f)
          expected += sent(f, lane, phase - 1);
        if (received != expected) ++errors[lane].value;
        for (std::size_t to = 0; to < lanes; ++to)
          for (std::size_t k = 0; k < sent(lane, to, phase); ++k)
            mailbox.post(lane, to, {lane, phase, k});
      },
      [&](std::size_t phase) {
        const vtm::util::barrier_scope at_barrier(barrier);
        std::size_t expected = 0;
        for (std::size_t f = 0; f < lanes; ++f)
          for (std::size_t to = 0; to < lanes; ++to)
            expected += sent(f, to, phase);
        const std::size_t pending = mailbox.flip(barrier);
        if (pending != expected) ++barrier_errors;
        flipped += pending;
        return phase + 1 < phases;
      });
  EXPECT_EQ(barrier_errors, 0u);
  for (std::size_t lane = 0; lane < lanes; ++lane)
    EXPECT_EQ(errors[lane].value, 0u) << "lane " << lane;
  EXPECT_GT(flipped, 0u);
}

// ---- vehicular twin ------------------------------------------------------------

TEST(vt, totals_add_up) {
  s::vt_config config;
  config.system_config_mb = vtm::util::megabytes{2.0};
  config.memory_pages = 100;
  config.page_mb = vtm::util::megabytes{0.5};
  config.runtime_state_mb = vtm::util::megabytes{3.0};
  s::vehicular_twin twin(7, config);
  EXPECT_EQ(twin.vmu_id(), 7u);
  EXPECT_DOUBLE_EQ(twin.memory_mb(), 50.0);
  EXPECT_DOUBLE_EQ(twin.total_mb(), 55.0);
}

TEST(vt, with_total_mb_hits_requested_footprint) {
  for (double total : {100.0, 137.5, 200.0, 300.0}) {
    const auto twin = s::vehicular_twin::with_total_mb(1, total);
    EXPECT_NEAR(twin.total_mb(), total, 1e-9) << "total " << total;
    EXPECT_GT(twin.config().memory_pages, 0u);
    EXPECT_GT(twin.config().system_config_mb.value(), 0.0);
  }
}

TEST(vt, migration_bookkeeping) {
  auto twin = s::vehicular_twin::with_total_mb(1, 100.0);
  EXPECT_EQ(twin.migration_count(), 0u);
  twin.set_host_rsu(3);
  twin.record_migration();
  EXPECT_EQ(twin.host_rsu(), 3u);
  EXPECT_EQ(twin.migration_count(), 1u);
}

TEST(vt, rejects_invalid_config) {
  s::vt_config bad;
  bad.system_config_mb = vtm::util::megabytes{-1.0};
  EXPECT_THROW((void)s::vehicular_twin(0, bad), vtm::util::contract_error);
  EXPECT_THROW((void)s::vehicular_twin::with_total_mb(0, 0.0),
               vtm::util::contract_error);
}

// ---- pre-copy migration ------------------------------------------------------------

TEST(precopy, zero_dirty_rate_equals_cold_copy) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 200.0);
  const double rate = 520.0;  // MB/s
  const auto report = s::run_precopy(twin, rate);
  EXPECT_TRUE(report.converged);
  EXPECT_NEAR(report.total_sent_mb, twin.total_mb(), 1e-9);
  EXPECT_NEAR(report.total_time_s, s::cold_copy_seconds(twin, rate), 1e-9);
  EXPECT_NEAR(report.amplification(twin.total_mb()), 1.0, 1e-9);
}

TEST(precopy, dirty_pages_inflate_transfer) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 200.0);
  s::precopy_params dirty;
  dirty.dirty_rate_mb_s = vtm::util::mb_per_s{100.0};
  const auto clean_report = s::run_precopy(twin, 520.0);
  const auto dirty_report = s::run_precopy(twin, 520.0, dirty);
  EXPECT_GT(dirty_report.total_sent_mb, clean_report.total_sent_mb);
  EXPECT_GT(dirty_report.total_time_s, clean_report.total_time_s);
  EXPECT_GT(dirty_report.amplification(twin.total_mb()), 1.0);
  EXPECT_TRUE(dirty_report.converged);
}

TEST(precopy, transfer_time_matches_geometric_series) {
  // Fluid model with dirty ratio ρ = w/r: memory rounds send
  // M, Mρ, Mρ², ... until the residue hits the stop-copy threshold.
  s::vt_config config;
  config.system_config_mb = vtm::util::megabytes{0.0};
  config.memory_pages = 1000;
  config.page_mb = vtm::util::megabytes{0.1};  // M = 100 MB
  config.runtime_state_mb = vtm::util::megabytes{0.0};
  const s::vehicular_twin twin(1, config);
  const double rate = 50.0, dirty = 10.0;  // ρ = 0.2
  s::precopy_params params;
  params.dirty_rate_mb_s = vtm::util::mb_per_s{dirty};
  params.stop_copy_threshold_mb = vtm::util::megabytes{1.0};
  const auto report = s::run_precopy(twin, rate, params);
  ASSERT_TRUE(report.converged);
  // Residues: 100, 20, 4, 0.8 (<1 stops). Sent: 100+20+4 then 0.8 final.
  EXPECT_NEAR(report.total_sent_mb, 124.8, 1e-9);
  EXPECT_NEAR(report.total_time_s, 124.8 / 50.0, 1e-9);
  EXPECT_NEAR(report.downtime_s, 0.8 / 50.0, 1e-9);
  ASSERT_EQ(report.rounds, 4u);  // 3 iterative + stop-and-copy
  EXPECT_GT(report.downtime_s, 0.0);  // the last phase paused the twin
}

TEST(precopy, downtime_bounded_by_threshold_plus_state) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 300.0);
  s::precopy_params params;
  params.dirty_rate_mb_s = vtm::util::mb_per_s{200.0};
  params.stop_copy_threshold_mb = vtm::util::megabytes{2.0};
  const double rate = 400.0;
  const auto report = s::run_precopy(twin, rate, params);
  ASSERT_TRUE(report.converged);
  const double worst_final_mb =
      params.stop_copy_threshold_mb.value() + twin.config().runtime_state_mb.value();
  EXPECT_LE(report.downtime_s, worst_final_mb / rate + 1e-9);
}

TEST(precopy, non_convergent_when_dirty_exceeds_rate) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 100.0);
  s::precopy_params params;
  params.dirty_rate_mb_s = vtm::util::mb_per_s{100.0};  // dirtying as fast as sending
  const auto report = s::run_precopy(twin, 50.0, params);
  EXPECT_FALSE(report.converged);
  // Still terminates and still moves the twin (forced stop-and-copy).
  EXPECT_GE(report.total_sent_mb, twin.total_mb());
}

TEST(precopy, round_budget_forces_stop) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 100.0);
  s::precopy_params params;
  params.dirty_rate_mb_s = vtm::util::mb_per_s{40.0};
  params.max_rounds = 2;
  params.stop_copy_threshold_mb = vtm::util::megabytes{0.001};
  const auto report = s::run_precopy(twin, 50.0, params);
  EXPECT_FALSE(report.converged);
  EXPECT_GE(report.downtime_s, 0.0);
}

TEST(precopy, monotone_in_dirty_rate) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 150.0);
  double previous_time = 0.0;
  for (double dirty : {0.0, 20.0, 40.0, 60.0, 80.0}) {
    s::precopy_params params;
    params.dirty_rate_mb_s = vtm::util::mb_per_s{dirty};
    const auto report = s::run_precopy(twin, 200.0, params);
    EXPECT_GE(report.total_time_s, previous_time) << "dirty " << dirty;
    previous_time = report.total_time_s;
  }
}

TEST(precopy, rejects_invalid_arguments) {
  const auto twin = s::vehicular_twin::with_total_mb(1, 100.0);
  EXPECT_THROW((void)s::run_precopy(twin, 0.0), vtm::util::contract_error);
  s::precopy_params bad;
  bad.max_rounds = 0;
  EXPECT_THROW((void)s::run_precopy(twin, 10.0, bad), vtm::util::contract_error);
}

// ---- mobility ---------------------------------------------------------------------

TEST(mobility, advance_moves_vehicle) {
  const s::vehicle_state v{100.0, 25.0};
  const auto moved = s::advance(v, 4.0);
  EXPECT_DOUBLE_EQ(moved.position_m, 200.0);
  EXPECT_THROW((void)s::advance(v, -1.0), vtm::util::contract_error);
}

TEST(mobility, chain_geometry) {
  const s::rsu_chain chain(4, 1000.0, 600.0);
  EXPECT_EQ(chain.count(), 4u);
  EXPECT_DOUBLE_EQ(chain.center_m(0), 1000.0);
  EXPECT_DOUBLE_EQ(chain.center_m(3), 4000.0);
  EXPECT_DOUBLE_EQ(chain.handover_position_m(1), 2500.0);
  EXPECT_DOUBLE_EQ(chain.link_distance_m(0, 2), 2000.0);
}

TEST(mobility, rejects_gapped_coverage) {
  EXPECT_THROW((void)s::rsu_chain(3, 1000.0, 400.0), vtm::util::contract_error);
}

TEST(mobility, serving_rsu_is_nearest) {
  const s::rsu_chain chain(3, 1000.0, 600.0);
  EXPECT_EQ(chain.serving_rsu(0.0), 0u);      // before the chain
  EXPECT_EQ(chain.serving_rsu(1200.0), 0u);
  EXPECT_EQ(chain.serving_rsu(1600.0), 1u);
  EXPECT_EQ(chain.serving_rsu(2499.0), 1u);
  EXPECT_EQ(chain.serving_rsu(2600.0), 2u);
  EXPECT_EQ(chain.serving_rsu(9999.0), 2u);   // past the chain
}

// One serving rule on every chain: the serving cell is the number of cell
// midpoints at or before the position, so a position exactly on a midpoint
// belongs to the next cell, and one ulp short of it to the previous one.
TEST(mobility, serving_rule_on_a_non_uniform_chain) {
  const s::rsu_chain chain(std::vector<double>{800.0, 2000.0, 2900.0, 4400.0,
                                               5200.0, 6800.0},
                           900.0);
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < chain.count(); ++i) {
    const double midpoint = chain.handover_position_m(i);
    EXPECT_EQ(midpoint, 0.5 * (chain.center_m(i) + chain.center_m(i + 1)));
    EXPECT_EQ(chain.serving_rsu(midpoint), i + 1) << i;
    EXPECT_EQ(chain.serving_rsu(std::nextafter(midpoint, -inf)), i) << i;
    EXPECT_EQ(chain.serving_rsu(std::nextafter(midpoint, inf)), i + 1) << i;
    EXPECT_EQ(chain.serving_rsu(chain.center_m(i)), i) << i;
  }
  EXPECT_EQ(chain.serving_rsu(-1e9), 0u);
  EXPECT_EQ(chain.serving_rsu(1e9), chain.count() - 1);
}

TEST(mobility, forward_handover_event) {
  const s::rsu_chain chain(3, 1000.0, 600.0);
  const s::vehicle_state v{1200.0, 30.0};  // serving RSU 0, boundary at 1500
  const auto event = chain.next_handover(v);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->from_rsu, 0u);
  EXPECT_EQ(event->to_rsu, 1u);
  EXPECT_NEAR(event->after_s, 10.0, 1e-9);
}

TEST(mobility, backward_handover_event) {
  const s::rsu_chain chain(3, 1000.0, 600.0);
  const s::vehicle_state v{1800.0, -30.0};  // serving RSU 1, boundary at 1500
  const auto event = chain.next_handover(v);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->from_rsu, 1u);
  EXPECT_EQ(event->to_rsu, 0u);
  EXPECT_NEAR(event->after_s, 10.0, 1e-9);
}

TEST(mobility, no_handover_for_stationary_or_terminal) {
  const s::rsu_chain chain(3, 1000.0, 600.0);
  EXPECT_FALSE(chain.next_handover({1200.0, 0.0}).has_value());
  EXPECT_FALSE(chain.next_handover({2900.0, 30.0}).has_value());  // last RSU
  EXPECT_FALSE(chain.next_handover({500.0, -30.0}).has_value());  // first RSU
}

TEST(mobility, consecutive_handovers_cover_the_chain) {
  const s::rsu_chain chain(5, 800.0, 450.0);
  s::vehicle_state v{400.0, 20.0};
  std::size_t crossings = 0;
  for (;;) {
    const auto event = chain.next_handover(v);
    if (!event) break;
    v = s::advance(v, event->after_s + 1e-9);
    ++crossings;
    ASSERT_LE(crossings, 10u) << "runaway handover loop";
  }
  EXPECT_EQ(crossings, 4u);  // 5 RSUs -> 4 boundaries
}
