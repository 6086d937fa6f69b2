// Discrete-event simulation core.
//
// A time-ordered queue of events with a monotone simulation clock. Events
// pop in time order, and events at equal times run first-in first-out, in
// schedule order, which keeps scenarios deterministic. An event scheduled at
// `now()` while another is being dispatched runs after every event already
// pending at that time.
//
// Nothing is ever scheduled before `now()`, so the pending set is a monotone
// priority queue, and the queue is a radix heap over it (Ahuja, Mehlhorn,
// Orlin and Tarjan, J. ACM 1990). The key is the bit pattern of the
// non-negative `double` time, which orders like the time. An event goes in
// the bucket of the highest bit where its key differs from the base, the key
// of the last event popped: 65 buckets, bucket 0 holding keys equal to the
// base as a FIFO. Popping past bucket 0 moves the base to the lowest occupied
// bucket's minimum and redistributes that bucket downwards. Equal keys always
// share a bucket and keep their insertion order, so no sequence number is
// stored. Each bucket keeps its minimum, so `next_event_time()` and
// `run_until`'s stop test peek in O(1) without moving the base: a base moved
// past a window end would reject the events a barrier schedules before it.
//
// The queue is written once, over a payload type:
//   - `event_queue` stores `std::function<void()>` closures and runs them
//     (tests, benches);
//   - the fleet engine stores a closed, trivially copyable event record and
//     passes a dispatch function to `step` / `run_until` / `run_all`, so its
//     hot loop schedules without allocating (core/fleet_shard.hpp).
// Both instantiations pop in exactly the same order. The buckets grow on
// first use and keep their capacity; a new queue owns no memory.
//
// For sharded simulations each shard owns one queue and advances it in
// conservative time windows: `run_until(t)` is the windowed-run primitive
// (repeated calls with increasing `t` execute exactly the events a single
// call would), and `next_event_time()` lets a coordinator detect quiescence
// and compute safe window bounds across shards.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace vtm::sim {

/// Default dispatch: run a callable payload.
struct invoke_payload {
  template <class Payload>
  void operator()(Payload& payload) const {
    payload();
  }
};

/// Time-ordered event executor over `Payload`.
template <class Payload>
class basic_event_queue {
 public:
  /// Current simulation time (seconds). Starts at 0.
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const noexcept { return size_; }

  /// Timestamp of the earliest pending event; nullopt when the queue is
  /// empty. Never advances the clock, and never moves the radix base.
  [[nodiscard]] std::optional<double> next_event_time() const noexcept {
    if (size_ == 0) return std::nullopt;
    return time_of(min_key());
  }

  /// Schedule `payload` at absolute time `at` (>= now()).
  void schedule(double at, Payload payload) {
    VTM_EXPECTS(at >= now_);
    // A callable that can be empty (std::function) must hold a target.
    if constexpr (std::is_invocable_v<Payload&> &&
                  std::is_constructible_v<bool, const Payload&>)
      VTM_EXPECTS(static_cast<bool>(payload));
    const std::uint64_t key = key_of(at);
    push(entry{key, std::move(payload)});
    ++size_;
  }

  /// Schedule `payload` `delay` seconds from now (delay >= 0), at exactly
  /// `now() + delay`.
  void schedule_in(double delay, Payload payload) {
    VTM_EXPECTS(delay >= 0.0);
    schedule(now_ + delay, std::move(payload));
  }

  /// Remove the earliest event, advance the clock to its timestamp, and
  /// pass its payload to `dispatch`. Returns false when the queue is empty.
  template <class Dispatch = invoke_payload>
  bool step(Dispatch&& dispatch = {}) {
    if (size_ == 0) return false;
    entry top = take();
    now_ = time_of(top.key);
    dispatch(top.payload);
    return true;
  }

  /// Run all events with time <= t, then advance the clock to t (if t > now).
  /// Returns the number of events executed.
  template <class Dispatch = invoke_payload>
  std::size_t run_until(double t, Dispatch&& dispatch = {}) {
    VTM_EXPECTS(t >= now_);
    const std::uint64_t limit = key_of(t);
    std::size_t executed = 0;
    // The stop test peeks, so an event past `t` leaves the base where it
    // is: events scheduled later at or after `t` still bucket against it.
    while (size_ != 0 && min_key() <= limit) {
      step(dispatch);
      ++executed;
    }
    now_ = t;
    return executed;
  }

  /// Run until the queue drains or `max_events` have executed.
  /// Returns the number of events executed.
  template <class Dispatch = invoke_payload>
  std::size_t run_all(std::size_t max_events = 1'000'000,
                      Dispatch&& dispatch = {}) {
    std::size_t executed = 0;
    while (executed < max_events && step(dispatch)) ++executed;
    return executed;
  }

 private:
  /// Bucket 0 holds keys equal to the base; bucket b >= 1 holds keys whose
  /// highest bit differing from the base is bit b - 1.
  static constexpr std::size_t bucket_count = 65;

  struct entry {
    std::uint64_t key;
    Payload payload;
  };

  /// The bit pattern of a non-negative double orders like its value; adding
  /// +0.0 turns a -0.0 into +0.0.
  [[nodiscard]] static std::uint64_t key_of(double at) noexcept {
    return std::bit_cast<std::uint64_t>(at + 0.0);
  }
  [[nodiscard]] static double time_of(std::uint64_t key) noexcept {
    return std::bit_cast<double>(key);
  }

  /// Smallest pending key (queue non-empty): the base while bucket 0 holds
  /// unread events, else the minimum of the lowest occupied bucket, whose
  /// keys are all below those of every higher bucket.
  [[nodiscard]] std::uint64_t min_key() const noexcept {
    if (head_ < buckets_[0].size()) return base_;
    return min_[static_cast<std::size_t>(std::countr_zero(occupied_)) + 1];
  }

  void push(entry&& item) {
    const auto b = static_cast<std::size_t>(std::bit_width(item.key ^ base_));
    if (b != 0) {
      const std::uint64_t bit = std::uint64_t{1} << (b - 1);
      min_[b] = (occupied_ & bit) != 0 ? std::min(min_[b], item.key)
                                       : item.key;
      occupied_ |= bit;
    }
    buckets_[b].push_back(std::move(item));
  }

  /// Pop the earliest entry (queue non-empty). When bucket 0 is read out,
  /// the base moves to the lowest occupied bucket's minimum and that bucket
  /// redistributes into the (empty) buckets below it, in insertion order,
  /// so equal keys keep their schedule order.
  entry take() {
    auto& front = buckets_[0];
    if (head_ == front.size()) {
      const auto b =
          static_cast<std::size_t>(std::countr_zero(occupied_)) + 1;
      base_ = min_[b];
      occupied_ &= occupied_ - 1;
      for (auto& item : buckets_[b]) push(std::move(item));
      buckets_[b].clear();
    }
    entry top = std::move(front[head_++]);
    if (head_ == front.size()) {
      front.clear();
      head_ = 0;
    }
    --size_;
    return top;
  }

  double now_ = 0.0;
  std::uint64_t base_ = 0;      ///< Key of the last event popped.
  std::uint64_t occupied_ = 0;  ///< Bit b - 1 set: bucket b is non-empty.
  std::size_t head_ = 0;        ///< Read index of the bucket-0 FIFO.
  std::size_t size_ = 0;
  /// Smallest key in each occupied bucket >= 1, kept on push.
  std::array<std::uint64_t, bucket_count> min_{};
  std::array<std::vector<entry>, bucket_count> buckets_;
};

/// The closure instantiation: each event is a callable run at its time.
using event_queue = basic_event_queue<std::function<void()>>;

}  // namespace vtm::sim
