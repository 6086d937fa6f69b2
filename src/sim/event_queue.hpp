// Discrete-event simulation core.
//
// A time-ordered queue of events with a monotone simulation clock. Events
// are keyed by `(time, seq)`, where `seq` is the schedule order: events at
// equal times run first-in first-out, which keeps scenarios deterministic.
// An event scheduled at `now()` while another is being dispatched runs after
// every event already pending at that time.
//
// The queue is written once, as a 4-ary min-heap over a payload type:
//   - `event_queue` stores `std::function<void()>` closures and runs them
//     (tests, benches);
//   - the fleet engine stores a closed, trivially copyable event record and
//     passes a dispatch function to `step` / `run_until` / `run_all`, so its
//     hot loop schedules without allocating (core/fleet_shard.hpp).
// Both instantiations pop in exactly the same `(time, seq)` order. The heap
// grows on first use; an empty queue owns no memory.
//
// For sharded simulations each shard owns one queue and advances it in
// conservative time windows: `run_until(t)` is the windowed-run primitive
// (repeated calls with increasing `t` execute exactly the events a single
// call would), and `next_event_time()` lets a coordinator detect quiescence
// and compute safe window bounds across shards.
#pragma once

#include <algorithm>
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
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event; nullopt when the queue is
  /// empty. Never advances the clock.
  [[nodiscard]] std::optional<double> next_event_time() const noexcept {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().time;
  }

  /// Schedule `payload` at absolute time `at` (>= now()).
  void schedule(double at, Payload payload) {
    VTM_EXPECTS(at >= now_);
    // A callable that can be empty (std::function) must hold a target.
    if constexpr (std::is_invocable_v<Payload&> &&
                  std::is_constructible_v<bool, const Payload&>)
      VTM_EXPECTS(static_cast<bool>(payload));
    heap_.push_back(entry{at, next_seq_++, std::move(payload)});
    sift_up(heap_.size() - 1);
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
    if (heap_.empty()) return false;
    entry top = pop();
    now_ = top.time;
    dispatch(top.payload);
    return true;
  }

  /// Run all events with time <= t, then advance the clock to t (if t > now).
  /// Returns the number of events executed.
  template <class Dispatch = invoke_payload>
  std::size_t run_until(double t, Dispatch&& dispatch = {}) {
    VTM_EXPECTS(t >= now_);
    std::size_t executed = 0;
    while (!heap_.empty() && heap_.front().time <= t) {
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
  static constexpr std::size_t arity = 4;

  struct entry {
    double time;
    std::uint64_t seq;
    Payload payload;
  };

  [[nodiscard]] static bool before(const entry& a, const entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i) {
    entry moving = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / arity;
      if (!before(moving, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(moving);
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

/// The closure instantiation: each event is a callable run at its time.
using event_queue = basic_event_queue<std::function<void()>>;

}  // namespace vtm::sim
