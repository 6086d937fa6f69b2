// Deterministic cross-shard message transport for windowed simulations.
//
// A sharded discrete-event run advances N shard-local `sim::event_queue`s in
// conservative time windows; anything one shard does to another — a vehicle
// crossing a shard boundary, a request retargeted into a remote pool — is
// posted here during a phase and delivered in the next one. Determinism
// comes from the delivery order: each destination receives its messages in
// (sender shard, send order) sequence, which is a pure function of the
// shard-local executions and never of thread scheduling.
//
// The mailbox is double-buffered. Shards post into one set of (from, to)
// cells; a window barrier `flip`s the sets, an O(1) swap, so what was
// posted becomes deliverable and posting starts on empty cells; during the
// next phase each shard `receive`s its own column of the flipped set while
// every shard already posts into the other.
//
// Concurrency contract — machine-checked, not a comment: during a phase,
// shard `s` may post only with `from == s` and receive only with `to == s`
// (each posting cell is written by exactly one sender, each flipped cell
// read and cleared by exactly one receiver, so no locking is needed);
// `flip` may only run at a barrier, when no shard is executing. The barrier
// side is enforced by Clang thread-safety analysis: `flip` requires a
// `util::barrier_phase` capability that only a barrier callback acquires
// (via `util::barrier_scope`), so a mid-phase flip fails to compile under
// `-Wthread-safety -Werror=thread-safety` (see
// tests/negative_compile/flip_requires_barrier.cpp).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/sync.hpp"

namespace vtm::sim {

/// Double-buffered (from, to)-cell message buffers between `lanes` shards.
template <typename Message>
class shard_mailbox {
 public:
  explicit shard_mailbox(std::size_t lanes)
      : lanes_(lanes), cells_(2 * lanes * lanes), flipped_(lanes * lanes) {
    VTM_EXPECTS(lanes >= 1);
  }

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  /// Post a message from shard `from` to shard `to`, deliverable after the
  /// next flip. Only the owning shard may post on its own row.
  void post(std::size_t from, std::size_t to, Message message) {
    VTM_EXPECTS(from < lanes_ && to < lanes_);
    cells_[posting_ + from * lanes_ + to].messages.push_back(
        std::move(message));
  }

  /// Make everything posted so far deliverable, and post into empty cells
  /// from here on. Every message of the previous flip must have been
  /// received. Returns the number now deliverable. Barrier only: the caller
  /// must hold the run's barrier capability (every lane parked).
  std::size_t flip([[maybe_unused]] const util::barrier_phase& barrier)
      VTM_REQUIRES(barrier) {
    std::size_t pending = 0;
    for (std::size_t c = 0; c < lanes_ * lanes_; ++c) {
      VTM_EXPECTS(cells_[flipped_ + c].messages.empty());
      pending += cells_[posting_ + c].messages.size();
    }
    std::swap(posting_, flipped_);
    return pending;
  }

  /// Deliver every flipped message addressed to `to` in (sender, send
  /// order) sequence, clearing its cells; returns the number delivered. Only
  /// shard `to` may receive its column, during a phase.
  template <typename Fn>
  std::size_t receive(std::size_t to, Fn&& fn) {
    VTM_EXPECTS(to < lanes_);
    return drain(flipped_, to, fn);
  }

  /// Deliver every message buffered for `to` — the flipped ones, then those
  /// posted since the flip, each in (sender, send order) sequence — clearing
  /// them; returns the number delivered. For a caller that posts and
  /// delivers around one barrier without flipping, such as a transport
  /// benchmark. Barrier only: the caller must hold the run's barrier
  /// capability.
  template <typename Fn>
  std::size_t deliver(std::size_t to, Fn&& fn,
                      [[maybe_unused]] const util::barrier_phase& barrier)
      VTM_REQUIRES(barrier) {
    VTM_EXPECTS(to < lanes_);
    const std::size_t flipped = drain(flipped_, to, fn);
    return flipped + drain(posting_, to, fn);
  }

 private:
  /// One (from, to) buffer on its own cache line, so senders posting into
  /// neighbouring cells, and receivers clearing them, do not false-share.
  struct alignas(64) cell {
    std::vector<Message> messages;
  };

  /// Deliver column `to` of the cell set starting at `set`.
  template <typename Fn>
  std::size_t drain(std::size_t set, std::size_t to, Fn& fn) {
    std::size_t delivered = 0;
    for (std::size_t from = 0; from < lanes_; ++from) {
      auto& messages = cells_[set + from * lanes_ + to].messages;
      for (auto& message : messages) fn(message);
      delivered += messages.size();
      messages.clear();
    }
    return delivered;
  }

  std::size_t lanes_;
  /// Both cell sets, each indexed [from * lanes_ + to] from its offset.
  std::vector<cell> cells_;
  std::size_t posting_ = 0;  ///< Offset of the set posted into this phase.
  std::size_t flipped_;      ///< Offset of the set posted before the flip.
};

}  // namespace vtm::sim
