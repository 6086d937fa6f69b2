// OFDMA bandwidth pool with orthogonality bookkeeping.
//
// The MSP manages the channels between a source RSU and a destination RSU.
// This pool enforces the physical invariant behind the market's B_max
// constraint: the sum of simultaneously granted bandwidth never exceeds the
// pool capacity, and grants are disjoint (orthogonal subchannels).
//
// Grants live in a dense slot vector with a free list, so a steady churn of
// allocate/release reuses the same slots without allocating. A `grant_id`
// carries its slot and the slot's generation at allocation time; releasing a
// grant bumps the generation, so a stale id never reaches the grant that
// reuses its slot, and a free slot's generation is one no id carries yet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/quantity.hpp"

namespace vtm::wireless {

/// Identifier of an active bandwidth grant: the slot index in the low 32
/// bits, the slot's generation (>= 1) in the high 32 bits.
struct grant_id {
  std::uint64_t value = 0;
  [[nodiscard]] bool operator==(const grant_id&) const noexcept = default;
};

/// Allocator over a fixed amount of orthogonal bandwidth (MHz).
class ofdma_pool {
 public:
  /// Pool of `capacity_mhz` (> 0).
  explicit ofdma_pool(double capacity_mhz);

  /// Typed sibling of the raw-double constructor.
  explicit ofdma_pool(util::megahertz capacity)
      : ofdma_pool(capacity.value()) {}

  /// Total capacity in MHz.
  [[nodiscard]] double capacity_mhz() const noexcept { return capacity_; }

  /// Sum of currently granted bandwidth.
  [[nodiscard]] double allocated_mhz() const noexcept { return allocated_; }

  /// Remaining bandwidth.
  [[nodiscard]] double available_mhz() const noexcept {
    return capacity_ - allocated_;
  }

  /// Number of live grants.
  [[nodiscard]] std::size_t active_grants() const noexcept {
    return slots_.size() - free_.size();
  }

  /// Try to grant `mhz` (> 0) of bandwidth; nullopt when it does not fit.
  [[nodiscard]] std::optional<grant_id> allocate(double mhz);

  /// Bandwidth of a live grant; nullopt for unknown ids.
  [[nodiscard]] std::optional<double> grant_mhz(grant_id id) const;

  /// Release a live grant. Returns false for unknown ids (idempotent-safe).
  bool release(grant_id id);

 private:
  struct slot {
    double mhz = 0.0;
    std::uint32_t generation = 1;
  };
  /// Index of the live slot `id` names; nullopt for stale or unknown ids.
  [[nodiscard]] std::optional<std::uint32_t> live_index(grant_id id) const
      noexcept;

  double capacity_;
  double allocated_ = 0.0;
  std::vector<slot> slots_;
  std::vector<std::uint32_t> free_;  ///< Released slots, reused LIFO.
};

}  // namespace vtm::wireless
