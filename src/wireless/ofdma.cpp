#include "wireless/ofdma.hpp"

#include <limits>

#include "util/contracts.hpp"

namespace vtm::wireless {

namespace {

constexpr std::uint64_t index_mask = 0xffff'ffffULL;

}  // namespace

ofdma_pool::ofdma_pool(double capacity_mhz) : capacity_(capacity_mhz) {
  VTM_EXPECTS(capacity_mhz > 0.0);
}

std::optional<std::uint32_t> ofdma_pool::live_index(grant_id id) const
    noexcept {
  const std::uint64_t index = id.value & index_mask;
  if (index >= slots_.size()) return std::nullopt;
  if (slots_[index].generation != (id.value >> 32)) return std::nullopt;
  return static_cast<std::uint32_t>(index);
}

std::optional<grant_id> ofdma_pool::allocate(double mhz) {
  VTM_EXPECTS(mhz > 0.0);
  // Tolerate floating accumulation at the boundary.
  if (mhz > available_mhz() + 1e-12) return std::nullopt;
  if (free_.empty()) {
    VTM_ASSERT(slots_.size() < std::numeric_limits<std::uint32_t>::max());
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t index = free_.back();
  free_.pop_back();
  slot& s = slots_[index];
  s.mhz = mhz;
  allocated_ += mhz;
  VTM_ENSURES(allocated_ <= capacity_ + 1e-9);
  return grant_id{(std::uint64_t{s.generation} << 32) | index};
}

std::optional<double> ofdma_pool::grant_mhz(grant_id id) const {
  const auto index = live_index(id);
  if (!index) return std::nullopt;
  return slots_[*index].mhz;
}

bool ofdma_pool::release(grant_id id) {
  const auto index = live_index(id);
  if (!index) return false;
  slot& s = slots_[*index];
  allocated_ -= s.mhz;
  if (allocated_ < 0.0) allocated_ = 0.0;  // guard accumulated rounding
  ++s.generation;  // the released id goes stale
  free_.push_back(*index);
  return true;
}

}  // namespace vtm::wireless
