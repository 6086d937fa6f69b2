// Deterministic run metrics: named fixed-bucket histograms.
//
// A fleet run fills its histograms serially at each flush, from the
// completion ledger in global finish-time order (DESIGN.md §16), so
// identical runs produce bitwise-identical values and byte-identical JSON
// regardless of how the OS interleaved the shard lanes — the property
// pinned by tests/telemetry_test.cpp. Counts live in `fleet_result`; the
// registry holds only the distributions the result does not carry.
//
// Determinism contract: only record quantities that are themselves
// deterministic (cohort sizes, bandwidth). Wall-clock durations are *not* —
// they belong in trace spans (util/trace.hpp), which are exempt from the
// bitwise policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace vtm::util {

/// Dense histogram index returned at registration.
using metric_id = std::size_t;

/// One histogram's bounds and totals.
struct histogram_snapshot {
  std::string name;
  std::vector<double> bounds;            ///< Ascending upper bounds.
  std::vector<std::uint64_t> buckets;    ///< bounds.size() + 1 (overflow).
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< Meaningful only when count > 0.
  double max = 0.0;
};

/// Histogram registry. Serial-only: register, observe and read from one
/// thread (the fleet coordinator fills it at flush barriers). Reusing one
/// registry across sequential runs accumulates totals; use a fresh registry
/// per run when comparing runs.
class metrics_registry {
 public:
  metrics_registry() = default;
  metrics_registry(const metrics_registry&) = delete;
  metrics_registry& operator=(const metrics_registry&) = delete;

  /// Register (or look up, by name) a histogram with ascending upper
  /// `bounds`. Re-registration returns the existing id; different bounds
  /// under one name are a contract violation.
  metric_id histogram(std::string name, std::vector<double> bounds);

  /// Record one observation: the first bucket whose bound is >= `value`,
  /// else the overflow bucket.
  void observe(metric_id histogram, double value);

  [[nodiscard]] const histogram_snapshot& histogram_value(metric_id id) const {
    return histograms_[id];
  }

  /// Every histogram as one deterministic JSON object (registration order;
  /// doubles printed round-trip exact, so two bitwise-identical registries
  /// serialize to identical bytes).
  void write_json(std::ostream& out) const;

 private:
  std::vector<histogram_snapshot> histograms_;
};

}  // namespace vtm::util
