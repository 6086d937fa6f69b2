// Vehicular Twin (VT) data model.
//
// Per the paper, the migrated VT data D_n consists of system configuration
// (CPU/GPU description), historical memory data, and real-time state, and the
// twin "can be transmitted in the form of blocks". This module models a VT as
// those three components, with memory organised as pages (the unit the
// pre-copy engine re-sends when dirtied).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/quantity.hpp"

namespace vtm::sim {

/// Static description of a VT's migratable footprint. Data volumes are typed
/// megabytes (util/quantity.hpp) so a page size cannot be confused with a
/// rate or a duration at compile time.
struct vt_config {
  util::megabytes system_config_mb{2.0};  ///< CPU/GPU/device description.
  std::size_t memory_pages = 792;         ///< Historical memory page count.
  util::megabytes page_mb{0.25};          ///< Page size in MB.
  util::megabytes runtime_state_mb{0.0};  ///< Real-time stop-and-copy state.
};

/// A vehicular twin instance deployed on an RSU edge server.
class vehicular_twin {
 public:
  /// Identifier plus footprint. Requires positive page size when pages > 0
  /// and non-negative block sizes.
  vehicular_twin(std::uint64_t vmu_id, const vt_config& config);

  /// Convenience: build a twin whose total footprint is `total_mb`, split
  /// into the paper's three components (2% config, 95% memory, 3% state)
  /// with the given page size. Requires total_mb > 0, page_mb > 0.
  [[nodiscard]] static vehicular_twin with_total_mb(std::uint64_t vmu_id,
                                                    double total_mb,
                                                    double page_mb = 0.25);

  /// Owning VMU's identifier.
  [[nodiscard]] std::uint64_t vmu_id() const noexcept { return vmu_id_; }

  /// Footprint description.
  [[nodiscard]] const vt_config& config() const noexcept { return config_; }

  /// Memory footprint in MB (pages x page size).
  [[nodiscard]] double memory_mb() const noexcept;

  /// Total migratable data in MB (config + memory + state) — the paper's D_n.
  [[nodiscard]] double total_mb() const noexcept;

  /// RSU currently hosting the twin.
  [[nodiscard]] std::size_t host_rsu() const noexcept { return host_rsu_; }

  /// Move the twin to another RSU (called when a migration completes).
  void set_host_rsu(std::size_t rsu) noexcept { host_rsu_ = rsu; }

  /// Number of completed migrations over the twin's lifetime.
  [[nodiscard]] std::size_t migration_count() const noexcept {
    return migrations_;
  }

  /// Record a completed migration.
  void record_migration() noexcept { ++migrations_; }

 private:
  std::uint64_t vmu_id_;
  vt_config config_;
  std::size_t host_rsu_ = 0;
  std::size_t migrations_ = 0;
};

}  // namespace vtm::sim
