// Pre-copy live migration engine.
//
// Implements the iterative pre-copy strategy the paper cites ([11], live VM
// migration): round 0 pushes the full memory image while the twin keeps
// running; each subsequent round re-sends the pages dirtied during the
// previous round; when the dirty residue is small enough (or the round budget
// is exhausted) the twin is paused and the residue plus the runtime state are
// sent in a final stop-and-copy phase. The system-configuration block is sent
// up front.
//
// The engine sums the block-transfer timeline phase by phase (it keeps no
// per-round log), and the Age of Twin Migration is measured from it (time
// from first block generation to last block reception) — the simulated
// counterpart of the paper's closed form A_n = D_n / γ_n, which it
// reproduces exactly when the dirty rate is zero.
#pragma once

#include <cstddef>

#include "sim/vt.hpp"
#include "util/quantity.hpp"

namespace vtm::sim {

/// Tunables of the pre-copy algorithm. The dirty rate and the stop-and-copy
/// threshold are typed (util/quantity.hpp) so a rate cannot be passed where
/// a volume is expected; the report below stays raw double (record output).
struct precopy_params {
  util::mb_per_s dirty_rate_mb_s{0.0};  ///< Memory dirtied while live.
  util::megabytes stop_copy_threshold_mb{1.0};  ///< Residue small enough
                                                ///< to pause.
  std::size_t max_rounds = 30;  ///< Iterative round budget (>= 1).
};

/// Summed migration timeline and its derived metrics.
struct migration_report {
  std::size_t rounds = 0;       ///< Config + iterative + final phases run.
  double total_sent_mb = 0.0;   ///< All bytes moved (>= twin footprint).
  double total_time_s = 0.0;    ///< First-block-to-last-block — the AoTM.
  double downtime_s = 0.0;      ///< Stop-and-copy pause (service dark time).
  bool converged = true;        ///< False when the round budget forced stop.

  /// Data amplification versus a single cold copy (1.0 when dirty rate = 0).
  [[nodiscard]] double amplification(double cold_mb) const {
    return cold_mb > 0.0 ? total_sent_mb / cold_mb : 1.0;
  }
};

/// Execute pre-copy migration of `twin` over a link with the given rate.
/// Requires rate_mb_s > 0, non-negative dirty rate, threshold > 0,
/// max_rounds >= 1. Deterministic (fluid dirty-page model).
[[nodiscard]] migration_report run_precopy(const vehicular_twin& twin,
                                           double rate_mb_s,
                                           const precopy_params& params = {});

/// Closed-form transfer time of a cold copy (no dirtying): total_mb / rate.
/// The paper's AoTM formula in MB/MHz-normalized units.
[[nodiscard]] double cold_copy_seconds(const vehicular_twin& twin,
                                       double rate_mb_s);

}  // namespace vtm::sim
