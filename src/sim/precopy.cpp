#include "sim/precopy.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace vtm::sim {

migration_report run_precopy(const vehicular_twin& twin, double rate_mb_s,
                             const precopy_params& params) {
  VTM_EXPECTS(rate_mb_s > 0.0);
  VTM_EXPECTS(params.dirty_rate_mb_s >= util::mb_per_s{0.0});
  VTM_EXPECTS(params.stop_copy_threshold_mb > util::megabytes{0.0});
  VTM_EXPECTS(params.max_rounds >= 1);

  migration_report report;
  const double memory_mb = twin.memory_mb();

  // Phase 0: system-configuration block, pushed while the twin stays live.
  // Dirtying during this phase counts against the memory image, but the image
  // is already fully pending, so it does not grow beyond memory_mb.
  if (twin.config().system_config_mb > util::megabytes{0.0}) {
    const double sent_mb = twin.config().system_config_mb.value();
    ++report.rounds;
    report.total_sent_mb += sent_mb;
    report.total_time_s += sent_mb / rate_mb_s;
  }

  // Iterative pre-copy over the memory image (fluid model).
  double pending_mb = memory_mb;
  for (std::size_t round = 0; round < params.max_rounds; ++round) {
    if (pending_mb <= params.stop_copy_threshold_mb.value()) break;
    if (round + 1 == params.max_rounds) {
      report.converged = false;  // round budget forced the pause
      break;
    }
    const double sent_mb = pending_mb;
    const double duration_s = pending_mb / rate_mb_s;
    // Dirt produced while this round streams; cannot exceed the image size.
    const double dirtied_mb =
        std::min(memory_mb, params.dirty_rate_mb_s.value() * duration_s);
    ++report.rounds;
    report.total_sent_mb += sent_mb;
    report.total_time_s += duration_s;
    pending_mb = dirtied_mb;
    // Non-convergent link (dirty rate >= link rate): residue not shrinking.
    if (dirtied_mb >= sent_mb) {
      report.converged = false;
      break;
    }
  }

  // Final stop-and-copy: remaining dirty pages + runtime state, twin paused.
  const double final_mb = pending_mb + twin.config().runtime_state_mb.value();
  if (final_mb > 0.0) {
    ++report.rounds;
    report.total_sent_mb += final_mb;
    report.downtime_s = final_mb / rate_mb_s;
    report.total_time_s += report.downtime_s;
  }

  VTM_ENSURES(report.total_sent_mb >= twin.total_mb() - 1e-9);
  return report;
}

double cold_copy_seconds(const vehicular_twin& twin, double rate_mb_s) {
  VTM_EXPECTS(rate_mb_s > 0.0);
  return twin.total_mb() / rate_mb_s;
}

}  // namespace vtm::sim
