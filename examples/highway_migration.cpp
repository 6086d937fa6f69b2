// Highway scenario: the full pipeline the paper motivates — vehicles moving
// along an RSU chain, coverage handovers triggering VT migrations, joint
// epoch-based spot pricing at the Stackelberg equilibrium, bandwidth grants
// from each RSU's OFDMA pool, and pre-copy live migration with dirty-page
// retransmission.
//
// Compares the closed-form AoTM (eq. 1) against the AoTM measured from the
// simulated block timeline for every migration. The cohort column shows how
// many followers were priced together in the migration's market.
//
//   $ ./highway_migration [vehicles] [duration_s] [dirty_rate_mb_s]
#include <cstdio>
#include <cstdlib>

#include "core/fleet_scenario.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  // 4 RSUs, 3 vehicles spawned on the stretch before the first boundary.
  vtm::core::fleet_config config;
  config.rsu_count = 4;
  config.vehicle_count = 3;
  config.spawn_min_m = vtm::util::meters{500.0};
  config.spawn_max_m = vtm::util::meters{1400.0};
  if (argc > 1) config.vehicle_count = std::strtoul(argv[1], nullptr, 10);
  if (argc > 2) config.duration_s = vtm::util::seconds{std::strtod(argv[2], nullptr)};
  if (argc > 3) config.dirty_rate_mb_s = vtm::util::mb_per_s{std::strtod(argv[3], nullptr)};

  std::printf("Highway: %zu RSUs every %.0f m (coverage %.0f m), %zu "
              "vehicles, %.0f s horizon, dirty rate %.0f MB/s, %.1f s "
              "clearing epoch\n\n",
              config.rsu_count, config.rsu_spacing_m.value(),
              config.coverage_radius_m.value(), config.vehicle_count,
              config.duration_s.value(), config.dirty_rate_mb_s.value(),
              config.clearing_epoch_s.value());

  const auto result = vtm::core::run_fleet_scenario(config);

  vtm::util::ascii_table table({"t (s)", "veh", "RSU", "price", "b (MHz)",
                                "cohort", "AoTM eq.1", "AoTM sim", "downtime",
                                "sent (MB)", "U_vmu", "U_msp"});
  for (const auto& m : result.migrations) {
    table.add_row({vtm::util::format_number(m.start_s),
                   std::to_string(m.vehicle),
                   std::to_string(m.from_rsu) + "->" +
                       std::to_string(m.to_rsu),
                   vtm::util::format_number(m.price),
                   vtm::util::format_number(m.bandwidth_mhz),
                   std::to_string(m.cohort),
                   vtm::util::format_number(m.aotm_closed_form),
                   vtm::util::format_number(m.aotm_simulated),
                   vtm::util::format_number(m.downtime_s),
                   vtm::util::format_number(m.data_sent_mb),
                   vtm::util::format_number(m.vmu_utility),
                   vtm::util::format_number(m.msp_utility)});
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nHandovers: %zu (deferred %zu, priced out %zu, abandoned "
              "%zu), migrations completed: %zu\n",
              result.handovers, result.deferred, result.priced_out,
              result.abandoned, result.completed);
  std::printf("MSP total utility: %.1f | VMU total utility: %.1f\n",
              result.msp_total_utility, result.vmu_total_utility);
  std::printf("Mean AoTM: %.3f | pre-copy data amplification: %.3fx\n",
              result.mean_aotm, result.mean_amplification);
  std::printf("\nNote: AoTM(sim) >= AoTM(eq.1) because live pre-copy re-sends"
              " pages dirtied during the transfer; they match exactly when "
              "the dirty rate is 0 (try: %s 3 120 0).\n", argv[0]);
  return 0;
}
