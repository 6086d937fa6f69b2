// Negative-compile proof: typed config fields reject raw doubles — the
// quantity constructor is explicit, so the writer must say what unit the
// number is in (util::meters{1000.0}). Must NOT compile.
#include "core/fleet_scenario.hpp"

int main() {
  vtm::core::fleet_config config;
#ifndef VTM_NEGATIVE_CONTROL
  config.rsu_spacing_m = 1000.0;  // which unit? say util::meters{1000.0}
#else
  config.rsu_spacing_m = vtm::util::meters{1000.0};
#endif
  return static_cast<int>(config.rsu_count);
}
