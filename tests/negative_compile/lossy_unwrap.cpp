// Negative-compile proof: a quantity does not decay back to double — the
// boundary to raw-double code (records, tensors) must be an explicit
// .value() unwrap. Must NOT compile.
#include "core/fleet_scenario.hpp"

int main() {
  const vtm::core::fleet_config config;
#ifndef VTM_NEGATIVE_CONTROL
  const double radius = config.coverage_radius_m;  // needs .value()
#else
  const double radius = config.coverage_radius_m.value();
#endif
  return radius > 0.0;
}
