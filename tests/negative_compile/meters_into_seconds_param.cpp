// Negative-compile proof: a distance cannot be passed where a duration is
// expected. `sim::advance` takes util::seconds (or a raw double on the
// legacy overload); util::meters matches neither. Must NOT compile.
#include "sim/mobility.hpp"

int main() {
  vtm::sim::vehicle_state v{0.0, 30.0};
#ifndef VTM_NEGATIVE_CONTROL
  v = vtm::sim::advance(v, vtm::util::meters{1.0});  // meters is not a duration
#else
  v = vtm::sim::advance(v, vtm::util::seconds{1.0});
#endif
  return 0;
}
