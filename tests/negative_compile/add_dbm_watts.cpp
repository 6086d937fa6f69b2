// Negative-compile proof: a log-scale power (dBm) cannot be added to a
// linear power (watts) — the sum is dimensionally meaningless. Convert with
// util::to_watts / util::to_dbm first. Must NOT compile.
#include "util/units.hpp"

int main() {
  const vtm::util::dbm tx{40.0};
  const vtm::util::watts noise{1.0e-12};
#ifndef VTM_NEGATIVE_CONTROL
  const auto total = tx + noise;  // no operator+(dbm, watts)
#else
  const auto total = vtm::util::to_watts(tx) + noise;
#endif
  return total.value() > 0.0;
}
