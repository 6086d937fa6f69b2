// Negative-compile proof: scalar scaling is a linear-unit operation;
// doubling a dBm level is not doubling a power (that is +3 dB). Log units
// only compose through the dbm/db table. Must NOT compile.
#include "util/quantity.hpp"

int main() {
#ifndef VTM_NEGATIVE_CONTROL
  const auto twice = 2.0 * vtm::util::dbm{40.0};
#else
  const auto twice = vtm::util::dbm{40.0} + vtm::util::db{3.0};
#endif
  return twice.value() > 0.0;
}
