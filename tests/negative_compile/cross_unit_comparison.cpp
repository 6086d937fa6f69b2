// Negative-compile proof: ordering is defined per unit only (defaulted
// operator<=> on the same quantity type); comparing a distance against a
// duration is a category error. Must NOT compile.
#include "util/quantity.hpp"

int main() {
#ifndef VTM_NEGATIVE_CONTROL
  return vtm::util::meters{500.0} < vtm::util::seconds{500.0};
#else
  return vtm::util::meters{500.0} < vtm::util::meters{600.0};
#endif
}
