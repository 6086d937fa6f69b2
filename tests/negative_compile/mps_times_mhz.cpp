// Negative-compile proof: the operator tables are curated, not a general
// algebra — a speed times a bandwidth has no meaning in this codebase, so
// there is no product_result<mps_tag, megahertz_tag>. Must NOT compile.
#include "util/quantity.hpp"

int main() {
#ifndef VTM_NEGATIVE_CONTROL
  const auto product = vtm::util::mps{30.0} * vtm::util::megahertz{50.0};
#else
  const auto product = vtm::util::mps{30.0} * vtm::util::seconds{2.0};
#endif
  return product.value() > 0.0;
}
