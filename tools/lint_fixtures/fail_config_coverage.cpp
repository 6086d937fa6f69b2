// Lint fixture: MUST trip exactly `config-coverage`.
//
// `page_mb` feeds the pre-copy model, but `validate_fleet_config` never
// reads it, so a zero page passes validation and then fails a precondition
// at the first migration. The validated quantities and the members that are
// not quantities must not be flagged.
#include <cstddef>

namespace vtm::core {

struct fleet_config {
  util::meters rsu_spacing_m{1000.0};
  util::megabytes page_mb{0.25};  // never validated: flagged
  double unit_cost = 5.0;
  std::size_t vehicle_count = 100;
  bool record_migrations = true;
};

void validate_fleet_config(const fleet_config& config) {
  VTM_EXPECTS(config.rsu_spacing_m > util::meters{0.0});
  VTM_EXPECTS(config.unit_cost > 0.0);
  VTM_EXPECTS(config.vehicle_count >= 1);
}

}  // namespace vtm::core
