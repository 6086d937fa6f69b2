// Lint fixture: must produce NO findings — every violation below carries a
// `vtm-lint: allow(<rule>)` marker, proving the suppression mechanism works
// (and keeping it honest: a marker for the wrong rule would not suppress).
#include <iostream>
#include <random>
#include <string>
#include <unordered_map>

// vtm-lint: allow(raw-random)
std::mt19937 legacy_generator(7);

double diagnostic_only_sum(const std::unordered_map<std::string, double>& m) {
  double sum = 0.0;
  // vtm-lint: allow(unordered-fp-iteration)
  for (const auto& [key, value] : m) {
    sum += value;
  }
  return sum;
}

// A deliberately-raw suffixed member on the double side of the quantity
// boundary: the allow marker must silence the unit-suffix rule.
struct boundary_probe_params {
  // vtm-lint: allow(unit-suffix)
  double scratch_window_s = 0.0;
};

// A config member that is valid at every value: the allow marker must
// silence the config-coverage rule.
struct streaming_config {
  // vtm-lint: allow(config-coverage)  (any offset is valid)
  double phase_offset = 0.0;
};

void validate_streaming_config(const streaming_config&) {}

// One-off diagnostic a maintainer left in on purpose: the marker must
// silence the raw-io rule.
void debug_dump(double value) {
  std::cerr << "probe: " << value << "\n";  // vtm-lint: allow(raw-io)
}
