#include "util/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

#include "util/contracts.hpp"

namespace vtm::util {

namespace {

/// Round-trip-exact double formatting shared by every JSON field, so two
/// registries with bitwise-equal values serialize to identical bytes.
void write_double(std::ostream& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out << buf;
}

void validate_name(const std::string& name) {
  // Names are dotted identifiers, so the JSON writer needs no escapes.
  VTM_EXPECTS(!name.empty());
  for (const char c : name)
    VTM_EXPECTS((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-');
}

}  // namespace

metric_id metrics_registry::histogram(std::string name,
                                      std::vector<double> bounds) {
  validate_name(name);
  VTM_EXPECTS(std::is_sorted(bounds.begin(), bounds.end()));
  for (std::size_t i = 0; i < histograms_.size(); ++i)
    if (histograms_[i].name == name) {
      VTM_EXPECTS(histograms_[i].bounds == bounds);
      return i;
    }
  histogram_snapshot def;
  def.name = std::move(name);
  def.bounds = std::move(bounds);
  def.buckets.assign(def.bounds.size() + 1, 0);
  histograms_.push_back(std::move(def));
  return histograms_.size() - 1;
}

void metrics_registry::observe(metric_id histogram, double value) {
  auto& h = histograms_[histogram];
  const auto it = std::lower_bound(h.bounds.begin(), h.bounds.end(), value);
  ++h.buckets[static_cast<std::size_t>(it - h.bounds.begin())];
  h.min = h.count == 0 ? value : std::min(h.min, value);
  h.max = h.count == 0 ? value : std::max(h.max, value);
  ++h.count;
  h.sum += value;
}

void metrics_registry::write_json(std::ostream& out) const {
  out << "{\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const auto& h = histograms_[i];
    out << (i == 0 ? "\n    \"" : ",\n    \"") << h.name
        << "\": {\"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out << ", ";
      write_double(out, h.bounds[b]);
    }
    out << "], \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out << ", ";
      out << h.buckets[b];
    }
    out << "], \"count\": " << h.count << ", \"sum\": ";
    write_double(out, h.sum);
    out << ", \"min\": ";
    write_double(out, h.min);
    out << ", \"max\": ";
    write_double(out, h.max);
    out << '}';
  }
  out << "\n  }\n}\n";
}

}  // namespace vtm::util
