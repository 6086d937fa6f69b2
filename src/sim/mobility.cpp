#include "sim/mobility.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace vtm::sim {

vehicle_state advance(vehicle_state v, double dt) {
  VTM_EXPECTS(dt >= 0.0);
  v.position_m += v.speed_mps * dt;
  return v;
}

rsu_chain::rsu_chain(std::size_t count, double spacing_m,
                     double coverage_radius_m)
    : radius_(coverage_radius_m) {
  VTM_EXPECTS(count >= 1);
  VTM_EXPECTS(spacing_m > 0.0);
  VTM_EXPECTS(coverage_radius_m > 0.0);
  VTM_EXPECTS(coverage_radius_m >= spacing_m / 2.0);
  centers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    centers_.push_back(spacing_m * static_cast<double>(i + 1));
  build_midpoints();
}

rsu_chain::rsu_chain(std::vector<double> centers_m, double coverage_radius_m)
    : centers_(std::move(centers_m)), radius_(coverage_radius_m) {
  VTM_EXPECTS(!centers_.empty());
  VTM_EXPECTS(coverage_radius_m > 0.0);
  double max_gap = 0.0;
  for (std::size_t i = 1; i < centers_.size(); ++i) {
    const double gap = centers_[i] - centers_[i - 1];
    VTM_EXPECTS(gap > 0.0);
    max_gap = std::max(max_gap, gap);
  }
  VTM_EXPECTS(coverage_radius_m >= max_gap / 2.0);
  build_midpoints();
}

void rsu_chain::build_midpoints() {
  midpoints_.reserve(centers_.size() - 1);
  for (std::size_t i = 0; i + 1 < centers_.size(); ++i)
    midpoints_.push_back(0.5 * (centers_[i] + centers_[i + 1]));
  inv_spacing_ = midpoints_.empty()
                     ? 0.0
                     : static_cast<double>(midpoints_.size()) /
                           (centers_.back() - centers_.front());
}

double rsu_chain::center_m(std::size_t i) const {
  VTM_EXPECTS(i < centers_.size());
  return centers_[i];
}

std::size_t rsu_chain::serving_rsu(double position_m) const noexcept {
  if (position_m <= centers_.front()) return 0;
  if (position_m >= centers_.back()) return centers_.size() - 1;
  // The serving cell is the number of midpoints at or before the position.
  // Guess it as the nearest multiple of the mean gap past the first centre
  // (right on an evenly spaced chain), then step against the stored
  // midpoints, so the answer never depends on the guess's rounding.
  std::size_t i = std::min(
      static_cast<std::size_t>(
          (position_m - centers_.front()) * inv_spacing_ + 0.5),
      midpoints_.size());
  while (i > 0 && position_m < midpoints_[i - 1]) --i;
  while (i < midpoints_.size() && position_m >= midpoints_[i]) ++i;
  return i;
}

double rsu_chain::handover_position_m(std::size_t i) const {
  VTM_EXPECTS(i < midpoints_.size());
  return midpoints_[i];
}

std::optional<rsu_chain::handover_event> rsu_chain::next_handover(
    const vehicle_state& vehicle) const {
  if (vehicle.speed_mps == 0.0) return std::nullopt;
  const std::size_t current = serving_rsu(vehicle.position_m);
  if (vehicle.speed_mps > 0.0) {
    if (current + 1 >= centers_.size()) return std::nullopt;
    const double boundary = handover_position_m(current);
    double distance = boundary - vehicle.position_m;
    if (distance <= 0.0) {
      // Already at/past the midpoint but still nearest to `current` due to
      // rounding; treat as immediate crossing.
      distance = 0.0;
    }
    return handover_event{distance / vehicle.speed_mps, current, current + 1};
  }
  if (current == 0) return std::nullopt;
  const double boundary = handover_position_m(current - 1);
  double distance = vehicle.position_m - boundary;
  if (distance <= 0.0) distance = 0.0;
  return handover_event{distance / -vehicle.speed_mps, current, current - 1};
}

double rsu_chain::link_distance_m(std::size_t i, std::size_t j) const {
  VTM_EXPECTS(i < centers_.size());
  VTM_EXPECTS(j < centers_.size());
  return std::abs(centers_[i] - centers_[j]);
}

rsu_chain rsu_chain::shifted(double offset_m) const {
  VTM_EXPECTS(std::isfinite(offset_m));
  std::vector<double> centers = centers_;
  for (double& c : centers) c += offset_m;
  return rsu_chain(std::move(centers), radius_);
}

route_profile::route_profile(rsu_chain chain,
                             std::vector<std::size_t> global_rsus,
                             std::vector<double> seg_end_m,
                             std::vector<double> seg_factor)
    : chain_(std::move(chain)),
      global_(std::move(global_rsus)),
      seg_end_(std::move(seg_end_m)),
      seg_factor_(std::move(seg_factor)) {
  VTM_EXPECTS(global_.size() == chain_.count());
  VTM_EXPECTS(seg_end_.size() == seg_factor_.size());
  for (std::size_t k = 0; k < seg_end_.size(); ++k) {
    VTM_EXPECTS(std::isfinite(seg_end_[k]));
    VTM_EXPECTS(k == 0 || seg_end_[k] > seg_end_[k - 1]);
    VTM_EXPECTS(std::isfinite(seg_factor_[k]) && seg_factor_[k] > 0.0);
    if (seg_factor_[k] != 1.0) unit_factor_ = false;
  }
}

std::size_t route_profile::global_rsu(std::size_t i) const {
  VTM_EXPECTS(i < global_.size());
  return global_[i];
}

std::size_t route_profile::serving_rsu(double position_m) const noexcept {
  return global_[chain_.serving_rsu(position_m)];
}

std::size_t route_profile::segment_at(double position_m) const noexcept {
  const auto it =
      std::upper_bound(seg_end_.begin(), seg_end_.end(), position_m);
  if (it == seg_end_.end()) return seg_end_.size() - 1;
  return static_cast<std::size_t>(it - seg_end_.begin());
}

double route_profile::factor_at(double position_m) const noexcept {
  if (seg_end_.empty()) return 1.0;
  return seg_factor_[segment_at(position_m)];
}

vehicle_state route_profile::advance(vehicle_state v, double dt) const {
  VTM_EXPECTS(dt >= 0.0);
  if (unit_factor_) {
    // Exact `sim::advance` arithmetic — bitwise on degenerate path graphs.
    v.position_m += v.speed_mps * dt;
    return v;
  }
  VTM_EXPECTS(v.speed_mps >= 0.0);
  if (v.speed_mps == 0.0 || dt == 0.0) return v;
  double remaining = dt;
  while (remaining > 0.0) {
    const std::size_t k = segment_at(v.position_m);
    const double eff = v.speed_mps * seg_factor_[k];
    if (v.position_m >= seg_end_.back()) {
      // Cruising past the route end at the last segment's factor.
      v.position_m += eff * remaining;
      return v;
    }
    const double step_s = (seg_end_[k] - v.position_m) / eff;
    if (step_s >= remaining) {
      v.position_m += eff * remaining;
      return v;
    }
    v.position_m = seg_end_[k];
    remaining -= step_s;
  }
  return v;
}

double route_profile::travel_time_s(double from, double to,
                                    double speed) const {
  double t = 0.0;
  double pos = from;
  while (pos < to) {
    const std::size_t k = segment_at(pos);
    const double eff = speed * seg_factor_[k];
    const double end =
        pos >= seg_end_.back() ? to : std::min(seg_end_[k], to);
    t += (end - pos) / eff;
    pos = end;
  }
  return t;
}

std::optional<rsu_chain::handover_event> route_profile::next_handover(
    const vehicle_state& vehicle) const {
  if (unit_factor_) {
    const auto event = chain_.next_handover(vehicle);
    if (!event) return std::nullopt;
    return rsu_chain::handover_event{event->after_s, global_[event->from_rsu],
                                     global_[event->to_rsu]};
  }
  if (vehicle.speed_mps <= 0.0) return std::nullopt;
  const std::size_t current = chain_.serving_rsu(vehicle.position_m);
  if (current + 1 >= chain_.count()) return std::nullopt;
  const double boundary = chain_.handover_position_m(current);
  const double after_s =
      boundary <= vehicle.position_m
          ? 0.0
          : travel_time_s(vehicle.position_m, boundary, vehicle.speed_mps);
  return rsu_chain::handover_event{after_s, global_[current],
                                   global_[current + 1]};
}

}  // namespace vtm::sim
