// Highway mobility and RSU coverage geometry.
//
// Vehicles travel along a 1-D road covered by a chain of RSUs. A vehicle is
// served by the nearest RSU; crossing the midpoint between two adjacent RSUs
// is the handover event that triggers a VT migration (the paper's motivating
// dynamic: limited RSU coverage + vehicle mobility).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "util/quantity.hpp"

namespace vtm::sim {

/// Kinematic state of one vehicle on the highway. Hot engine state, not a
/// config surface — stays raw double by the boundary policy (DESIGN.md §15).
struct vehicle_state {
  double position_m = 0.0;  ///< Longitudinal position along the highway.
  double speed_mps = 0.0;   ///< Signed speed (positive = toward higher RSUs).
};

/// Advance a vehicle by `dt` seconds of constant-speed motion. dt >= 0.
[[nodiscard]] vehicle_state advance(vehicle_state v, double dt);

/// Typed sibling of `advance` (a meters-for-seconds mixup is a compile
/// error: there is no conversion from any other quantity into `seconds`).
[[nodiscard]] inline vehicle_state advance(vehicle_state v, util::seconds dt) {
  return advance(v, dt.value());
}

/// Geometry of an RSU chain along the highway.
class rsu_chain {
 public:
  /// `count` RSUs centred at spacing, 2·spacing, ... with the given coverage
  /// radius. Requires count >= 1, spacing > 0, 0 < radius, and contiguous
  /// coverage (radius >= spacing/2) so every position is served.
  rsu_chain(std::size_t count, double spacing_m, double coverage_radius_m);

  /// Explicitly-placed (possibly non-uniform) RSU centres, strictly
  /// increasing. Requires every adjacent gap > 0 and contiguous coverage
  /// (radius >= max gap / 2).
  rsu_chain(std::vector<double> centers_m, double coverage_radius_m);

  /// Typed sibling of the uniform constructor.
  rsu_chain(std::size_t count, util::meters spacing,
            util::meters coverage_radius)
      : rsu_chain(count, spacing.value(), coverage_radius.value()) {}

  [[nodiscard]] std::size_t count() const noexcept { return centers_.size(); }
  [[nodiscard]] double coverage_radius_m() const noexcept { return radius_; }

  /// Centre position of RSU `i`. Requires i < count().
  [[nodiscard]] double center_m(std::size_t i) const;

  /// Index of the serving (nearest) RSU for a position on the highway: the
  /// number of cell midpoints at or before it, so a position exactly on a
  /// midpoint belongs to the next cell. Positions beyond the chain clamp to
  /// the first/last RSU.
  [[nodiscard]] std::size_t serving_rsu(double position_m) const noexcept;

  /// Boundary position where service hands over from RSU i to RSU i+1
  /// (the midpoint). Requires i + 1 < count().
  [[nodiscard]] double handover_position_m(std::size_t i) const;

  /// Time until `vehicle` next crosses a handover boundary, and the target
  /// RSU index; nullopt when the vehicle never leaves its serving cell
  /// (zero speed or moving past the end of the chain).
  struct handover_event {
    double after_s = 0.0;      ///< Seconds from now until the boundary.
    std::size_t from_rsu = 0;  ///< Serving RSU before the crossing.
    std::size_t to_rsu = 0;    ///< Serving RSU after the crossing.
  };
  [[nodiscard]] std::optional<handover_event> next_handover(
      const vehicle_state& vehicle) const;

  /// Distance between the centres of two RSUs (the link distance d used by
  /// the channel model when migrating i -> j). Requires valid indices.
  [[nodiscard]] double link_distance_m(std::size_t i, std::size_t j) const;

  /// A copy of this chain with every centre shifted by `offset_m` (gaps and
  /// coverage contiguity are preserved, so any finite offset is valid).
  /// Models a second operator's RSU deployment along the same highway.
  [[nodiscard]] rsu_chain shifted(double offset_m) const;

  /// Typed sibling of `shifted`.
  [[nodiscard]] rsu_chain shifted(util::meters offset) const {
    return shifted(offset.value());
  }

 private:
  /// Stores the cell midpoints; shared tail of both constructors.
  void build_midpoints();

  std::vector<double> centers_;
  std::vector<double> midpoints_;  ///< midpoints_[i] is handover i -> i+1.
  double inv_spacing_;  ///< 1 / mean gap: the serving rule's first guess.
  double radius_;
};

/// Mobility along one road-network route (sim/road_graph.hpp), expressed in
/// the route's 1-D arc-length coordinate. Wraps an `rsu_chain` over the
/// route's RSU arc positions plus the per-edge speed segments, and maps the
/// chain's local indices back to global RSU (site) indices.
///
/// Degeneracy contract: with unit speed factors everywhere the advance and
/// handover arithmetic delegates to the exact `sim::advance` / `rsu_chain`
/// expressions, so a degenerate path-graph profile is bitwise-identical to
/// the raw chain (tests/road_graph_test.cpp pins this).
class route_profile {
 public:
  /// `global_rsus[i]` is the graph-wide RSU index of the chain's RSU i (one
  /// per chain RSU). `seg_end_m`/`seg_factor` give the per-edge speed
  /// segments in arc coordinates (strictly increasing ends, positive
  /// factors); empty means unit factor everywhere. Positions past the last
  /// segment cruise at the last factor.
  route_profile(rsu_chain chain, std::vector<std::size_t> global_rsus,
                std::vector<double> seg_end_m, std::vector<double> seg_factor);

  [[nodiscard]] const rsu_chain& chain() const noexcept { return chain_; }
  [[nodiscard]] std::size_t count() const noexcept { return chain_.count(); }
  /// Global RSU index of the chain's local RSU `i`.
  [[nodiscard]] std::size_t global_rsu(std::size_t i) const;

  /// Serving RSU for an arc position, as a *global* index.
  [[nodiscard]] std::size_t serving_rsu(double position_m) const noexcept;

  /// Advance `dt` seconds along the route, applying each segment's speed
  /// factor piecewise. Requires dt >= 0; heterogeneous-factor profiles
  /// support forward motion only (speed >= 0).
  [[nodiscard]] vehicle_state advance(vehicle_state v, double dt) const;

  /// Next boundary crossing with *global* RSU indices; `after_s` integrates
  /// the segment factors between the position and the boundary. Nullopt when
  /// cruising past the last cell (heterogeneous-factor profiles: also for
  /// non-forward motion).
  [[nodiscard]] std::optional<rsu_chain::handover_event> next_handover(
      const vehicle_state& vehicle) const;

  /// Speed factor in effect at an arc position.
  [[nodiscard]] double factor_at(double position_m) const noexcept;

 private:
  [[nodiscard]] std::size_t segment_at(double position_m) const noexcept;
  /// Seconds to travel from `from` to `to` (arc, from <= to) at base
  /// `speed` through the segment factors.
  [[nodiscard]] double travel_time_s(double from, double to,
                                     double speed) const;

  rsu_chain chain_;
  std::vector<std::size_t> global_;
  std::vector<double> seg_end_;
  std::vector<double> seg_factor_;
  bool unit_factor_ = true;  ///< All factors 1: keep exact chain arithmetic.
};

}  // namespace vtm::sim
