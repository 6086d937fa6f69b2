// Road-network topology: directed edges with per-edge speed profiles, RSU
// sites placed on edges, and entry->exit vehicle routes.
//
// Generalizes the 1-D `rsu_chain` highway to a city-scale graph: nodes are
// intersections and on/off-ramps, edges carry a speed factor (congestion /
// road class), and RSUs sit at arc offsets along edges. Vehicles travel
// entry->exit shortest paths; each route is a 1-D arc-length coordinate, so
// the per-route serving/handover geometry reuses `rsu_chain` through
// `route_profile` (sim/mobility.hpp).
//
// One topology (DESIGN.md §14): the fleet engine runs every config on a
// graph. A chain config is lowered to its path graph (`path`): one edge per
// gap, each RSU at its edge's far end, so the path's single route places the
// sites at the chain's centres and prices the chain's gaps (bit for bit on
// integer spacings; arc positions are summed edge by edge).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/mobility.hpp"

namespace vtm::sim {

/// Intersection / ramp endpoint (coordinates are descriptive only; all
/// distances come from edge lengths).
struct road_node {
  double x_m = 0.0;
  double y_m = 0.0;
};

/// One-way road segment between two nodes.
struct road_edge {
  std::size_t from = 0;
  std::size_t to = 0;
  double length_m = 0.0;
  /// Speed multiplier applied to a vehicle's base speed on this edge
  /// (road class / congestion; 1.0 = free-flow highway).
  double speed_factor = 1.0;
};

/// RSU placed on an edge at an arc offset from the edge's `from` node.
struct rsu_site {
  std::size_t edge = 0;
  double offset_m = 0.0;  ///< In (0, edge length].
};

/// One entry->exit shortest path, as both an edge sequence and a 1-D
/// arc-length coordinate (the substrate `route_profile` is built over).
struct road_route {
  std::size_t entry = 0;
  std::size_t exit = 0;
  std::vector<std::size_t> edges;   ///< Edge indices in traversal order.
  std::vector<std::size_t> sites;   ///< Global RSU indices passed, in order.
  std::vector<double> site_pos_m;   ///< Arc position of each site's centre.
  std::vector<double> seg_end_m;    ///< Cumulative arc end of each edge.
  std::vector<double> seg_factor;   ///< Speed factor of each edge.
  double length_m = 0.0;
};

class road_graph {
 public:
  /// Construction timing + size stats, self-measured by the constructor
  /// (telemetry only — wall-clock values never feed simulation state, so the
  /// bitwise-determinism policy is unaffected; DESIGN.md §16). The fleet
  /// coordinator exports these as a "graph.build" trace event.
  struct build_stats {
    std::int64_t floyd_warshall_ns = 0;  ///< All-pairs shortest-path phase.
    std::int64_t routes_ns = 0;          ///< Route enumeration phase.
  };

  /// Validates and freezes the topology, then computes all-pairs shortest
  /// node distances (deterministic Floyd–Warshall: strict improvement,
  /// ordered iteration) and the entry->exit routes. Sites must arrive sorted
  /// strictly by (edge, offset); routes that pass no site are dropped (no
  /// RSU could host a twin there), and at least one route must survive.
  road_graph(std::vector<road_node> nodes, std::vector<road_edge> edges,
             std::vector<rsu_site> sites, std::vector<std::size_t> entries,
             std::vector<std::size_t> exits, double coverage_radius_m);

  /// The 1-D highway as a path graph: `rsu_count` edges of `spacing_m`,
  /// one site at each edge's far end (centres at spacing, 2·spacing, ... —
  /// the uniform `rsu_chain` layout).
  [[nodiscard]] static road_graph path(std::size_t rsu_count,
                                       double spacing_m,
                                       double coverage_radius_m);

  /// The path through explicit, strictly increasing centres: the first edge
  /// runs from 0 m to the first centre, then one edge per gap, with a site
  /// at each edge's far end. Requires a positive first centre.
  [[nodiscard]] static road_graph path(
      const std::vector<util::meters>& centers,
      util::meters coverage_radius);

  /// rows x cols Manhattan grid DAG (edges point right and down) with one
  /// mid-edge RSU per edge. Horizontal edges are free-flow arterials
  /// (factor 1.0); vertical edges are streets at factor 0.85, so grid routes
  /// exercise the heterogeneous-speed path. Entries are the top/left
  /// boundary nodes, exits the bottom/right.
  [[nodiscard]] static road_graph grid(std::size_t rows, std::size_t cols,
                                       double edge_length_m,
                                       double coverage_radius_m);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edges_.size();
  }
  [[nodiscard]] std::size_t rsu_count() const noexcept {
    return sites_.size();
  }
  [[nodiscard]] std::size_t route_count() const noexcept {
    return routes_.size();
  }
  [[nodiscard]] const road_edge& edge(std::size_t e) const;
  [[nodiscard]] const rsu_site& site(std::size_t s) const;
  [[nodiscard]] const road_route& route(std::size_t r) const;

  /// Graph distance between two RSU sites along the road network (the link
  /// distance d a migration a -> b transfers over): same-edge forward runs
  /// use the offset difference, everything else routes tail-of-a's-edge ->
  /// shortest node path -> head-of-b's-edge. +infinity when unreachable.
  [[nodiscard]] double site_distance_m(std::size_t a, std::size_t b) const;

  /// The gap a site's pool prices: distance from the previous RSU along the
  /// traffic flow (same edge, else the nearest last-site over incoming
  /// edges). Sites with no upstream RSU (entry edges) fall back to their
  /// downstream gap, then to one coverage diameter — mirroring the chain
  /// engine's RSU-0 downstream-gap convention.
  [[nodiscard]] double upstream_gap_m(std::size_t s) const;

  [[nodiscard]] double min_route_length_m() const noexcept {
    return min_route_length_;
  }
  [[nodiscard]] double max_route_length_m() const noexcept {
    return max_route_length_;
  }
  /// Narrowest gap between consecutive handover boundaries (cell midpoints)
  /// over all routes; +infinity when no route has an interior cell. Feeds
  /// the conservative shard window.
  [[nodiscard]] double min_boundary_gap_m() const noexcept {
    return min_boundary_gap_;
  }
  [[nodiscard]] double max_speed_factor() const noexcept {
    return max_speed_factor_;
  }

  /// Constructor timing (see `build_stats`).
  [[nodiscard]] const build_stats& stats() const noexcept { return stats_; }

  /// Build route `r`'s mobility profile: a `rsu_chain` over the route's site
  /// arc positions (coverage inflated to keep the chain contiguous) plus the
  /// per-edge speed segments and the local->global RSU index map.
  [[nodiscard]] route_profile make_route_profile(std::size_t r) const;

 private:
  [[nodiscard]] double& dist_at(std::size_t a, std::size_t b) noexcept {
    return dist_[a * nodes_.size() + b];
  }
  [[nodiscard]] double dist_at(std::size_t a, std::size_t b) const noexcept {
    return dist_[a * nodes_.size() + b];
  }
  /// Append the shortest a -> b edge sequence to `out` (a != b, reachable).
  void append_path_edges(std::size_t a, std::size_t b,
                         std::vector<std::size_t>& out) const;
  void build_routes();

  std::vector<road_node> nodes_;
  std::vector<road_edge> edges_;
  std::vector<rsu_site> sites_;
  std::vector<std::size_t> entries_;
  std::vector<std::size_t> exits_;
  double radius_ = 0.0;
  /// Per-edge [first, first + count) range into the (edge, offset)-sorted
  /// `sites_` array.
  std::vector<std::size_t> edge_first_site_;
  std::vector<std::size_t> edge_site_count_;
  std::vector<double> tail_to_node_m_;  ///< Per node; +inf: no such site.
  std::vector<double> node_to_head_m_;  ///< Per node; +inf: no such site.
  std::vector<double> dist_;          ///< Dense n x n shortest distances.
  std::vector<std::size_t> via_edge_; ///< Best direct edge a -> b (or npos).
  std::vector<std::size_t> mid_node_; ///< FW intermediate node (or npos).
  std::vector<road_route> routes_;
  double min_route_length_ = 0.0;
  double max_route_length_ = 0.0;
  double min_boundary_gap_ = 0.0;
  double max_speed_factor_ = 1.0;
  build_stats stats_;
};

}  // namespace vtm::sim
