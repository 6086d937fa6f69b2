#include "sim/road_graph.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "util/contracts.hpp"

namespace vtm::sim {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);
constexpr double inf = std::numeric_limits<double>::infinity();

/// Telemetry-only wall clock (never feeds simulation state).
[[nodiscard]] std::int64_t build_clock_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

road_graph::road_graph(std::vector<road_node> nodes,
                       std::vector<road_edge> edges,
                       std::vector<rsu_site> sites,
                       std::vector<std::size_t> entries,
                       std::vector<std::size_t> exits,
                       double coverage_radius_m)
    : nodes_(std::move(nodes)),
      edges_(std::move(edges)),
      sites_(std::move(sites)),
      entries_(std::move(entries)),
      exits_(std::move(exits)),
      radius_(coverage_radius_m) {
  VTM_EXPECTS(!nodes_.empty());
  VTM_EXPECTS(!edges_.empty());
  VTM_EXPECTS(!sites_.empty());
  VTM_EXPECTS(!entries_.empty());
  VTM_EXPECTS(!exits_.empty());
  VTM_EXPECTS(std::isfinite(radius_) && radius_ > 0.0);

  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const auto& edge = edges_[e];
    VTM_EXPECTS(edge.from < nodes_.size());
    VTM_EXPECTS(edge.to < nodes_.size());
    VTM_EXPECTS(edge.from != edge.to);
    VTM_EXPECTS(std::isfinite(edge.length_m) && edge.length_m > 0.0);
    VTM_EXPECTS(std::isfinite(edge.speed_factor) && edge.speed_factor > 0.0);
    max_speed_factor_ = std::max(max_speed_factor_, edge.speed_factor);
  }

  // Sites sorted strictly by (edge, offset): the sorted order *is* the
  // global RSU index space (contiguous site ranges are contiguous edge
  // ranges — the shard tiling relies on this).
  edge_first_site_.assign(edges_.size(), npos);
  edge_site_count_.assign(edges_.size(), 0);
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    const auto& site = sites_[s];
    VTM_EXPECTS(site.edge < edges_.size());
    VTM_EXPECTS(site.offset_m > 0.0 &&
                site.offset_m <= edges_[site.edge].length_m);
    if (s > 0) {
      const auto& prev = sites_[s - 1];
      VTM_EXPECTS(prev.edge < site.edge ||
                  (prev.edge == site.edge && prev.offset_m < site.offset_m));
    }
    if (edge_first_site_[site.edge] == npos) edge_first_site_[site.edge] = s;
    ++edge_site_count_[site.edge];
  }
  // Per node, the shortest run from an incoming edge's last site to the
  // node and from the node to an outgoing edge's first site: the neighbours
  // `upstream_gap_m` prices across a node.
  tail_to_node_m_.assign(nodes_.size(), inf);
  node_to_head_m_.assign(nodes_.size(), inf);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (edge_site_count_[e] == 0) continue;
    const std::size_t first = edge_first_site_[e];
    const std::size_t last = first + edge_site_count_[e] - 1;
    double& tail = tail_to_node_m_[edges_[e].to];
    tail = std::min(tail, edges_[e].length_m - sites_[last].offset_m);
    double& head = node_to_head_m_[edges_[e].from];
    head = std::min(head, sites_[first].offset_m);
  }
  for (const std::size_t node : entries_) VTM_EXPECTS(node < nodes_.size());
  for (const std::size_t node : exits_) VTM_EXPECTS(node < nodes_.size());

  // Deterministic Floyd–Warshall: strict improvement only and fully ordered
  // iteration, so ties resolve to the lowest (edge, intermediate) indices on
  // every platform. The relaxation selects instead of branching, so it
  // vectorizes; row k is skipped, since d(k, k) = 0 means it cannot
  // improve, and so the row being relaxed never aliases row k.
  const std::size_t n = nodes_.size();
  const std::int64_t fw_start_ns = build_clock_ns();
  dist_.assign(n * n, inf);
  via_edge_.assign(n * n, npos);
  mid_node_.assign(n * n, npos);
  for (std::size_t i = 0; i < n; ++i) dist_at(i, i) = 0.0;
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const auto& edge = edges_[e];
    if (edge.length_m < dist_at(edge.from, edge.to)) {
      dist_at(edge.from, edge.to) = edge.length_m;
      via_edge_[edge.from * n + edge.to] = e;
      mid_node_[edge.from * n + edge.to] = npos;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double* __restrict row_k = &dist_[k * n];
    for (std::size_t i = 0; i < n; ++i) {
      if (i == k) continue;
      double* __restrict row_i = &dist_[i * n];
      std::size_t* __restrict mid_i = &mid_node_[i * n];
      const double ik = row_i[k];
      if (!std::isfinite(ik)) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double through = ik + row_k[j];
        const bool better = through < row_i[j];
        row_i[j] = better ? through : row_i[j];
        mid_i[j] = better ? k : mid_i[j];
      }
    }
  }

  const std::int64_t routes_start_ns = build_clock_ns();
  stats_.floyd_warshall_ns = routes_start_ns - fw_start_ns;

  build_routes();
  stats_.routes_ns = build_clock_ns() - routes_start_ns;
  VTM_EXPECTS(!routes_.empty());
}

void road_graph::append_path_edges(std::size_t a, std::size_t b,
                                   std::vector<std::size_t>& out) const {
  const std::size_t mid = mid_node_[a * nodes_.size() + b];
  if (mid == npos) {
    const std::size_t e = via_edge_[a * nodes_.size() + b];
    VTM_ASSERT(e != npos);
    out.push_back(e);
    return;
  }
  append_path_edges(a, mid, out);
  append_path_edges(mid, b, out);
}

void road_graph::build_routes() {
  min_route_length_ = inf;
  max_route_length_ = 0.0;
  min_boundary_gap_ = inf;
  for (const std::size_t entry : entries_) {
    for (const std::size_t exit : exits_) {
      if (entry == exit || !std::isfinite(dist_at(entry, exit))) continue;
      road_route route;
      route.entry = entry;
      route.exit = exit;
      append_path_edges(entry, exit, route.edges);
      double arc = 0.0;
      for (const std::size_t e : route.edges) {
        for (std::size_t s = edge_first_site_[e];
             s != npos && s < edge_first_site_[e] + edge_site_count_[e]; ++s) {
          route.sites.push_back(s);
          route.site_pos_m.push_back(arc + sites_[s].offset_m);
        }
        arc += edges_[e].length_m;
        route.seg_end_m.push_back(arc);
        route.seg_factor.push_back(edges_[e].speed_factor);
      }
      route.length_m = arc;
      if (route.sites.empty()) continue;  // no RSU could host a twin here
      min_route_length_ = std::min(min_route_length_, route.length_m);
      max_route_length_ = std::max(max_route_length_, route.length_m);
      for (std::size_t i = 0; i + 2 < route.site_pos_m.size(); ++i) {
        const double lo =
            0.5 * (route.site_pos_m[i] + route.site_pos_m[i + 1]);
        const double hi =
            0.5 * (route.site_pos_m[i + 1] + route.site_pos_m[i + 2]);
        min_boundary_gap_ = std::min(min_boundary_gap_, hi - lo);
      }
      routes_.push_back(std::move(route));
    }
  }
}

const road_edge& road_graph::edge(std::size_t e) const {
  VTM_EXPECTS(e < edges_.size());
  return edges_[e];
}

const rsu_site& road_graph::site(std::size_t s) const {
  VTM_EXPECTS(s < sites_.size());
  return sites_[s];
}

const road_route& road_graph::route(std::size_t r) const {
  VTM_EXPECTS(r < routes_.size());
  return routes_[r];
}

double road_graph::site_distance_m(std::size_t a, std::size_t b) const {
  VTM_EXPECTS(a < sites_.size());
  VTM_EXPECTS(b < sites_.size());
  const auto& sa = sites_[a];
  const auto& sb = sites_[b];
  if (sa.edge == sb.edge && sb.offset_m >= sa.offset_m)
    return sb.offset_m - sa.offset_m;
  const double between = dist_at(edges_[sa.edge].to, edges_[sb.edge].from);
  if (!std::isfinite(between)) return inf;
  return (edges_[sa.edge].length_m - sa.offset_m) + between + sb.offset_m;
}

double road_graph::upstream_gap_m(std::size_t s) const {
  VTM_EXPECTS(s < sites_.size());
  const auto& site = sites_[s];
  const auto& edge = edges_[site.edge];
  // Previous site on the same edge: plain offset gap.
  if (s > 0 && sites_[s - 1].edge == site.edge)
    return site.offset_m - sites_[s - 1].offset_m;
  // Nearest last site over the incoming edges (rounding is monotone, so
  // adding the offset to the nearest tail is the nearest sum).
  if (std::isfinite(tail_to_node_m_[edge.from]))
    return tail_to_node_m_[edge.from] + site.offset_m;
  // Entry-edge site with nothing upstream: price the downstream gap, like
  // the chain engine's RSU 0.
  if (s + 1 < sites_.size() && sites_[s + 1].edge == site.edge)
    return sites_[s + 1].offset_m - site.offset_m;
  if (std::isfinite(node_to_head_m_[edge.to]))
    return (edge.length_m - site.offset_m) + node_to_head_m_[edge.to];
  return 2.0 * radius_;
}

route_profile road_graph::make_route_profile(std::size_t r) const {
  VTM_EXPECTS(r < routes_.size());
  const auto& route = routes_[r];
  double max_gap = 0.0;
  for (std::size_t i = 1; i < route.site_pos_m.size(); ++i)
    max_gap = std::max(max_gap,
                       route.site_pos_m[i] - route.site_pos_m[i - 1]);
  // Inflate the per-route radius to whatever keeps the chain contiguous:
  // the graph's physical radius governs real coverage, but the route chain
  // only drives serving/handover geometry.
  const double radius = std::max(radius_, 0.5 * max_gap);
  rsu_chain chain(route.site_pos_m, radius);
  return route_profile(std::move(chain), route.sites, route.seg_end_m,
                       route.seg_factor);
}

namespace {

/// A one-way path of edges with the given lengths, one site at each edge's
/// far end, entered at node 0 and left at the last node.
road_graph path_of(const std::vector<double>& lengths_m,
                   double coverage_radius_m) {
  const std::size_t count = lengths_m.size();
  VTM_EXPECTS(count >= 1);
  std::vector<road_node> nodes(count + 1);
  std::vector<road_edge> edges(count);
  std::vector<rsu_site> sites(count);
  for (std::size_t i = 0; i < count; ++i) {
    VTM_EXPECTS(std::isfinite(lengths_m[i]) && lengths_m[i] > 0.0);
    nodes[i + 1].x_m = nodes[i].x_m + lengths_m[i];
    edges[i] = road_edge{i, i + 1, lengths_m[i], 1.0};
    sites[i] = rsu_site{i, lengths_m[i]};
  }
  return road_graph(std::move(nodes), std::move(edges), std::move(sites),
                    {0}, {count}, coverage_radius_m);
}

}  // namespace

road_graph road_graph::path(std::size_t rsu_count, double spacing_m,
                            double coverage_radius_m) {
  return path_of(std::vector<double>(rsu_count, spacing_m),
                 coverage_radius_m);
}

road_graph road_graph::path(const std::vector<util::meters>& centers,
                            util::meters coverage_radius) {
  std::vector<double> gaps(centers.size());
  for (std::size_t i = 0; i < centers.size(); ++i)
    gaps[i] = centers[i].value() - (i > 0 ? centers[i - 1].value() : 0.0);
  return path_of(gaps, coverage_radius.value());
}

road_graph road_graph::grid(std::size_t rows, std::size_t cols,
                            double edge_length_m, double coverage_radius_m) {
  VTM_EXPECTS(rows >= 2 && cols >= 2);
  VTM_EXPECTS(std::isfinite(edge_length_m) && edge_length_m > 0.0);
  const auto node = [cols](std::size_t r, std::size_t c) {
    return r * cols + c;
  };
  std::vector<road_node> nodes(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      nodes[node(r, c)] = road_node{edge_length_m * static_cast<double>(c),
                                    edge_length_m * static_cast<double>(r)};
  std::vector<road_edge> edges;
  std::vector<rsu_site> sites;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {  // rightward arterial: free flow
        sites.push_back(rsu_site{edges.size(), 0.5 * edge_length_m});
        edges.push_back(
            road_edge{node(r, c), node(r, c + 1), edge_length_m, 1.0});
      }
      if (r + 1 < rows) {  // downward street: slower
        sites.push_back(rsu_site{edges.size(), 0.5 * edge_length_m});
        edges.push_back(
            road_edge{node(r, c), node(r + 1, c), edge_length_m, 0.85});
      }
    }
  // Entries on the top/left boundary, exits on the bottom/right; the shared
  // corners drop out as entry == exit pairs.
  std::vector<std::size_t> entries;
  std::vector<std::size_t> exits;
  for (std::size_t c = 0; c < cols; ++c) entries.push_back(node(0, c));
  for (std::size_t r = 1; r < rows; ++r) entries.push_back(node(r, 0));
  for (std::size_t c = 0; c < cols; ++c) exits.push_back(node(rows - 1, c));
  for (std::size_t r = 0; r + 1 < rows; ++r)
    exits.push_back(node(r, cols - 1));
  return road_graph(std::move(nodes), std::move(edges), std::move(sites),
                    std::move(entries), std::move(exits), coverage_radius_m);
}

}  // namespace vtm::sim
