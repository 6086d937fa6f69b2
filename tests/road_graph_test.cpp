// Road-network topology: a chain is its path graph (serving cells, handover
// boundaries, RSU gaps, and the full fleet engine, bitwise), routing
// validity over the grid network, piecewise speed-profile arithmetic, and
// graph-config validation.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet_scenario.hpp"
#include "sim/mobility.hpp"
#include "sim/road_graph.hpp"
#include "util/contracts.hpp"

namespace core = vtm::core;
namespace sim = vtm::sim;

namespace {

void expect_identical(const core::fleet_result& a,
                      const core::fleet_result& b) {
  EXPECT_EQ(a.handovers, b.handovers);
  EXPECT_EQ(a.deferred, b.deferred);
  EXPECT_EQ(a.priced_out, b.priced_out);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.clearings, b.clearings);
  EXPECT_EQ(a.max_cohort, b.max_cohort);
  EXPECT_EQ(a.cross_shard_transfers, b.cross_shard_transfers);
  EXPECT_EQ(a.cross_shard_retargets, b.cross_shard_retargets);
  EXPECT_EQ(a.late_handoffs, b.late_handoffs);
  EXPECT_EQ(a.unconverged_clearings, b.unconverged_clearings);
  EXPECT_EQ(a.solver_sweeps, b.solver_sweeps);
  EXPECT_EQ(a.objective_evals, b.objective_evals);
  EXPECT_EQ(a.warm_started_clearings, b.warm_started_clearings);
  EXPECT_EQ(a.msp_total_utility, b.msp_total_utility);
  EXPECT_EQ(a.vmu_total_utility, b.vmu_total_utility);
  EXPECT_EQ(a.mean_aotm, b.mean_aotm);
  EXPECT_EQ(a.mean_amplification, b.mean_amplification);
  EXPECT_EQ(a.mean_price, b.mean_price);
  EXPECT_EQ(a.msp_utilities, b.msp_utilities);
  EXPECT_EQ(a.msp_sold_mhz, b.msp_sold_mhz);
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    EXPECT_EQ(a.migrations[i].start_s, b.migrations[i].start_s);
    EXPECT_EQ(a.migrations[i].finish_s, b.migrations[i].finish_s);
    EXPECT_EQ(a.migrations[i].vehicle, b.migrations[i].vehicle);
    EXPECT_EQ(a.migrations[i].from_rsu, b.migrations[i].from_rsu);
    EXPECT_EQ(a.migrations[i].to_rsu, b.migrations[i].to_rsu);
    EXPECT_EQ(a.migrations[i].price, b.migrations[i].price);
    EXPECT_EQ(a.migrations[i].bandwidth_mhz, b.migrations[i].bandwidth_mhz);
    EXPECT_EQ(a.migrations[i].aotm_closed_form,
              b.migrations[i].aotm_closed_form);
    EXPECT_EQ(a.migrations[i].aotm_simulated, b.migrations[i].aotm_simulated);
  }
  ASSERT_EQ(a.vehicles.size(), b.vehicles.size());
  for (std::size_t v = 0; v < a.vehicles.size(); ++v) {
    EXPECT_EQ(a.vehicles[v].id, b.vehicles[v].id);
    EXPECT_EQ(a.vehicles[v].host_rsu, b.vehicles[v].host_rsu);
    EXPECT_EQ(a.vehicles[v].migrations, b.vehicles[v].migrations);
    EXPECT_EQ(a.vehicles[v].position_m, b.vehicles[v].position_m);
    EXPECT_EQ(a.vehicles[v].shard, b.vehicles[v].shard);
  }
}

/// The path through explicit centres, built edge by edge: the first edge
/// runs from the road's entry to the first centre, then one edge per gap,
/// with each site at its edge's far end.
sim::road_graph path_through(const std::vector<double>& centres,
                             double radius_m) {
  std::vector<sim::road_node> nodes(centres.size() + 1);
  std::vector<sim::road_edge> edges;
  std::vector<sim::rsu_site> sites;
  double from_m = 0.0;
  for (std::size_t i = 0; i < centres.size(); ++i) {
    nodes[i + 1].x_m = centres[i];
    edges.push_back(sim::road_edge{i, i + 1, centres[i] - from_m, 1.0});
    sites.push_back(sim::rsu_site{i, centres[i] - from_m});
    from_m = centres[i];
  }
  return sim::road_graph(std::move(nodes), std::move(edges), std::move(sites),
                         {0}, {centres.size()}, radius_m);
}

}  // namespace

// ---- path-graph degeneracy: bitwise the 1-D chain --------------------------

// A chain is its path graph: the uniform path and the explicit-centre path
// place their one route's sites exactly at the chain's centres, and every
// site prices the chain's gap (site 0 its downstream gap).
TEST(road_graph, path_sites_sit_at_the_chain_centres) {
  const auto uniform = sim::road_graph::path(8, 1000.0, 600.0);
  const sim::rsu_chain chain(8, 1000.0, 600.0);
  ASSERT_EQ(uniform.route_count(), 1u);
  ASSERT_EQ(uniform.route(0).sites.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(uniform.route(0).sites[i], i);
    EXPECT_EQ(uniform.route(0).site_pos_m[i], chain.center_m(i));
  }
  EXPECT_EQ(uniform.route(0).length_m, 8000.0);

  const std::vector<double> centres{800.0,  2000.0, 2900.0,
                                    4400.0, 5200.0, 6800.0};
  std::vector<vtm::util::meters> typed;
  for (const double c : centres) typed.push_back(vtm::util::meters{c});
  const auto path = sim::road_graph::path(typed, vtm::util::meters{900.0});
  ASSERT_EQ(path.route_count(), 1u);
  const auto& route = path.route(0);
  ASSERT_EQ(route.sites.size(), centres.size());
  EXPECT_EQ(path.edge(0).length_m, 800.0);  // from the road's entry
  for (std::size_t i = 0; i < centres.size(); ++i) {
    EXPECT_EQ(route.site_pos_m[i], centres[i]) << i;
    const double gap = i > 0 ? centres[i] - centres[i - 1]
                             : centres[1] - centres[0];
    EXPECT_EQ(path.upstream_gap_m(i), gap) << i;
  }
  EXPECT_EQ(route.length_m, 6800.0);
  EXPECT_EQ(path.site_distance_m(1, 4), 3200.0);

  // Every site sits past the road's entry, and centres run forward.
  const vtm::util::meters radius{600.0};
  EXPECT_THROW((void)sim::road_graph::path(
                   {vtm::util::meters{0.0}, vtm::util::meters{1000.0}}, radius),
               vtm::util::contract_error);
  EXPECT_THROW((void)sim::road_graph::path({vtm::util::meters{1000.0},
                                            vtm::util::meters{1000.0}},
                                           radius),
               vtm::util::contract_error);
}

// Serving cells, handover boundaries, and beacon (next-handover) timings of
// the degenerate path's route profile are bitwise the raw chain's.
TEST(road_graph, path_route_profile_is_bitwise_the_chain) {
  const auto graph = sim::road_graph::path(8, 1000.0, 600.0);
  const sim::rsu_chain chain(8, 1000.0, 600.0);
  const auto profile = graph.make_route_profile(0);
  ASSERT_EQ(profile.count(), chain.count());
  for (std::size_t i = 0; i < chain.count(); ++i)
    EXPECT_EQ(profile.global_rsu(i), i);

  for (double pos = 0.0; pos <= 9000.0; pos += 13.7) {
    EXPECT_EQ(profile.serving_rsu(pos), chain.serving_rsu(pos)) << pos;
    for (const double speed : {20.0, 27.3, 35.0}) {
      const sim::vehicle_state v{pos, speed};
      const auto a = profile.next_handover(v);
      const auto b = chain.next_handover(v);
      ASSERT_EQ(a.has_value(), b.has_value()) << pos;
      if (!a) continue;
      EXPECT_EQ(a->after_s, b->after_s) << pos;  // bitwise, not approx
      EXPECT_EQ(a->from_rsu, b->from_rsu) << pos;
      EXPECT_EQ(a->to_rsu, b->to_rsu) << pos;
    }
    // Unit factors delegate to the exact sim::advance arithmetic.
    const sim::vehicle_state moved = profile.advance({pos, 31.0}, 2.5);
    EXPECT_EQ(moved.position_m, sim::advance({pos, 31.0}, 2.5).position_m);
  }

  // The RSU gaps the pools price: every path site's upstream gap is the
  // chain spacing (site 0 mirrors the chain's RSU-0 downstream convention).
  for (std::size_t s = 0; s < graph.rsu_count(); ++s)
    EXPECT_EQ(graph.upstream_gap_m(s), 1000.0) << s;
  EXPECT_EQ(graph.site_distance_m(2, 5), 3000.0);
  EXPECT_EQ(graph.site_distance_m(3, 4), 1000.0);
}

// The oracle "a path graph == its chain": each row runs a chain config and
// the same road given as a path graph, under one explicit spawn window (a
// graph's auto window is [0, route length], a chain's is its own), at 1, 2
// and 4 shards, and every aggregate, the per-MSP split, the records and the
// vehicle summaries must agree bitwise. The oligopoly rows run the sellers'
// offset chains over the graph's one route.
TEST(road_graph, path_graph_runs_bitwise_as_its_chain) {
  const auto default_path = std::make_shared<const sim::road_graph>(
      sim::road_graph::path(8, 1000.0, 600.0));

  core::fleet_config uniform;  // defaults: 8 RSUs x 1000 m, radius 600

  const std::vector<double> centres{800.0,  2000.0, 2900.0,
                                    4400.0, 5200.0, 6800.0};
  core::fleet_config explicit_centres;
  for (const double c : centres)
    explicit_centres.rsu_positions_m.push_back(vtm::util::meters{c});
  explicit_centres.coverage_radius_m = vtm::util::meters{900.0};
  explicit_centres.vehicle_count = 80;
  explicit_centres.duration_s = vtm::util::seconds{90.0};
  explicit_centres.seed = 99;

  core::fleet_config three_msps;  // the pinned three-seller roster
  three_msps.mode = core::market_mode::oligopoly;
  three_msps.vehicle_count = 300;
  for (const double cost : {5.0, 5.5, 6.0})
    three_msps.msps.push_back(
        {vtm::util::meters{0.0}, cost, 12.0, vtm::util::megahertz{10.0}});

  core::fleet_config offset_duopoly;
  offset_duopoly.mode = core::market_mode::oligopoly;
  offset_duopoly.msps = {
      {vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{50.0}},
      {vtm::util::meters{120.0}, 5.5, 50.0, vtm::util::megahertz{50.0}}};

  struct row {
    const char* name;
    core::fleet_config chain;
    std::shared_ptr<const sim::road_graph> graph;
  };
  const std::vector<row> rows{
      {"default chain", uniform, default_path},
      {"explicit centres", explicit_centres,
       std::make_shared<const sim::road_graph>(path_through(centres, 900.0))},
      {"three sellers", three_msps, default_path},
      {"duopoly offset 120 m", offset_duopoly, default_path}};
  for (const auto& r : rows) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(r.name) + ", shards " +
                   std::to_string(shards));
      core::fleet_config chain_config = r.chain;
      chain_config.spawn_min_m = vtm::util::meters{400.0};
      chain_config.spawn_max_m = vtm::util::meters{6400.0};
      chain_config.shard_count = shards;
      core::fleet_config graph_config = chain_config;
      graph_config.rsu_positions_m.clear();
      graph_config.graph = r.graph;
      const auto chain_run = core::run_fleet_scenario(chain_config);
      const auto graph_run = core::run_fleet_scenario(graph_config);
      EXPECT_GT(chain_run.completed, 0u);
      if (shards > 1) {
        EXPECT_GT(chain_run.cross_shard_transfers, 0u);
      }
      expect_identical(chain_run, graph_run);
    }
  }
}

// ---- grid network: routing validity ----------------------------------------

TEST(road_graph, grid_routes_traverse_only_real_connected_edges) {
  const auto graph = sim::road_graph::grid(4, 4, 1000.0, 600.0);
  EXPECT_EQ(graph.node_count(), 16u);
  EXPECT_EQ(graph.edge_count(), 24u);  // 12 right + 12 down
  EXPECT_EQ(graph.rsu_count(), 24u);   // one mid-edge site per edge
  EXPECT_GT(graph.route_count(), 1u);  // a real network
  ASSERT_GT(graph.route_count(), 0u);

  for (std::size_t r = 0; r < graph.route_count(); ++r) {
    const auto& route = graph.route(r);
    ASSERT_FALSE(route.edges.empty()) << r;
    // Every emitted edge exists and the sequence is a connected walk from
    // the route's entry to its exit.
    for (const std::size_t e : route.edges) ASSERT_LT(e, graph.edge_count());
    EXPECT_EQ(graph.edge(route.edges.front()).from, route.entry);
    EXPECT_EQ(graph.edge(route.edges.back()).to, route.exit);
    double length = 0.0;
    for (std::size_t k = 0; k < route.edges.size(); ++k) {
      if (k > 0) {
        EXPECT_EQ(graph.edge(route.edges[k]).from,
                  graph.edge(route.edges[k - 1]).to)
            << r;
      }
      length += graph.edge(route.edges[k]).length_m;
      EXPECT_EQ(route.seg_end_m[k], length);
      EXPECT_EQ(route.seg_factor[k], graph.edge(route.edges[k]).speed_factor);
    }
    EXPECT_EQ(route.length_m, length);
    // Every site the route serves sits on one of the route's own edges, at
    // an arc position inside the route.
    ASSERT_EQ(route.sites.size(), route.site_pos_m.size());
    for (std::size_t k = 0; k < route.sites.size(); ++k) {
      ASSERT_LT(route.sites[k], graph.rsu_count());
      const auto& site = graph.site(route.sites[k]);
      bool on_route = false;
      for (const std::size_t e : route.edges) on_route |= (e == site.edge);
      EXPECT_TRUE(on_route) << r;
      EXPECT_GT(route.site_pos_m[k], 0.0);
      EXPECT_LE(route.site_pos_m[k], route.length_m);
      if (k > 0) {
        EXPECT_GT(route.site_pos_m[k], route.site_pos_m[k - 1]);
      }
    }
  }
  EXPECT_LT(graph.min_route_length_m(), graph.max_route_length_m());
}

TEST(road_graph, grid_fleet_conserves_twins_over_routes) {
  core::fleet_config config;
  config.graph = std::make_shared<const sim::road_graph>(
      sim::road_graph::grid(3, 3, 1000.0, 600.0));
  config.vehicle_count = 120;
  config.duration_s = vtm::util::seconds{120.0};
  config.seed = 41;
  const auto r = core::run_fleet_scenario(config);
  EXPECT_GT(r.handovers, 0u);
  EXPECT_EQ(r.handovers, r.completed + r.priced_out + r.abandoned);
  ASSERT_EQ(r.vehicles.size(), config.vehicle_count);
  std::size_t twin_migrations = 0;
  for (const auto& v : r.vehicles) twin_migrations += v.migrations;
  EXPECT_EQ(twin_migrations, r.completed);
  // Every migration priced a real site pair.
  for (const auto& m : r.migrations) {
    EXPECT_LT(m.from_rsu, config.graph->rsu_count());
    EXPECT_LT(m.to_rsu, config.graph->rsu_count());
  }
}

// ---- piecewise speed profiles ----------------------------------------------

// Hand-built two-segment profile: [0, 1000) at factor 1, [1000, 2000) at
// factor 0.5. Advance and handover timing must integrate the factors
// exactly (closed-form expectations).
TEST(road_graph, heterogeneous_factors_integrate_piecewise) {
  sim::route_profile profile(sim::rsu_chain(2, 800.0, 450.0), {0, 1},
                             {1000.0, 2000.0}, {1.0, 0.5});
  // 20 m/s base: 10 s to the segment break (200 m), then 10 m/s effective.
  const auto v = profile.advance({800.0, 20.0}, 15.0);
  EXPECT_DOUBLE_EQ(v.position_m, 1050.0);
  // Cruising past the last segment keeps the last factor.
  EXPECT_DOUBLE_EQ(profile.advance({1900.0, 20.0}, 20.0).position_m, 2100.0);
  EXPECT_EQ(profile.factor_at(500.0), 1.0);
  EXPECT_EQ(profile.factor_at(1500.0), 0.5);

  // Boundary between the chain's cells sits at 1200 m (centres 800, 1600):
  // from 800 m that is 200 m at 20 m/s + 200 m at 10 m/s.
  const auto event = profile.next_handover({800.0, 20.0});
  ASSERT_TRUE(event.has_value());
  EXPECT_DOUBLE_EQ(event->after_s, 30.0);
  EXPECT_EQ(event->from_rsu, 0u);
  EXPECT_EQ(event->to_rsu, 1u);
}

// ---- graph-config validation -----------------------------------------------

TEST(road_graph, rejects_invalid_graph_configs) {
  const auto grid = std::make_shared<const sim::road_graph>(
      sim::road_graph::grid(3, 3, 1000.0, 600.0));

  // Spawn window past the shortest route: spans zero graph edges there.
  core::fleet_config zero_span;
  zero_span.graph = grid;
  zero_span.spawn_min_m = vtm::util::meters{grid->min_route_length_m()};
  EXPECT_THROW((void)core::run_fleet_scenario(zero_span),
               vtm::util::contract_error);

  // A valid two-seller roster: the sellers' offset chains need one route
  // through every site, which the grid has not.
  core::fleet_config oligopoly;
  oligopoly.graph = grid;
  oligopoly.mode = core::market_mode::oligopoly;
  oligopoly.msps.resize(2);
  EXPECT_THROW((void)core::run_fleet_scenario(oligopoly),
               vtm::util::contract_error);

  core::fleet_config dead_centres;
  dead_centres.graph = grid;
  dead_centres.rsu_positions_m = {vtm::util::meters{500.0}, vtm::util::meters{1500.0}};
  EXPECT_THROW((void)core::run_fleet_scenario(dead_centres),
               vtm::util::contract_error);

  // Graph shards must not exceed the graph's site count.
  core::fleet_config too_many;
  too_many.graph = grid;
  too_many.shard_count = grid->rsu_count() + 1;
  EXPECT_THROW((void)core::run_fleet_scenario(too_many),
               vtm::util::contract_error);
}

// Malformed topologies are rejected at graph construction.
TEST(road_graph, rejects_malformed_topologies) {
  using sim::road_edge;
  using sim::road_node;
  using sim::rsu_site;
  const std::vector<road_node> nodes(3);
  // Self-loop edge.
  EXPECT_THROW(sim::road_graph(nodes, {road_edge{1, 1, 100.0, 1.0}},
                               {rsu_site{0, 50.0}}, {1}, {1}, 100.0),
               vtm::util::contract_error);
  // Site offset beyond its edge.
  EXPECT_THROW(sim::road_graph(nodes, {road_edge{0, 1, 100.0, 1.0}},
                               {rsu_site{0, 150.0}}, {0}, {1}, 100.0),
               vtm::util::contract_error);
  // Sites not strictly (edge, offset)-sorted.
  EXPECT_THROW(
      sim::road_graph(nodes, {road_edge{0, 1, 100.0, 1.0}},
                      {rsu_site{0, 80.0}, rsu_site{0, 40.0}}, {0}, {1}, 100.0),
      vtm::util::contract_error);
  // No surviving route (exit unreachable from entry).
  EXPECT_THROW(sim::road_graph(nodes, {road_edge{0, 1, 100.0, 1.0}},
                               {rsu_site{0, 50.0}}, {1}, {0}, 100.0),
               vtm::util::contract_error);
}
