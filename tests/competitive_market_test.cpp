// Competitive multi-MSP fleet market (market_mode::oligopoly, DESIGN.md
// §11): the static clearing engine's invariants, the two-seller minimum
// (one seller is the monopoly), and the fleet-level economics —
// equilibrium prices below the monopoly price, falling toward cost as the
// share sharpness λ grows, deterministic and conservation-checked at every
// shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "core/competitive_market.hpp"
#include "core/fleet_scenario.hpp"
#include "core/fleet_shard.hpp"
#include "core/spot_market.hpp"
#include "rl/policy.hpp"
#include "sim/mobility.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace core = vtm::core;
namespace rl = vtm::rl;

namespace {

core::clearing_request draw_request(vtm::util::rng& gen, std::size_t vehicle) {
  core::clearing_request request;
  request.vehicle = vehicle;
  request.profile.alpha = gen.uniform(1.0, 3000.0);
  request.profile.data_mb = gen.uniform(50.0, 400.0);
  request.to_rsu = 1;
  return request;
}

void check_outcome_invariants(const core::competitive_market_config& config,
                              std::size_t submitted,
                              std::span<const double> available,
                              const core::competitive_outcome& outcome,
                              std::size_t pending_after) {
  // Exactly-once resolution.
  EXPECT_EQ(outcome.grants.size() + outcome.priced_out.size() +
                outcome.deferred,
            submitted);
  EXPECT_EQ(pending_after, outcome.deferred);

  // Per-seller conservation and price boxes; per-grant accounting.
  std::vector<double> sold(config.msps.size(), 0.0);
  for (const auto& grant : outcome.grants) {
    EXPECT_GT(grant.bandwidth_mhz, 0.0);
    double slice_total = 0.0;
    double payment = 0.0;
    for (const auto& slice : grant.slices) {
      ASSERT_LT(slice.msp, config.msps.size());
      EXPECT_GT(slice.bandwidth_mhz, 0.0);
      EXPECT_GE(slice.price, config.msps[slice.msp].unit_cost);
      EXPECT_LE(slice.price,
                config.msps[slice.msp].price_cap * (1.0 + 1e-12));
      sold[slice.msp] += slice.bandwidth_mhz;
      slice_total += slice.bandwidth_mhz;
      payment += slice.price * slice.bandwidth_mhz;
    }
    EXPECT_DOUBLE_EQ(grant.bandwidth_mhz, slice_total);
    // Effective price is the payment-weighted mean of the posted prices.
    EXPECT_NEAR(grant.price * grant.bandwidth_mhz, payment,
                1e-9 * std::max(1.0, payment));
  }
  for (std::size_t m = 0; m < config.msps.size(); ++m)
    EXPECT_LE(sold[m], available[m] * (1.0 + 1e-12) + 1e-12);
}

core::fleet_config duopoly_fleet(double sharpness = 0.25) {
  core::fleet_config config;  // defaults: 8 RSUs, 100 vehicles, 120 s
  config.mode = core::market_mode::oligopoly;
  config.msps = {{vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{50.0}}, {vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{50.0}}};
  config.share_sharpness = sharpness;
  return config;
}

/// Three sellers (costs 5 / 5.5 / 6) with scarce 10 MHz pools under a
/// price cap of 12, over 300 vehicles on the default chain.
core::fleet_config three_msp_fleet() {
  core::fleet_config config;
  config.mode = core::market_mode::oligopoly;
  config.vehicle_count = 300;
  for (const double cost : {5.0, 5.5, 6.0})
    config.msps.push_back(
        {vtm::util::meters{0.0}, cost, 12.0, vtm::util::megahertz{10.0}});
  return config;
}

/// The same fleet under the closed_oligopoly roster: price caps of 50 and
/// 50 MHz pools, so clearings settle at interior and rationing-kink prices
/// instead of the cap.
core::fleet_config interior_three_msp_fleet() {
  core::fleet_config config = three_msp_fleet();
  for (auto& msp : config.msps) {
    msp.price_cap = 50.0;
    msp.bandwidth_per_pool_mhz = vtm::util::megahertz{50.0};
  }
  return config;
}

void expect_fleet_identical(const core::fleet_result& a,
                            const core::fleet_result& b) {
  EXPECT_EQ(a.handovers, b.handovers);
  EXPECT_EQ(a.deferred, b.deferred);
  EXPECT_EQ(a.priced_out, b.priced_out);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.clearings, b.clearings);
  EXPECT_EQ(a.max_cohort, b.max_cohort);
  EXPECT_EQ(a.msp_total_utility, b.msp_total_utility);
  EXPECT_EQ(a.vmu_total_utility, b.vmu_total_utility);
  EXPECT_EQ(a.mean_aotm, b.mean_aotm);
  EXPECT_EQ(a.mean_amplification, b.mean_amplification);
  EXPECT_EQ(a.mean_price, b.mean_price);
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    EXPECT_EQ(a.migrations[i].vehicle, b.migrations[i].vehicle);
    EXPECT_EQ(a.migrations[i].price, b.migrations[i].price);
    EXPECT_EQ(a.migrations[i].bandwidth_mhz, b.migrations[i].bandwidth_mhz);
    EXPECT_EQ(a.migrations[i].finish_s, b.migrations[i].finish_s);
  }
}

void expect_fleet_conserved(const core::fleet_config& config,
                            const core::fleet_result& r) {
  EXPECT_EQ(r.handovers, r.completed + r.priced_out + r.abandoned);
  ASSERT_EQ(r.vehicles.size(), config.vehicle_count);
  std::size_t twin_migrations = 0;
  for (const auto& v : r.vehicles) twin_migrations += v.migrations;
  EXPECT_EQ(twin_migrations, r.completed);
  ASSERT_EQ(r.msp_utilities.size(), config.msps.size());
  ASSERT_EQ(r.msp_sold_mhz.size(), config.msps.size());
  // Per-seller realized profit decomposes the total (summation order may
  // differ across shards, hence near, not bitwise).
  const double split = std::accumulate(r.msp_utilities.begin(),
                                       r.msp_utilities.end(), 0.0);
  EXPECT_NEAR(split, r.msp_total_utility,
              1e-9 * std::max(1.0, std::abs(r.msp_total_utility)));
  // Every clearing carries a convergence certificate.
  EXPECT_EQ(r.unconverged_clearings, 0u);
}

}  // namespace

// ---- static clearing engine -------------------------------------------------

// Randomized rosters x cohorts x availabilities: whatever the price vector,
// the clearing preserves exactly-once resolution, per-seller conservation,
// and per-MSP price boxes.
TEST(competitive_market, oligopoly_clearing_invariants_randomized) {
  vtm::util::rng gen(20260730);
  for (int trial = 0; trial < 150; ++trial) {
    core::competitive_market_config config;
    const auto msps = static_cast<std::size_t>(gen.uniform_int(2, 4));
    for (std::size_t m = 0; m < msps; ++m) {
      core::fleet_msp msp;
      msp.unit_cost = gen.uniform(2.0, 8.0);
      msp.price_cap = msp.unit_cost + gen.uniform(10.0, 50.0);
      msp.bandwidth_per_pool_mhz = vtm::util::megahertz{gen.uniform(1.0, 60.0)};
      config.msps.push_back(msp);
    }
    config.share_sharpness = gen.uniform(0.05, 2.0);
    core::competitive_market market(config);

    const auto cohort = static_cast<std::size_t>(gen.uniform_int(1, 12));
    for (std::size_t v = 0; v < cohort; ++v)
      market.submit(draw_request(gen, v));
    std::vector<double> available(msps);
    for (double& mhz : available) mhz = gen.uniform(0.0, 60.0);

    const auto outcome = market.clear(available);
    check_outcome_invariants(config, cohort, available, outcome,
                             market.pending());
  }
}

// Starved sellers sit a clearing out; when every seller is starved the whole
// cohort defers (and stays in the book for the next clearing).
TEST(competitive_market, starved_sellers_defer_the_cohort) {
  core::competitive_market_config config;
  config.msps = {{vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{50.0}}, {vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{50.0}}};
  core::competitive_market market(config);
  vtm::util::rng gen(3);
  for (std::size_t v = 0; v < 4; ++v) market.submit(draw_request(gen, v));

  const std::vector<double> starved{0.1, 0.2};  // both below min_clearable
  const auto outcome = market.clear(starved);
  EXPECT_TRUE(outcome.grants.empty());
  EXPECT_TRUE(outcome.priced_out.empty());
  EXPECT_EQ(outcome.deferred, 4u);
  EXPECT_EQ(outcome.markets_cleared, 0u);
  EXPECT_EQ(market.pending(), 4u);

  // One seller recovers: the cohort clears through it alone, and the
  // starved seller posts no price (sat out).
  const std::vector<double> partial{0.1, 50.0};
  const auto cleared = market.clear(partial);
  EXPECT_EQ(cleared.markets_cleared, 1u);
  EXPECT_EQ(cleared.prices[0], 0.0);
  EXPECT_GT(cleared.prices[1], 0.0);
  for (const auto& grant : cleared.grants)
    for (const auto& slice : grant.slices) EXPECT_EQ(slice.msp, 1u);
}

// One book cleared in sequence reuses its outcome, cohort market and solver
// scratch. Grant and slice counts shrink from one clearing to the next, a
// starved clearing follows a full one, and the book compacts in place:
// nothing of an earlier clearing may show in a later outcome.
TEST(competitive_market, reused_outcome_never_leaks_between_clearings) {
  core::competitive_market_config config;
  for (const double cost : {5.0, 5.5, 6.0})
    config.msps.push_back(
        {vtm::util::meters{0.0}, cost, 50.0, vtm::util::megahertz{50.0}});
  core::competitive_market market(config);
  vtm::util::rng gen(20261019);
  std::size_t vehicle = 0;
  const auto submit = [&](std::size_t count) {
    for (std::size_t v = 0; v < count; ++v)
      market.submit(draw_request(gen, vehicle++));
  };
  const auto submit_priced_out = [&] {
    // α this small activates no demand at any price above unit cost.
    auto request = draw_request(gen, vehicle++);
    request.profile.alpha = 1e-3;
    market.submit(request);
  };
  const auto clear = [&](const std::vector<double>& available)
      -> const core::competitive_outcome& {
    const std::size_t book = market.pending();
    const auto& outcome = market.clear(available);
    check_outcome_invariants(config, book, available, outcome,
                             market.pending());
    return outcome;
  };
  const std::vector<double> ample{50.0, 50.0, 50.0};
  const std::vector<double> one_seller{0.1, 0.2, 50.0};
  const std::vector<double> starved{0.1, 0.1, 0.1};

  // Full: every seller active, one buyer priced out.
  submit(8);
  submit_priced_out();
  std::size_t full_slices = 0;
  {
    const auto& outcome = clear(ample);
    EXPECT_EQ(outcome.grants.size(), 8u);
    EXPECT_EQ(outcome.priced_out.size(), 1u);
    EXPECT_EQ(outcome.deferred, 0u);
    for (const auto& grant : outcome.grants)
      full_slices += grant.slices.size();
    EXPECT_GT(full_slices, 8u);
  }
  // Fewer grants, one slice each, through the one seller left.
  submit(2);
  {
    const auto& outcome = clear(one_seller);
    ASSERT_EQ(outcome.grants.size(), 2u);
    EXPECT_TRUE(outcome.priced_out.empty());
    for (const auto& grant : outcome.grants) {
      ASSERT_EQ(grant.slices.size(), 1u);
      EXPECT_EQ(grant.slices[0].msp, 2u);
    }
    EXPECT_EQ(outcome.prices[0], 0.0);
    EXPECT_EQ(outcome.prices[1], 0.0);
    EXPECT_GT(outcome.prices[2], 0.0);
  }
  // Starved after a full clearing: the whole book defers, nothing is priced.
  submit(3);
  {
    const auto& outcome = clear(starved);
    EXPECT_TRUE(outcome.grants.empty());
    EXPECT_TRUE(outcome.priced_out.empty());
    EXPECT_EQ(outcome.deferred, 3u);
    EXPECT_EQ(outcome.markets_cleared, 0u);
    EXPECT_TRUE(outcome.prices.empty());
    EXPECT_EQ(outcome.solver_sweeps, 0u);
    EXPECT_EQ(outcome.objective_evals, 0u);
    EXPECT_FALSE(outcome.warm_started);
    EXPECT_TRUE(outcome.converged);
    EXPECT_EQ(market.pending(), 3u);
  }
  // The deferred book clears in full on the recycled slice vectors.
  submit_priced_out();
  {
    const auto& outcome = clear(ample);
    EXPECT_EQ(outcome.grants.size(), 3u);
    EXPECT_EQ(outcome.priced_out.size(), 1u);
    EXPECT_EQ(outcome.deferred, 0u);
    EXPECT_TRUE(outcome.warm_started);
    EXPECT_EQ(market.pending(), 0u);
  }
  // An empty book resets the outcome and prices nothing.
  {
    const auto& outcome = clear(ample);
    EXPECT_TRUE(outcome.grants.empty());
    EXPECT_TRUE(outcome.priced_out.empty());
    EXPECT_EQ(outcome.markets_cleared, 0u);
    EXPECT_TRUE(outcome.prices.empty());
  }
}

// A request whose rationed purchase rounds below the grant floor defers,
// also behind a request the same clearing granted: the in-place compaction
// must keep that request in the book. Both sellers sell their whole
// remainder at every price, so the posted prices, and the effective price,
// do not depend on the sliver buyer, whose activation threshold sits a hair
// above that price.
TEST(competitive_market, sliver_demand_defers_behind_a_granted_request) {
  core::competitive_market_config config;
  config.msps = {
      {vtm::util::meters{0.0}, 5.0, 12.0, vtm::util::megahertz{1.0}},
      {vtm::util::meters{0.0}, 5.5, 12.0, vtm::util::megahertz{1.0}}};
  const std::vector<double> available{1.0, 1.0};
  core::clearing_request anchor;
  anchor.vehicle = 0;
  anchor.profile = {3000.0, 50.0};
  core::competitive_market alone(config);
  alone.submit(anchor);
  const auto& priced = alone.clear(available);
  ASSERT_EQ(priced.grants.size(), 1u);

  // The clearing's effective price, by the market's own arithmetic.
  core::multi_msp_params params;
  params.msps = {{5.0, 1.0, 12.0}, {5.5, 1.0, 12.0}};
  params.vmus = {anchor.profile};
  params.link = config.link;
  params.share_sharpness = config.share_sharpness;
  const core::multi_msp_market market(params);
  const double p_eff = market.effective_price(priced.prices);
  const double kappa = 100.0 / market.spectral_efficiency();

  core::clearing_request sliver;
  sliver.vehicle = 1;
  sliver.profile = {(kappa + 5e-10) * p_eff, 100.0};
  core::competitive_market book(config);
  book.submit(anchor);
  book.submit(sliver);
  const auto& outcome = book.clear(available);
  check_outcome_invariants(config, 2, available, outcome, book.pending());
  EXPECT_EQ(outcome.prices, priced.prices);
  ASSERT_EQ(outcome.grants.size(), 1u);
  EXPECT_EQ(outcome.grants[0].request.vehicle, 0u);
  EXPECT_TRUE(outcome.priced_out.empty());
  EXPECT_EQ(outcome.deferred, 1u);
  ASSERT_EQ(book.pending(), 1u);
  EXPECT_EQ(book.pending_requests()[0].vehicle, 1u);
}

// Symmetric duopoly on one cohort, ample capacity: competition prices
// strictly below the monopoly equilibrium, and sharper λ pushes prices
// toward cost. Capacity must not bind here — undercutting only pays while
// a seller can actually serve the share it wins (see the scarce-capacity
// companion test below for the rationing regime).
TEST(competitive_market, duopoly_undercuts_monopoly_on_one_cohort) {
  vtm::util::rng gen(11);
  std::vector<core::clearing_request> cohort;
  for (std::size_t v = 0; v < 6; ++v) cohort.push_back(draw_request(gen, v));

  core::spot_market_config mono_config;
  core::spot_market mono(mono_config);
  for (const auto& request : cohort) mono.submit(request);
  const auto monopoly = mono.clear(50.0);
  ASSERT_FALSE(monopoly.grants.empty());

  double soft_price = 0.0;
  double sharp_price = 0.0;
  for (const double lambda : {0.25, 4.0}) {
    core::competitive_market_config config;
    config.msps = {{vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{1000.0}}, {vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{1000.0}}};
    config.share_sharpness = lambda;
    core::competitive_market market(config);
    for (const auto& request : cohort) market.submit(request);
    const std::vector<double> offers{1000.0, 1000.0};
    const auto outcome = market.clear(offers);
    ASSERT_FALSE(outcome.grants.empty());
    (lambda < 1.0 ? soft_price : sharp_price) = outcome.grants[0].price;
  }
  EXPECT_LT(soft_price, monopoly.price);
  EXPECT_LT(sharp_price, soft_price);
  EXPECT_GT(sharp_price, 5.0);  // never below cost
}

// Scarce capacity flips the duopoly into the Bertrand–Edgeworth rationing
// regime: with both sellers capacity-bound, undercutting wins share that
// cannot be served and raising price sheds share that was pure profit, so
// the equilibrium pins to the market-clearing price where cohort demand
// equals total capacity — *independent of λ* up to solver tolerance. (A
// strict λ-ordering assertion here would compare pure fixed-point noise;
// it flipped sign with -ffp-contract and hid this regime for a while.)
TEST(competitive_market, scarce_duopoly_clears_at_rationing_price) {
  vtm::util::rng gen(11);
  std::vector<core::clearing_request> cohort;
  for (std::size_t v = 0; v < 6; ++v) cohort.push_back(draw_request(gen, v));

  double soft_price = 0.0;
  double sharp_price = 0.0;
  for (const double lambda : {0.25, 4.0}) {
    core::competitive_market_config config;
    config.msps = {{vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{50.0}}, {vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{50.0}}};
    config.share_sharpness = lambda;
    core::competitive_market market(config);
    for (const auto& request : cohort) market.submit(request);
    const std::vector<double> offers{50.0, 50.0};
    const auto outcome = market.clear(offers);
    ASSERT_FALSE(outcome.grants.empty());
    (lambda < 1.0 ? soft_price : sharp_price) = outcome.grants[0].price;

    // Every seller sells its full capacity: the cap binds for both.
    std::vector<double> sold(config.msps.size(), 0.0);
    for (const auto& grant : outcome.grants)
      for (const auto& slice : grant.slices)
        sold[slice.msp] += slice.bandwidth_mhz;
    for (std::size_t m = 0; m < sold.size(); ++m)
      EXPECT_NEAR(sold[m], 50.0, 1e-6) << "seller " << m;
  }
  // The rationing price does not move with λ (the solver's fixed-point
  // tolerance is 1e-7; the two solves land within a few ULP-scale multiples
  // of it).
  EXPECT_NEAR(sharp_price, soft_price, 1e-3);
  EXPECT_GT(soft_price, 5.0);
}

TEST(competitive_market, validates_config) {
  // One seller is the monopoly (spot_market), so a market needs two.
  const core::fleet_msp seller{vtm::util::meters{0.0}, 5.0, 50.0,
                               vtm::util::megahertz{50.0}};
  core::competitive_market_config no_msps;
  no_msps.msps.clear();
  EXPECT_THROW((void)core::competitive_market{no_msps},
               vtm::util::contract_error);
  core::competitive_market_config one_msp;
  one_msp.msps = {seller};
  EXPECT_THROW((void)core::competitive_market{one_msp},
               vtm::util::contract_error);
  core::competitive_market_config two_msps;
  two_msps.msps = {seller, seller};
  EXPECT_NO_THROW((void)core::competitive_market{two_msps});

  core::competitive_market_config bad_cost = two_msps;
  bad_cost.msps[1].unit_cost = -1.0;
  EXPECT_THROW((void)core::competitive_market{bad_cost},
               vtm::util::contract_error);
  core::competitive_market_config infinite_sharpness = two_msps;
  infinite_sharpness.share_sharpness =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)core::competitive_market{infinite_sharpness},
               vtm::util::contract_error);
}

// ---- per-MSP candidate sets -------------------------------------------------

// Overlapping deployments: each operator's chain, the primary shifted by its
// offset, resolves its own serving RSU per position; a downstream offset
// flips the candidate around the shifted cell midpoints.
TEST(competitive_market, offset_chains_resolve_per_operator_candidates) {
  const vtm::sim::rsu_chain primary(4, 1000.0, 600.0);  // centres 1000..4000
  const auto same = primary.shifted(0.0);
  const auto offset = primary.shifted(300.0);
  // 1600 m sits past the primary 0 -> 1 midpoint (1500) but short of the
  // shifted chain's (centres 1300, 2300 — midpoint 1800): the operators
  // serve the same position from different RSUs.
  EXPECT_EQ(same.serving_rsu(1600.0), 1u);
  EXPECT_EQ(offset.serving_rsu(1600.0), 0u);
  EXPECT_EQ(same.serving_rsu(2700.0), 2u);    // primary: past 2500
  EXPECT_EQ(offset.serving_rsu(2700.0), 1u);  // shifted: 2800 not yet crossed
}

// ---- fleet engine integration ----------------------------------------------

// End-to-end economics: duopoly clearing prices sit below the monopoly
// price, fall as λ grows, and stay above cost.
TEST(competitive_market, fleet_duopoly_prices_below_monopoly) {
  core::fleet_config mono;  // defaults (joint monopoly)
  const auto monopoly = core::run_fleet_scenario(mono);

  const auto soft = core::run_fleet_scenario(duopoly_fleet(0.25));
  const auto sharp = core::run_fleet_scenario(duopoly_fleet(4.0));

  EXPECT_EQ(soft.handovers, monopoly.handovers);
  EXPECT_LT(soft.mean_price, monopoly.mean_price);
  EXPECT_LT(sharp.mean_price, soft.mean_price);
  EXPECT_GT(sharp.mean_price, mono.unit_cost);
  // Lower prices leave the buyers better off in aggregate.
  EXPECT_GT(soft.vmu_total_utility, monopoly.vmu_total_utility);
}

TEST(competitive_market, fleet_duopoly_deterministic_and_conserved) {
  const auto config = duopoly_fleet();
  const auto a = core::run_fleet_scenario(config);
  const auto b = core::run_fleet_scenario(config);
  expect_fleet_identical(a, b);
  ASSERT_EQ(a.msp_utilities.size(), 2u);
  EXPECT_EQ(a.msp_utilities[0], b.msp_utilities[0]);
  EXPECT_EQ(a.msp_utilities[1], b.msp_utilities[1]);
  expect_fleet_conserved(config, a);

  auto other = config;
  other.seed = config.seed + 1;
  const auto c = core::run_fleet_scenario(other);
  EXPECT_NE(a.msp_total_utility, c.msp_total_utility);
}

// Counts of a closed three-seller run, pinned at the map-based event queue:
// every grant splits across up to three seller pools, so each completion
// releases several grants. Scarce 10 MHz pools under a 12 price cap keep the
// clearings at their rationing price, which makes the solver counts
// independent of FP contraction. The doubles are pinned in fig_golden_test.
TEST(competitive_market, fleet_three_msp_counts_are_pinned) {
  const auto r = core::run_fleet_scenario(three_msp_fleet());
  expect_fleet_conserved(three_msp_fleet(), r);
  EXPECT_EQ(r.handovers, 844u);
  EXPECT_EQ(r.completed, 844u);
  EXPECT_EQ(r.deferred, 13u);
  EXPECT_EQ(r.priced_out, 0u);
  EXPECT_EQ(r.abandoned, 0u);
  EXPECT_EQ(r.clearings, 620u);
  EXPECT_EQ(r.max_cohort, 5u);
  EXPECT_EQ(r.unconverged_clearings, 0u);
  EXPECT_EQ(r.solver_sweeps, 627u);
  EXPECT_EQ(r.objective_evals, 4917u);
  EXPECT_EQ(r.warm_started_clearings, 613u);
}

// Counts of the three-seller run whose clearings price below the cap, so
// warm solves go through the Newton stage's interior and kink rows. The
// market counts are the dampened solver's; the effort bounds hold only when
// Newton prices the warm clearings (the dampened loop alone spends ~437
// evaluations and ~12 sweeps per clearing here).
TEST(competitive_market, fleet_interior_three_msp_counts_are_pinned) {
  const auto config = interior_three_msp_fleet();
  const auto r = core::run_fleet_scenario(config);
  expect_fleet_conserved(config, r);
  EXPECT_EQ(r.handovers, 844u);
  EXPECT_EQ(r.completed, 844u);
  EXPECT_EQ(r.deferred, 0u);
  EXPECT_EQ(r.priced_out, 0u);
  EXPECT_EQ(r.clearings, 621u);
  EXPECT_EQ(r.max_cohort, 5u);
  EXPECT_EQ(r.warm_started_clearings, 614u);
  EXPECT_EQ(r.unconverged_clearings, 0u);
  EXPECT_LT(r.objective_evals, 60 * r.clearings);
  EXPECT_LE(10 * r.solver_sweeps, 12 * r.clearings);
}

// An asymmetric duopoly: the cheaper seller wins share and profit.
TEST(competitive_market, fleet_cheaper_msp_wins_share) {
  auto config = duopoly_fleet(1.0);
  config.msps[1].unit_cost = 3.5;  // undercuts MSP 0's cost of 5
  const auto r = core::run_fleet_scenario(config);
  expect_fleet_conserved(config, r);
  EXPECT_GT(r.msp_sold_mhz[1], r.msp_sold_mhz[0]);
  EXPECT_GT(r.msp_utilities[1], r.msp_utilities[0]);
}

// Offset chains: MSP 1's RSUs sit 120 m downstream of the primary chain.
// Candidate resolution stays shard-local, per-shard oligopoly books survive
// cross-shard handoff, and a multi-shard run with timely deliveries
// reproduces the serial oligopoly run bitwise.
TEST(competitive_market, fleet_offset_duopoly_shards_match_serial) {
  auto config = duopoly_fleet();
  config.msps[1].chain_offset_m = vtm::util::meters{120.0};
  config.msps[1].unit_cost = 4.0;
  const auto serial = core::run_fleet_scenario(config);
  expect_fleet_conserved(config, serial);

  for (const std::size_t shards : {2u, 4u}) {
    auto sharded_config = config;
    sharded_config.shard_count = shards;
    const auto sharded = core::run_fleet_scenario(sharded_config);
    EXPECT_GT(sharded.cross_shard_transfers, 0u) << shards;
    EXPECT_EQ(sharded.late_handoffs, 0u) << shards;
    EXPECT_EQ(sharded.cross_shard_retargets, 0u) << shards;
    expect_fleet_identical(serial, sharded);
    expect_fleet_conserved(sharded_config, sharded);
    // Per-MSP splits agree with the serial run up to summation order.
    for (std::size_t m = 0; m < 2; ++m)
      EXPECT_NEAR(sharded.msp_utilities[m], serial.msp_utilities[m],
                  1e-9 * std::max(1.0, serial.msp_utilities[m]));
  }
}

// A deferred request whose vehicle drifts across shard boundaries re-homes
// through retarget handoffs into the destination shard's *oligopoly* book
// (the delivery path must route into comarkets, not the empty monopoly
// books), and the migration still lands exactly once.
TEST(competitive_market, fleet_cross_shard_retargets_reach_oligopoly_books) {
  core::fleet_config config;
  config.rsu_positions_m = {vtm::util::meters{1000.0}, vtm::util::meters{2000.0}, vtm::util::meters{4000.0}};
  config.coverage_radius_m = vtm::util::meters{1100.0};
  config.vehicle_count = 2;
  config.min_speed_mps = vtm::util::mps{30.0};
  config.max_speed_mps = vtm::util::mps{30.0};
  config.min_alpha = 5000.0;
  config.max_alpha = 5000.0;
  config.min_data_mb = vtm::util::megabytes{280.0};
  config.spawn_min_m = vtm::util::meters{1100.0};
  config.spawn_max_m = vtm::util::meters{1400.0};
  config.bandwidth_per_pool_mhz = vtm::util::megahertz{0.1};  // one grant saturates a pool
  config.min_clearable_mhz = vtm::util::megahertz{0.1};
  config.duration_s = vtm::util::seconds{20.0};
  config.shard_count = 3;
  config.mode = core::market_mode::oligopoly;
  config.msps = {{vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{0.1}}, {vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{0.1}}};
  const auto r = core::run_fleet_scenario(config);

  EXPECT_GT(r.cross_shard_retargets, 0u);
  expect_fleet_conserved(config, r);
  const bool drifted_granted = std::any_of(
      r.migrations.begin(), r.migrations.end(),
      [](const core::migration_record& m) {
        return m.from_rsu == 0 && m.to_rsu == 2;
      });
  EXPECT_TRUE(drifted_granted);
}

TEST(competitive_market, fleet_rejects_invalid_oligopoly_configs) {
  // An oligopoly needs two sellers: one seller is the monopoly, which joint
  // mode clears.
  core::fleet_config no_sellers;
  no_sellers.mode = core::market_mode::oligopoly;
  EXPECT_THROW(core::validate_fleet_config(no_sellers),
               vtm::util::contract_error);
  core::fleet_config one_seller = duopoly_fleet();
  one_seller.msps.pop_back();
  EXPECT_THROW(core::validate_fleet_config(one_seller),
               vtm::util::contract_error);
  EXPECT_NO_THROW(core::validate_fleet_config(duopoly_fleet()));

  // A roster outside oligopoly mode is a misconfiguration, not ignorable.
  core::fleet_config roster_in_joint;
  roster_in_joint.msps = {{vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{50.0}}};
  EXPECT_THROW((void)core::run_fleet_scenario(roster_in_joint),
               vtm::util::contract_error);

  // A pricer is joint-mode only: the best-response solve prices every
  // oligopoly clearing, so a pricer there is dead config.
  rl::actor_critic_config net;
  net.obs_dim = core::cohort_feature_dim;
  net.act_dim = 1;
  net.hidden = {8};
  vtm::util::rng gen(1);
  core::learned_pricer_config pricer_config;
  pricer_config.hidden = net.hidden;
  core::fleet_config pricer_in_oligopoly = duopoly_fleet();
  pricer_in_oligopoly.pricer = std::make_shared<const core::learned_pricer>(
      pricer_config, rl::actor_critic(net, gen));
  EXPECT_THROW((void)core::run_fleet_scenario(pricer_in_oligopoly),
               vtm::util::contract_error);

  // An offset pushing a candidate pool across a shard boundary would let
  // two shards race on it: rejected up front.
  auto offset_too_far = duopoly_fleet();
  offset_too_far.msps[1].chain_offset_m = vtm::util::meters{-600.0};  // past the cell midpoint
  offset_too_far.shard_count = 8;                  // one RSU per shard
  EXPECT_THROW((void)core::run_fleet_scenario(offset_too_far),
               vtm::util::contract_error);
}

// Consecutive clearings of one book warm-start the solver from the book's
// previous posted prices (per-MSP memory); the first clearing is cold. A
// fresh book clearing the same second cohort cold must land on the same
// equilibrium within the fixed-point tolerance — warm starts change the
// cost, not the answer.
TEST(competitive_market, second_clearing_warm_starts_to_the_cold_answer) {
  core::competitive_market_config config;
  config.msps = {{vtm::util::meters{0.0}, 5.0, 50.0, vtm::util::megahertz{40.0}}, {vtm::util::meters{0.0}, 6.0, 50.0, vtm::util::megahertz{40.0}}};
  config.share_sharpness = 0.5;
  const std::vector<double> available{40.0, 40.0};

  core::competitive_market market(config);
  vtm::util::rng first_cohort(20260810);
  for (std::size_t v = 0; v < 6; ++v)
    market.submit(draw_request(first_cohort, v));
  const auto first = market.clear(available);
  EXPECT_FALSE(first.warm_started);
  EXPECT_TRUE(first.converged);
  EXPECT_TRUE(first.certified);
  EXPECT_GT(first.solver_sweeps, 0u);
  EXPECT_GT(first.objective_evals, 0u);

  vtm::util::rng second_cohort(20260811);
  for (std::size_t v = 6; v < 12; ++v)
    market.submit(draw_request(second_cohort, v));
  const auto warm = market.clear(available);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_TRUE(warm.converged);
  EXPECT_TRUE(warm.certified);

  // Same second cohort through a fresh (cold) book.
  core::competitive_market fresh(config);
  vtm::util::rng second_again(20260811);
  for (std::size_t v = 6; v < 12; ++v)
    fresh.submit(draw_request(second_again, v));
  const auto cold = fresh.clear(available);
  EXPECT_FALSE(cold.warm_started);
  ASSERT_EQ(cold.prices.size(), warm.prices.size());
  for (std::size_t m = 0; m < warm.prices.size(); ++m)
    EXPECT_NEAR(warm.prices[m], cold.prices[m], 1e-5);
}
