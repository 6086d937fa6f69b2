// Property suite for the spot-market clearing engine, run against *both*
// pricing backends (analytic oracle and a learned policy network): whatever
// posts the price, the market's physical and accounting invariants must
// hold. These are the guarantees that make swapping pricing backends safe
// (DESIGN.md §9):
//   1. Σ granted bandwidth <= the pool remainder offered to the clearing;
//   2. every cleared price lies in [unit_cost, price_cap];
//   3. every submitted request resolves exactly once — granted, priced out,
//      or deferred (and a deferred request stays in the book);
//   4. under the oracle backend, a joint clearing is priced exactly like the
//      combined-set equilibrium (bitwise — same solver, same inputs).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/equilibrium.hpp"
#include "core/fleet_scenario.hpp"
#include "core/pricing_policy.hpp"
#include "core/spot_market.hpp"
#include "rl/policy.hpp"
#include "util/rng.hpp"

namespace core = vtm::core;
namespace rl = vtm::rl;

namespace {

/// An *untrained* pricing network (random weights): the invariants may not
/// depend on the policy being any good, only on the clearing mechanism.
std::shared_ptr<const core::learned_pricer> random_pricer(
    std::uint64_t seed, double unit_cost, double price_cap) {
  rl::actor_critic_config net;
  net.obs_dim = core::cohort_feature_dim;
  net.act_dim = 1;
  net.hidden = {16, 16};
  vtm::util::rng gen(seed);
  core::learned_pricer_config config;
  config.hidden = net.hidden;
  config.unit_cost = unit_cost;
  config.price_cap = price_cap;
  return std::make_shared<const core::learned_pricer>(
      config, rl::actor_critic(net, gen));
}

struct drawn_book {
  std::vector<core::clearing_request> requests;
  double available_mhz = 0.0;
};

drawn_book draw_book(vtm::util::rng& gen) {
  drawn_book book;
  const auto cohort = static_cast<std::size_t>(gen.uniform_int(1, 12));
  book.requests.reserve(cohort);
  for (std::size_t v = 0; v < cohort; ++v) {
    core::clearing_request request;
    request.vehicle = v;
    // Spans priced-out (tiny alpha), interior, and rationed regimes.
    request.profile.alpha = gen.uniform(1.0, 3000.0);
    request.profile.data_mb = gen.uniform(50.0, 400.0);
    request.to_rsu = 1;
    book.requests.push_back(request);
  }
  book.available_mhz = gen.uniform(0.05, 80.0);
  return book;
}

void check_clearing_invariants(const core::spot_market_config& config,
                               const drawn_book& book,
                               const core::clearing_outcome& outcome,
                               std::size_t pending_after) {
  // (3) exactly-once resolution.
  EXPECT_EQ(outcome.grants.size() + outcome.priced_out.size() +
                outcome.deferred,
            book.requests.size());
  EXPECT_EQ(pending_after, outcome.deferred);

  // (1) no oversubscription; (2) price box; per-grant accounting.
  double total = 0.0;
  for (const auto& grant : outcome.grants) {
    EXPECT_GT(grant.bandwidth_mhz, 0.0);
    EXPECT_GE(grant.price, config.unit_cost);
    EXPECT_LE(grant.price, config.price_cap * (1.0 + 1e-12));
    EXPECT_EQ(grant.msp_utility,
              (grant.price - config.unit_cost) * grant.bandwidth_mhz);
    total += grant.bandwidth_mhz;
  }
  EXPECT_LE(total, book.available_mhz * (1.0 + 1e-12) + 1e-12);
}

}  // namespace

// Randomized cohorts x pool states, oracle backend.
TEST(market_invariants, oracle_backend_randomized) {
  vtm::util::rng gen(20260729);
  for (int trial = 0; trial < 200; ++trial) {
    core::spot_market_config config;
    core::spot_market market(config);
    const auto book = draw_book(gen);
    for (const auto& request : book.requests) market.submit(request);
    const auto outcome = market.clear(book.available_mhz);
    check_clearing_invariants(config, book, outcome, market.pending());
  }
}

// Same properties with an untrained learned pricer posting the prices: the
// clearing mechanism, not the pricer, enforces them.
TEST(market_invariants, learned_backend_randomized) {
  vtm::util::rng gen(887);
  for (int trial = 0; trial < 200; ++trial) {
    core::spot_market_config config;
    config.pricer = random_pricer(1000 + static_cast<std::uint64_t>(trial),
                                  config.unit_cost, config.price_cap);
    config.pool_capacity_mhz = vtm::util::megahertz{50.0};
    core::spot_market market(config);
    const auto book = draw_book(gen);
    for (const auto& request : book.requests) market.submit(request);
    const auto outcome = market.clear(book.available_mhz);
    check_clearing_invariants(config, book, outcome, market.pending());
  }
}

// (4) Under the oracle backend, joint clearings match the combined-set
// equilibrium bitwise, across randomized cohorts (not just one example).
TEST(market_invariants, joint_oracle_matches_combined_equilibrium) {
  vtm::util::rng gen(4242);
  for (int trial = 0; trial < 100; ++trial) {
    core::spot_market_config config;
    core::spot_market market(config);
    const auto book = draw_book(gen);
    core::market_params combined;
    for (const auto& request : book.requests) {
      market.submit(request);
      combined.vmus.push_back(request.profile);
    }
    combined.link = config.link;
    combined.bandwidth_cap_mhz = vtm::util::megahertz{book.available_mhz};
    combined.unit_cost = config.unit_cost;
    combined.price_cap = config.price_cap;
    const auto eq =
        core::solve_equilibrium(core::migration_market(combined));

    const auto outcome = market.clear(book.available_mhz);
    if (outcome.markets_cleared == 0) continue;  // below min_clearable
    EXPECT_EQ(outcome.price, eq.price);
    // Walk the cohort in submission order mirroring the clearing's clamp of
    // the running remainder: each grant's bandwidth equals the equilibrium
    // demand up to that clamp.
    double remaining = book.available_mhz;
    std::size_t grant_index = 0;
    for (std::size_t n = 0; n < book.requests.size(); ++n) {
      if (eq.demands[n] <= 0.0) continue;  // priced out
      const double clamped = std::min(eq.demands[n], remaining);
      if (clamped <= 1e-9) continue;  // rounding ate its share: deferred
      ASSERT_LT(grant_index, outcome.grants.size());
      EXPECT_EQ(outcome.grants[grant_index].bandwidth_mhz, clamped);
      EXPECT_EQ(outcome.grants[grant_index].vmu_utility,
                eq.vmu_utilities[n]);
      remaining -= clamped;
      ++grant_index;
    }
    EXPECT_EQ(grant_index, outcome.grants.size());
  }
}

// Multi-clearing lifecycle: across repeated clears with shrinking capacity
// and fresh submissions in between, every request resolves exactly once
// (grant / priced-out / abandon), never twice, never zero times.
TEST(market_invariants, every_request_resolves_exactly_once_across_clearings) {
  vtm::util::rng gen(9090);
  for (int trial = 0; trial < 50; ++trial) {
    core::spot_market_config config;
    core::spot_market market(config);
    std::size_t submitted = 0;
    std::size_t resolved = 0;
    for (int round = 0; round < 4; ++round) {
      const auto book = draw_book(gen);
      for (const auto& request : book.requests) market.submit(request);
      submitted += book.requests.size();
      const auto outcome = market.clear(book.available_mhz);
      resolved += outcome.grants.size() + outcome.priced_out.size();
      EXPECT_EQ(market.pending(), outcome.deferred);
    }
    resolved += market.abandon_pending().size();
    EXPECT_EQ(resolved, submitted);
    EXPECT_EQ(market.pending(), 0u);
  }
}

// Checkpoint round-trip: a pricer serialized and reloaded produces bitwise
// identical prices on random observations (the nn::serialize text format
// loses no precision).
TEST(market_invariants, learned_pricer_checkpoint_roundtrip_is_bitwise) {
  const auto pricer = random_pricer(7, 5.0, 50.0);
  core::learned_pricer_config config = pricer->config();
  const core::learned_pricer reloaded(config, pricer->checkpoint());
  vtm::util::rng gen(13);
  for (int trial = 0; trial < 50; ++trial) {
    core::cohort_observation obs;
    obs.cohort = static_cast<std::size_t>(gen.uniform_int(1, 80));
    obs.capacity_mhz = 50.0;
    obs.available_mhz = gen.uniform(0.5, 50.0);
    obs.mean_alpha = gen.uniform(100.0, 2500.0);
    obs.max_alpha = obs.mean_alpha * 1.5;
    obs.sum_alpha = obs.mean_alpha * static_cast<double>(obs.cohort);
    obs.mean_kappa = gen.uniform(1.0, 12.0);
    obs.max_kappa = obs.mean_kappa * 1.5;
    obs.sum_kappa = obs.mean_kappa * static_cast<double>(obs.cohort);
    obs.spectral_efficiency = 30.0;
    obs.unit_cost = 5.0;
    obs.price_cap = 50.0;
    EXPECT_EQ(pricer->price(obs), reloaded.price(obs));
  }
}

// Learned prices always land inside the price box, whatever the network
// outputs (squashed_price clamps after the tanh headroom).
TEST(market_invariants, squashed_price_stays_in_box) {
  for (double raw : {-1e9, -3.0, -1.0, -0.2, 0.0, 0.4, 1.0, 2.5, 1e9}) {
    const double price = core::squashed_price(raw, 5.0, 50.0);
    EXPECT_GE(price, 5.0);
    EXPECT_LE(price, 50.0);
  }
  // Monotone in the raw action until the cap clamps.
  EXPECT_LT(core::squashed_price(-0.5, 5.0, 50.0),
            core::squashed_price(0.0, 5.0, 50.0));
  EXPECT_LT(core::squashed_price(0.0, 5.0, 50.0),
            core::squashed_price(0.5, 5.0, 50.0));
  // The headroom makes the cap reachable at a finite action.
  EXPECT_EQ(core::squashed_price(3.0, 5.0, 50.0), 50.0);
}

// Per-RSU channel heterogeneity: on a non-uniform chain every pool prices
// over its own RSU-pair distance, so identical cohorts clear at different
// prices along the chain (the ROADMAP bugfix this PR closes). The pools at
// the long gaps see a weaker link (lower R, higher κ) and a different
// equilibrium price than the pools at the short gaps.
TEST(market_invariants, prices_vary_along_a_non_uniform_chain) {
  core::fleet_config config;
  config.rsu_positions_m = {vtm::util::meters{1000.0}, vtm::util::meters{1600.0}, vtm::util::meters{3200.0}, vtm::util::meters{3800.0}, vtm::util::meters{5400.0}};
  config.coverage_radius_m = vtm::util::meters{900.0};  // covers the widest (1600 m) gap
  config.vehicle_count = 60;
  config.duration_s = vtm::util::seconds{80.0};
  config.clearing_epoch_s = vtm::util::seconds{0.5};
  config.seed = 11;

  const auto result = core::run_fleet_scenario(config);
  ASSERT_GT(result.completed, 0u);

  // Group completed migrations by destination RSU and compare mean prices
  // between a short-gap destination (600 m) and a long-gap one (1600 m).
  std::vector<double> price_sum(config.rsu_positions_m.size(), 0.0);
  std::vector<std::size_t> price_count(config.rsu_positions_m.size(), 0);
  for (const auto& record : result.migrations) {
    price_sum[record.to_rsu] += record.price;
    ++price_count[record.to_rsu];
  }
  // RSU 1 sits 600 m from RSU 0; RSU 2 sits 1600 m from RSU 1.
  ASSERT_GT(price_count[1], 0u);
  ASSERT_GT(price_count[2], 0u);
  const double short_gap_price =
      price_sum[1] / static_cast<double>(price_count[1]);
  const double long_gap_price =
      price_sum[2] / static_cast<double>(price_count[2]);
  // A longer hop lowers spectral efficiency, raising κ = D/R: transfers take
  // longer per MHz, demand curves shift, and the cleared price moves. The
  // two must be distinctly different — under the old global-constant link
  // they were drawn from identical markets.
  EXPECT_GT(std::abs(long_gap_price - short_gap_price), 0.5);
}
