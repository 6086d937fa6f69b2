// Property suite for `core::multi_msp_market` under capacity rationing —
// the static oligopoly the fleet's competitive clearing engine drives
// (DESIGN.md §11). Randomized across rosters, price vectors, and cohort
// draws:
//   1. softmin shares always sum to 1 and are strictly positive;
//   2. rationed sales never exceed any MSP's bandwidth_cap_mhz;
//   3. per-MSP utilities are exactly (p_m − C_m)·sales_m;
//   4. with M = 1, shares/effective price/demands are *bitwise* the monopoly
//      `core::market` path (same formulas, same arithmetic), so plugging
//      the oligopoly evaluator into a single-seller market changes nothing;
//   5. a solve on reused scratch and result is bitwise the by-value solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/market.hpp"
#include "core/multi_msp.hpp"
#include "util/rng.hpp"

namespace core = vtm::core;

namespace {

core::multi_msp_params draw_params(vtm::util::rng& gen, std::size_t msps) {
  core::multi_msp_params params;
  for (std::size_t m = 0; m < msps; ++m) {
    core::msp_profile msp;
    msp.unit_cost = gen.uniform(1.0, 10.0);
    msp.price_cap = msp.unit_cost + gen.uniform(5.0, 60.0);
    msp.bandwidth_cap_mhz = gen.uniform(0.5, 60.0);
    params.msps.push_back(msp);
  }
  const auto vmus = static_cast<std::size_t>(gen.uniform_int(1, 10));
  for (std::size_t n = 0; n < vmus; ++n)
    params.vmus.push_back({gen.uniform(50.0, 3000.0),
                           gen.uniform(50.0, 400.0)});
  params.share_sharpness = gen.uniform(0.05, 4.0);
  return params;
}

std::vector<double> draw_prices(vtm::util::rng& gen,
                                const core::multi_msp_params& params) {
  std::vector<double> prices;
  for (const auto& msp : params.msps)
    prices.push_back(gen.uniform(msp.unit_cost, msp.price_cap));
  return prices;
}

}  // namespace

TEST(multi_msp_property, shares_sum_to_one_and_stay_positive) {
  vtm::util::rng gen(20260729);
  for (int trial = 0; trial < 200; ++trial) {
    const auto msps = static_cast<std::size_t>(gen.uniform_int(1, 6));
    auto params = draw_params(gen, msps);
    const core::multi_msp_market market(params);
    const auto prices = draw_prices(gen, params);
    const auto shares = market.shares(prices);
    ASSERT_EQ(shares.size(), msps);
    double total = 0.0;
    for (const double w : shares) {
      EXPECT_GT(w, 0.0);  // softmin never fully starves a seller
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(multi_msp_property, rationed_sales_never_exceed_any_cap) {
  vtm::util::rng gen(41);
  for (int trial = 0; trial < 200; ++trial) {
    const auto msps = static_cast<std::size_t>(gen.uniform_int(1, 6));
    auto params = draw_params(gen, msps);
    const core::multi_msp_market market(params);
    const auto prices = draw_prices(gen, params);
    const auto sales = market.msp_sales(prices);
    ASSERT_EQ(sales.size(), msps);
    for (std::size_t m = 0; m < msps; ++m) {
      EXPECT_GE(sales[m], 0.0);
      EXPECT_LE(sales[m], params.msps[m].bandwidth_cap_mhz);
    }
    // Equilibrium prices keep the invariant too (they are just another
    // price vector as far as rationing is concerned).
    const auto eq = core::solve_price_competition(market);
    for (std::size_t m = 0; m < msps; ++m)
      EXPECT_LE(eq.sales[m], params.msps[m].bandwidth_cap_mhz);
  }
}

TEST(multi_msp_property, utilities_are_margin_times_sales) {
  vtm::util::rng gen(7);
  for (int trial = 0; trial < 100; ++trial) {
    const auto msps = static_cast<std::size_t>(gen.uniform_int(2, 5));
    auto params = draw_params(gen, msps);
    const core::multi_msp_market market(params);
    const auto prices = draw_prices(gen, params);
    const auto sales = market.msp_sales(prices);
    const auto utilities = market.msp_utilities(prices);
    for (std::size_t m = 0; m < msps; ++m)
      EXPECT_EQ(utilities[m],
                (prices[m] - params.msps[m].unit_cost) * sales[m]);
  }
}

// A tiny cap must bind exactly: the rationed seller sells its whole pool.
TEST(multi_msp_property, binding_cap_sells_exactly_the_pool) {
  core::multi_msp_params params;
  params.msps = {{5.0, 0.25, 50.0}, {5.0, 50.0, 50.0}};
  params.vmus = {{2000.0, 100.0}, {2000.0, 150.0}, {1500.0, 120.0}};
  const core::multi_msp_market market(params);
  const std::vector<double> prices{6.0, 6.0};
  const auto sales = market.msp_sales(prices);
  EXPECT_EQ(sales[0], 0.25);  // cap binds bit-exactly (min against the cap)
  EXPECT_LE(sales[1], 50.0);
}

// ---- M = 1 is bitwise the monopoly market ----------------------------------

TEST(multi_msp_property, single_msp_is_bitwise_the_monopoly_path) {
  vtm::util::rng gen(1234);
  for (int trial = 0; trial < 100; ++trial) {
    auto params = draw_params(gen, 1);
    const core::multi_msp_market oligo(params);

    core::market_params mono;
    mono.vmus = params.vmus;
    mono.link = params.link;
    mono.bandwidth_cap_mhz = vtm::util::megahertz{params.msps[0].bandwidth_cap_mhz};
    mono.unit_cost = params.msps[0].unit_cost;
    mono.price_cap = params.msps[0].price_cap;
    const core::migration_market market(mono);

    const double price =
        gen.uniform(params.msps[0].unit_cost, params.msps[0].price_cap);
    const std::vector<double> prices{price};

    // Degenerate softmin: exp(0)/exp(0) — exactly one, no rounding.
    const auto shares = oligo.shares(prices);
    EXPECT_EQ(shares, std::vector<double>{1.0});
    EXPECT_EQ(oligo.effective_price(prices), price);

    // Per-VMU demand is the identical expression (α/p − κ clamped at 0), so
    // the doubles match bit for bit.
    for (std::size_t n = 0; n < params.vmus.size(); ++n)
      EXPECT_EQ(oligo.vmu_demand(n, prices), market.best_response(n, price));
  }
}

// ---- Fast path vs reference oracle (DESIGN.md §12) -------------------------

// The O(log N) suffix-sum demand curve must be *bitwise* the O(N) descending
// reference walk — including exactly at activation thresholds, where the
// active set changes.
TEST(multi_msp_property, fast_demand_curve_is_bitwise_the_reference) {
  vtm::util::rng gen(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    auto params = draw_params(gen, 2);
    const core::multi_msp_market market(params);
    const double r = market.spectral_efficiency();
    double t_min = std::numeric_limits<double>::infinity();
    double t_max = 0.0;
    for (const auto& vmu : params.vmus) {
      const double threshold = vmu.alpha / (vmu.data_mb / r);
      t_min = std::min(t_min, threshold);
      t_max = std::max(t_max, threshold);
      // Exactly at a threshold the VMU is inactive (strict >): both paths
      // must agree on the boundary semantics too.
      EXPECT_EQ(market.total_demand(threshold),
                market.total_demand_reference(threshold));
    }
    for (int probe = 0; probe < 32; ++probe) {
      const double p_eff = gen.uniform(0.5 * t_min, 1.5 * t_max);
      EXPECT_EQ(market.total_demand(p_eff),
                market.total_demand_reference(p_eff));
    }
  }
}

// The cached-rivals best response must find a price whose profit matches the
// original full-renormalization grid + golden-section search.
TEST(multi_msp_property, fast_best_response_matches_the_reference_oracle) {
  vtm::util::rng gen(20260807);
  for (int trial = 0; trial < 60; ++trial) {
    const auto msps = static_cast<std::size_t>(gen.uniform_int(2, 5));
    auto params = draw_params(gen, msps);
    const core::multi_msp_market market(params);
    const auto prices = draw_prices(gen, params);
    for (std::size_t m = 0; m < msps; ++m) {
      const auto fast = market.best_response_to(m, prices, 1e-9);
      const double slow = market.best_response_price_reference(m, prices);
      auto at_fast = std::vector<double>(prices);
      at_fast[m] = fast.price;
      auto at_slow = std::vector<double>(prices);
      at_slow[m] = slow;
      const double u_fast = market.msp_utilities(at_fast)[m];
      const double u_slow = market.msp_utilities(at_slow)[m];
      EXPECT_NEAR(u_fast, u_slow,
                  1e-6 * std::max(1.0, std::abs(u_slow)))
          << "m=" << m << " fast=" << fast.price << " slow=" << slow;
    }
  }
}

// A warm-started solve must land on the cold equilibrium (within tolerance),
// and the cold path itself must be deterministic bit for bit.
TEST(multi_msp_property, warm_start_reaches_the_cold_equilibrium) {
  vtm::util::rng gen(20260808);
  for (int trial = 0; trial < 40; ++trial) {
    const auto msps = static_cast<std::size_t>(gen.uniform_int(2, 4));
    auto params = draw_params(gen, msps);
    params.share_sharpness = gen.uniform(0.05, 1.0);
    const core::multi_msp_market market(params);

    const auto cold = core::solve_price_competition(market);
    if (!cold.converged) continue;
    EXPECT_FALSE(cold.warm_started);
    const auto again = core::solve_price_competition(market);
    EXPECT_EQ(cold.prices, again.prices);  // no hidden state, bitwise rerun

    std::vector<double> warm(cold.prices);
    for (double& p : warm) p *= gen.uniform(0.95, 1.05);
    core::price_competition_options options;
    options.warm_start = warm;
    const auto warmed = core::solve_price_competition(market, options);
    EXPECT_TRUE(warmed.warm_started);
    ASSERT_TRUE(warmed.converged);
    for (std::size_t m = 0; m < msps; ++m)
      EXPECT_NEAR(warmed.prices[m], cold.prices[m], 1e-5);
  }
}

// Differential test of the Newton stage (DESIGN.md §12). Warm starts sit
// ±5% off the cold fixed point, which only the dampened loop computes, over
// 2–6 sellers, sharpness up to λ = 4, and capacities small enough that
// rationing kinks bind. Whenever Newton answers, it must land on the cold prices within the
// solver's accuracy and on the reference oracle's best responses, and it
// must answer nearly every trial itself rather than pass through the
// fallback.
TEST(multi_msp_property, newton_warm_start_matches_the_dampened_solve) {
  vtm::util::rng gen(20261017);
  int warm_trials = 0;
  int newton_answered = 0;
  int kinks_bound = 0;
  int interiors = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto msps = static_cast<std::size_t>(gen.uniform_int(2, 6));
    const auto params = draw_params(gen, msps);
    const core::multi_msp_market market(params);
    const auto cold = core::solve_price_competition(market);
    if (!cold.converged) continue;
    EXPECT_EQ(cold.newton_iterations, 0u);  // cold starts stay on the loop

    std::vector<double> warm(cold.prices);
    for (double& p : warm) p *= gen.uniform(0.95, 1.05);
    core::price_competition_options options;
    options.warm_start = warm;
    const auto eq = core::solve_price_competition(market, options);
    ++warm_trials;
    if (eq.newton_iterations == 0) continue;  // the dampened loop answered
    ++newton_answered;

    EXPECT_TRUE(eq.converged);
    EXPECT_LE(eq.residual, 1e-7);
    if (eq.certified) {
      EXPECT_LT(eq.contraction_ratio, 1.0);
      EXPECT_TRUE(std::isfinite(eq.error_bound));
      EXPECT_GE(eq.error_bound, 0.0);
    }
    bool kinked = false;
    bool interior = false;
    for (std::size_t m = 0; m < msps; ++m) {
      EXPECT_NEAR(eq.prices[m], cold.prices[m], 1e-5)
          << "trial " << trial << " seller " << m;
      EXPECT_NEAR(market.best_response_price_reference(m, eq.prices),
                  eq.prices[m], 5e-6)
          << "trial " << trial << " seller " << m;
      const bool rationed =
          eq.sales[m] >= params.msps[m].bandwidth_cap_mhz * (1.0 - 1e-6);
      kinked = kinked || rationed;
      interior = interior ||
                 (!rationed && eq.prices[m] < params.msps[m].price_cap);
    }
    if (kinked) ++kinks_bound;
    if (interior) ++interiors;
  }
  EXPECT_GT(warm_trials, 250);
  EXPECT_GE(newton_answered, 0.9 * warm_trials);
  EXPECT_GT(kinks_bound, 50);  // both kinds of rows are exercised
  EXPECT_GT(interiors, 5);
}

// One scratch and one result reused across random solves — every roster
// size, cold and warm starts, and warm starts far enough off
// the fixed point that the dampened loop answers — must reproduce the
// by-value solve, which runs on fresh storage, in every field bit for bit.
TEST(multi_msp_property, reused_scratch_matches_fresh_solve) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto same = [&](const std::vector<double>& a,
                        const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (bits(a[i]) != bits(b[i])) return false;
    return true;
  };
  vtm::util::rng gen(20261019);
  core::multi_msp_equilibrium reused;
  core::price_competition_scratch scratch;
  int cold = 0;
  int newton = 0;
  int fallback = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    const auto msps = static_cast<std::size_t>(gen.uniform_int(1, 6));
    const auto params = draw_params(gen, msps);
    const core::multi_msp_market market(params);
    core::price_competition_options options;
    std::vector<double> warm;
    const auto start = gen.uniform_int(0, 3);
    if (start == 1) {
      // Near the fixed point: Newton's regime.
      warm = core::solve_price_competition(market).prices;
      for (double& p : warm) p *= gen.uniform(0.98, 1.02);
    } else if (start == 2) {
      // Anywhere in the box.
      warm = draw_prices(gen, params);
    } else if (start == 3) {
      // Box corners: mostly the dampened loop's after Newton fails.
      for (const auto& msp : params.msps)
        warm.push_back(gen.uniform_int(0, 1) == 0 ? msp.unit_cost
                                                  : msp.price_cap);
    }
    options.warm_start = warm;

    const auto fresh = core::solve_price_competition(market, options);
    core::solve_price_competition(market, options, reused, scratch);
    EXPECT_TRUE(same(reused.prices, fresh.prices)) << "trial " << trial;
    EXPECT_TRUE(same(reused.sales, fresh.sales)) << "trial " << trial;
    EXPECT_TRUE(same(reused.utilities, fresh.utilities)) << "trial " << trial;
    EXPECT_EQ(bits(reused.effective_price), bits(fresh.effective_price));
    EXPECT_EQ(bits(reused.total_demand), bits(fresh.total_demand));
    EXPECT_EQ(bits(reused.total_vmu_utility), bits(fresh.total_vmu_utility));
    EXPECT_EQ(reused.iterations, fresh.iterations);
    EXPECT_EQ(reused.newton_iterations, fresh.newton_iterations);
    EXPECT_EQ(reused.converged, fresh.converged);
    EXPECT_EQ(bits(reused.residual), bits(fresh.residual));
    EXPECT_EQ(bits(reused.contraction_ratio), bits(fresh.contraction_ratio));
    EXPECT_EQ(bits(reused.error_bound), bits(fresh.error_bound));
    EXPECT_EQ(bits(reused.damping), bits(fresh.damping));
    EXPECT_EQ(reused.certified, fresh.certified);
    EXPECT_EQ(reused.warm_started, fresh.warm_started);
    EXPECT_EQ(reused.objective_evals, fresh.objective_evals);

    if (!fresh.warm_started)
      ++cold;
    else if (fresh.newton_iterations > 0)
      ++newton;
    else if (msps >= 2)
      ++fallback;
  }
  // Every path through the solver is exercised.
  std::printf("cold %d, newton %d, fallback %d\n", cold, newton, fallback);
  EXPECT_GT(cold, 200);
  EXPECT_GT(newton, 200);
  EXPECT_GT(fallback, 100);
}

// Certificate soundness: converged means the measured defect is within tol,
// certified means the contraction ratio is < 1 with a finite error bound —
// and the claimed fixed point must sit on the *reference* best responses.
TEST(multi_msp_property, convergence_certificate_is_sound) {
  vtm::util::rng gen(20260809);
  int certified_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto msps = static_cast<std::size_t>(gen.uniform_int(2, 4));
    auto params = draw_params(gen, msps);
    params.share_sharpness = gen.uniform(0.05, 1.0);
    const core::multi_msp_market market(params);
    const auto eq = core::solve_price_competition(market);
    if (!eq.converged) continue;
    EXPECT_LE(eq.residual, 1e-7);
    if (eq.certified) {
      ++certified_seen;
      EXPECT_LT(eq.contraction_ratio, 1.0);
      EXPECT_TRUE(std::isfinite(eq.error_bound));
      EXPECT_GE(eq.error_bound, 0.0);
    }
    for (std::size_t m = 0; m < msps; ++m) {
      const double br = market.best_response_price_reference(m, eq.prices);
      EXPECT_NEAR(br, eq.prices[m], 5e-6);
    }
  }
  EXPECT_GT(certified_seen, 10);  // the certificate actually fires
}

// ---- Edgeworth-cycle regression (DESIGN.md §12) ----------------------------

// Pinned sharp-λ + binding-cap duopoly where the pre-dampening pure
// Gauss–Seidel iteration (replicated here through the reference oracle)
// cycles forever. The dampened simultaneous solver must converge *and*
// certify the fixed point — and it must have engaged the θ-bisection to do
// so.
TEST(multi_msp_property, edgeworth_cycle_converges_certified_under_dampening) {
  core::multi_msp_params params;
  params.msps = {{11.491534, 2.545243, 61.491534},
                 {3.166662, 18.729938, 53.166662}};
  params.vmus = {{2454.443776, 340.280578},
                 {2502.560645, 305.724865},
                 {2804.299698, 173.238309},
                 {956.430486, 196.808302},
                 {951.991555, 383.538504}};
  params.share_sharpness = 41.3848;
  const core::multi_msp_market market(params);

  // Pre-PR solver: sequential undercutting with full steps. It chases the
  // Edgeworth cycle and never settles.
  std::vector<double> p;
  for (const auto& msp : params.msps)
    p.push_back(0.5 * (msp.unit_cost + msp.price_cap));
  bool gauss_seidel_converged = false;
  for (std::size_t sweep = 0; sweep < 150 && !gauss_seidel_converged;
       ++sweep) {
    double move = 0.0;
    for (std::size_t m = 0; m < p.size(); ++m) {
      const double br = market.best_response_price_reference(m, p);
      move = std::max(move, std::abs(br - p[m]));
      p[m] = br;
    }
    gauss_seidel_converged = move <= 1e-7;
  }
  EXPECT_FALSE(gauss_seidel_converged);

  const auto eq = core::solve_price_competition(market);
  ASSERT_TRUE(eq.converged);
  EXPECT_TRUE(eq.certified);
  EXPECT_LT(eq.damping, 1.0);  // the θ-bisection engaged
  EXPECT_LE(eq.residual, 1e-7);
  for (std::size_t m = 0; m < eq.prices.size(); ++m)
    EXPECT_NEAR(market.best_response_price_reference(m, eq.prices),
                eq.prices[m], 5e-5);
}
