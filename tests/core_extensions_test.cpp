// Tests for the future-work extensions: multi-MSP price competition,
// pluggable immersion metrics, and the mechanism's robustness across seeds
// and its checkpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/immersion_models.hpp"
#include "core/mechanism.hpp"
#include "core/multi_msp.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace core = vtm::core;

namespace {

core::multi_msp_params duopoly(double sharpness = 0.25) {
  core::multi_msp_params params;
  params.msps = {{5.0, 50.0, 50.0}, {5.0, 50.0, 50.0}};
  params.vmus = {{500.0, 200.0}, {500.0, 100.0}};
  params.share_sharpness = sharpness;
  return params;
}

core::market_params monopoly_params() {
  core::market_params params;
  params.vmus = {{500.0, 200.0}, {500.0, 100.0}};
  return params;
}

}  // namespace

// ---- multi-MSP market mechanics -----------------------------------------------------

TEST(multi_msp, validates_parameters) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  auto no_msps = duopoly();
  no_msps.msps.clear();
  EXPECT_THROW((void)core::multi_msp_market{no_msps}, vtm::util::contract_error);
  auto bad_lambda = duopoly();
  bad_lambda.share_sharpness = 0.0;
  EXPECT_THROW((void)core::multi_msp_market{bad_lambda},
               vtm::util::contract_error);
  auto infinite_lambda = duopoly();
  infinite_lambda.share_sharpness = inf;
  EXPECT_THROW((void)core::multi_msp_market{infinite_lambda},
               vtm::util::contract_error);
  auto infinite_alpha = duopoly();
  infinite_alpha.vmus[1].alpha = inf;
  EXPECT_THROW((void)core::multi_msp_market{infinite_alpha},
               vtm::util::contract_error);

  // `assign` applies the same checks and leaves a rejected market as it was.
  const auto params = duopoly();
  core::multi_msp_market market(params);
  const double before = market.total_demand(10.0);
  std::vector<core::vmu_profile> bad_vmus = params.vmus;
  bad_vmus[0].data_mb = inf;
  EXPECT_THROW(market.assign({}, params.vmus), vtm::util::contract_error);
  EXPECT_THROW(market.assign(params.msps, {}), vtm::util::contract_error);
  EXPECT_THROW(market.assign(params.msps, bad_vmus),
               vtm::util::contract_error);
  EXPECT_EQ(market.msp_count(), 2u);
  EXPECT_EQ(market.vmu_count(), 2u);
  EXPECT_EQ(market.total_demand(10.0), before);
}

// One market re-targeted at random rosters and cohorts in sequence must
// evaluate exactly like a market built fresh from the same parameters: the
// demand curve at and beside every activation threshold, its slope, the
// shares, and a solve, bit for bit. Cohorts repeat profiles, some scaled by
// powers of two, so thresholds tie between profiles with different α and D;
// the curve must still add tied buyers in roster order, as a stable sort
// of the thresholds does.
TEST(multi_msp, assign_matches_fresh_market) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  vtm::util::rng gen(20261019);
  core::multi_msp_market reused(duopoly());
  std::size_t tied = 0;
  for (int trial = 0; trial < 200; ++trial) {
    core::multi_msp_params params = duopoly();
    params.msps.clear();
    params.vmus.clear();
    const auto msps = static_cast<std::size_t>(gen.uniform_int(1, 6));
    for (std::size_t m = 0; m < msps; ++m) {
      const double cost = gen.uniform(1.0, 10.0);
      params.msps.push_back({cost, gen.uniform(0.5, 60.0),
                             cost + gen.uniform(5.0, 60.0)});
    }
    const auto vmus = static_cast<std::size_t>(gen.uniform_int(1, 64));
    for (std::size_t n = 0; n < vmus; ++n) {
      core::vmu_profile vmu{gen.uniform(50.0, 3000.0),
                            gen.uniform(50.0, 400.0)};
      if (n > 0 && gen.uniform(0.0, 1.0) < 0.4) {
        // A repeat of an earlier buyer, scaled by a power of two: α/κ is
        // unchanged exactly, so the thresholds tie.
        const double scale =
            std::ldexp(1.0, static_cast<int>(gen.uniform_int(-1, 2)));
        const auto& earlier = params.vmus[static_cast<std::size_t>(
            gen.uniform_int(0, static_cast<int>(n) - 1))];
        vmu = {earlier.alpha * scale, earlier.data_mb * scale};
      }
      params.vmus.push_back(vmu);
    }
    reused.assign(params.msps, params.vmus);
    const core::multi_msp_market fresh(params);
    ASSERT_EQ(reused.msp_count(), msps);
    ASSERT_EQ(reused.vmu_count(), vmus);

    // The expected curve: thresholds stable-sorted in roster order, suffix
    // sums accumulated from the top as the market builds them.
    const double r = fresh.spectral_efficiency();
    std::vector<double> threshold(vmus);
    for (std::size_t n = 0; n < vmus; ++n)
      threshold[n] = params.vmus[n].alpha / (params.vmus[n].data_mb / r);
    std::vector<std::size_t> order(vmus);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return threshold[a] < threshold[b];
                     });
    std::vector<double> suffix_alpha(vmus + 1, 0.0);
    std::vector<double> suffix_kappa(vmus + 1, 0.0);
    for (std::size_t i = vmus; i-- > 0;) {
      const auto& vmu = params.vmus[order[i]];
      suffix_alpha[i] = vmu.alpha + suffix_alpha[i + 1];
      suffix_kappa[i] = vmu.data_mb / r + suffix_kappa[i + 1];
    }
    const auto expected_demand = [&](double p_eff) {
      std::size_t i = 0;
      while (i < vmus && !(threshold[order[i]] > p_eff)) ++i;
      if (i == vmus) return 0.0;
      const double demand = suffix_alpha[i] / p_eff - suffix_kappa[i];
      return demand > 0.0 ? demand : 0.0;
    };
    for (std::size_t i = 0; i + 1 < vmus; ++i)
      if (threshold[order[i]] == threshold[order[i + 1]]) ++tied;

    for (const double t : threshold) {
      for (const double p_eff : {t, std::nextafter(t, 0.0),
                                 std::nextafter(t, 1e300), 0.5 * t}) {
        EXPECT_EQ(bits(reused.total_demand(p_eff)),
                  bits(fresh.total_demand(p_eff)));
        EXPECT_EQ(bits(reused.total_demand(p_eff)),
                  bits(expected_demand(p_eff)))
            << "trial " << trial << " p_eff " << p_eff;
        EXPECT_EQ(bits(reused.total_demand_reference(p_eff)),
                  bits(fresh.total_demand_reference(p_eff)));
        const auto a = reused.demand_at(p_eff);
        const auto b = fresh.demand_at(p_eff);
        EXPECT_EQ(bits(a.demand), bits(b.demand));
        EXPECT_EQ(bits(a.slope), bits(b.slope));
      }
    }
    std::vector<double> prices;
    for (const auto& msp : params.msps)
      prices.push_back(gen.uniform(msp.unit_cost, msp.price_cap));
    const auto reused_shares = reused.shares(prices);
    const auto fresh_shares = fresh.shares(prices);
    for (std::size_t m = 0; m < msps; ++m)
      EXPECT_EQ(bits(reused_shares[m]), bits(fresh_shares[m]));

    const auto a = core::solve_price_competition(reused);
    const auto b = core::solve_price_competition(fresh);
    for (std::size_t m = 0; m < msps; ++m) {
      EXPECT_EQ(bits(a.prices[m]), bits(b.prices[m]));
      EXPECT_EQ(bits(a.sales[m]), bits(b.sales[m]));
      EXPECT_EQ(bits(a.utilities[m]), bits(b.utilities[m]));
    }
    EXPECT_EQ(bits(a.effective_price), bits(b.effective_price));
    EXPECT_EQ(bits(a.total_vmu_utility), bits(b.total_vmu_utility));
    EXPECT_EQ(a.objective_evals, b.objective_evals);
    EXPECT_EQ(a.iterations, b.iterations);
  }
  EXPECT_GT(tied, 500u);  // tied thresholds are actually exercised
}

TEST(multi_msp, shares_sum_to_one_and_favor_cheaper) {
  const core::multi_msp_market market(duopoly());
  const std::vector<double> prices{20.0, 30.0};
  const auto shares = market.shares(prices);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_NEAR(shares[0] + shares[1], 1.0, 1e-12);
  EXPECT_GT(shares[0], shares[1]);  // cheaper MSP gets more
}

TEST(multi_msp, equal_prices_split_evenly) {
  const core::multi_msp_market market(duopoly());
  const std::vector<double> prices{25.0, 25.0};
  const auto shares = market.shares(prices);
  EXPECT_NEAR(shares[0], 0.5, 1e-12);
  EXPECT_NEAR(shares[1], 0.5, 1e-12);
}

TEST(multi_msp, sharper_lambda_concentrates_demand) {
  const core::multi_msp_market soft(duopoly(0.1));
  const core::multi_msp_market sharp(duopoly(2.0));
  const std::vector<double> prices{20.0, 30.0};
  EXPECT_GT(sharp.shares(prices)[0], soft.shares(prices)[0]);
}

TEST(multi_msp, effective_price_between_min_and_max) {
  const core::multi_msp_market market(duopoly());
  const std::vector<double> prices{20.0, 30.0};
  const double p_eff = market.effective_price(prices);
  EXPECT_GT(p_eff, 20.0);
  EXPECT_LT(p_eff, 30.0);
}

TEST(multi_msp, vmu_demand_matches_eq8_at_effective_price) {
  const core::multi_msp_market market(duopoly());
  const std::vector<double> prices{24.0, 26.0};
  const double p_eff = market.effective_price(prices);
  const double kappa = 200.0 / market.spectral_efficiency();
  EXPECT_NEAR(market.vmu_demand(0, prices),
              std::max(0.0, 500.0 / p_eff - kappa), 1e-9);
}

TEST(multi_msp, sales_respect_per_msp_capacity) {
  auto params = duopoly();
  params.msps[0].bandwidth_cap_mhz = 3.0;  // tiny seller
  const core::multi_msp_market market(params);
  const std::vector<double> prices{10.0, 10.0};
  const auto sales = market.msp_sales(prices);
  EXPECT_LE(sales[0], 3.0 + 1e-12);
}

// ---- price competition equilibrium ---------------------------------------------------

TEST(multi_msp, single_msp_recovers_monopoly_price) {
  core::multi_msp_params params;
  params.msps = {{5.0, 50.0, 50.0}};
  params.vmus = {{500.0, 200.0}, {500.0, 100.0}};
  const auto competitive = core::solve_price_competition(
      core::multi_msp_market(params));
  const auto monopoly =
      core::solve_equilibrium(core::migration_market(monopoly_params()));
  ASSERT_TRUE(competitive.converged);
  EXPECT_NEAR(competitive.prices[0], monopoly.price, 0.05);
  EXPECT_NEAR(competitive.utilities[0], monopoly.leader_utility, 1.0);
}

TEST(multi_msp, competition_lowers_prices_below_monopoly) {
  const auto duo = core::solve_price_competition(
      core::multi_msp_market(duopoly(0.25)));
  const auto monopoly =
      core::solve_equilibrium(core::migration_market(monopoly_params()));
  ASSERT_TRUE(duo.converged);
  EXPECT_LT(duo.effective_price, monopoly.price);
  // Each duopolist earns less than the monopolist.
  EXPECT_LT(duo.utilities[0], monopoly.leader_utility);
  EXPECT_LT(duo.utilities[1], monopoly.leader_utility);
}

TEST(multi_msp, symmetric_duopoly_symmetric_equilibrium) {
  const auto eq = core::solve_price_competition(
      core::multi_msp_market(duopoly()));
  ASSERT_TRUE(eq.converged);
  EXPECT_NEAR(eq.prices[0], eq.prices[1], 1e-4);
  EXPECT_NEAR(eq.utilities[0], eq.utilities[1], 1e-2);
}

TEST(multi_msp, sharper_competition_approaches_cost) {
  // As λ grows the softmin approaches winner-take-all Bertrand competition,
  // driving the equilibrium price toward cost. Capacities are raised so the
  // capacity-clearing floor (see the next test) never masks the effect.
  double previous_price = 1e18;
  for (double lambda : {0.1, 0.5, 2.0}) {
    auto params = duopoly(lambda);
    for (auto& msp : params.msps) msp.bandwidth_cap_mhz = 500.0;
    const auto eq =
        core::solve_price_competition(core::multi_msp_market(params));
    ASSERT_TRUE(eq.converged) << "lambda " << lambda;
    EXPECT_LT(eq.effective_price, previous_price) << "lambda " << lambda;
    previous_price = eq.effective_price;
  }
  EXPECT_LT(previous_price, 12.0);  // far below the 25.3 monopoly price
}

TEST(multi_msp, capacity_floor_caps_price_competition) {
  // With per-MSP caps of 50 MHz, fierce competition cannot push the price
  // below the capacity-clearing level where each seller's grant is full:
  // 0.5·(Σα/p − Σκ) = 50. Sharpening λ past that point changes nothing.
  const auto mild = core::solve_price_competition(
      core::multi_msp_market(duopoly(0.5)));
  const auto fierce = core::solve_price_competition(
      core::multi_msp_market(duopoly(2.0)));
  ASSERT_TRUE(mild.converged && fierce.converged);
  EXPECT_NEAR(mild.effective_price, fierce.effective_price, 1e-3);
  // Both MSPs sell their full capacity at that price.
  EXPECT_NEAR(mild.sales[0], 50.0, 0.1);
  EXPECT_NEAR(mild.sales[1], 50.0, 0.1);
}

TEST(multi_msp, more_sellers_lower_prices) {
  auto two = duopoly(0.5);
  auto four = duopoly(0.5);
  four.msps.assign(4, {5.0, 50.0, 50.0});
  const auto eq2 =
      core::solve_price_competition(core::multi_msp_market(two));
  const auto eq4 =
      core::solve_price_competition(core::multi_msp_market(four));
  ASSERT_TRUE(eq2.converged && eq4.converged);
  EXPECT_LT(eq4.effective_price, eq2.effective_price);
}

TEST(multi_msp, vmus_gain_from_competition) {
  const auto duo = core::solve_price_competition(
      core::multi_msp_market(duopoly(0.5)));
  const auto monopoly =
      core::solve_equilibrium(core::migration_market(monopoly_params()));
  EXPECT_GT(duo.total_vmu_utility, monopoly.total_vmu_utility);
}

TEST(multi_msp, asymmetric_costs_cheaper_seller_wins_share) {
  auto params = duopoly(0.5);
  params.msps[0].unit_cost = 4.0;
  params.msps[1].unit_cost = 8.0;
  const core::multi_msp_market market(params);
  const auto eq = core::solve_price_competition(market);
  ASSERT_TRUE(eq.converged);
  EXPECT_LT(eq.prices[0], eq.prices[1]);  // low-cost seller undercuts
  EXPECT_GT(eq.sales[0], eq.sales[1]);
}

// ---- immersion models -----------------------------------------------------------------

TEST(immersion_models, log_model_matches_paper_formula) {
  const core::log_immersion model;
  EXPECT_NEAR(model.gain(500.0, 0.5), 500.0 * std::log(3.0), 1e-9);
  EXPECT_STREQ(model.name(), "log");
}

TEST(immersion_models, all_models_reward_freshness) {
  const core::log_immersion log_model;
  const core::power_immersion power_model(0.5);
  const core::saturating_immersion saturating_model(0.5);
  for (const core::immersion_model* model :
       {static_cast<const core::immersion_model*>(&log_model),
        static_cast<const core::immersion_model*>(&power_model),
        static_cast<const core::immersion_model*>(&saturating_model)}) {
    EXPECT_GT(model->gain(500.0, 0.1), model->gain(500.0, 1.0))
        << model->name();
    EXPECT_GT(model->gain(1000.0, 0.5), model->gain(500.0, 0.5))
        << model->name();
  }
}

TEST(immersion_models, saturating_model_bounded_by_alpha) {
  const core::saturating_immersion model(0.5);
  EXPECT_LT(model.gain(500.0, 1e-6), 500.0 + 1e-9);
}

TEST(immersion_models, parameter_validation) {
  EXPECT_THROW((void)core::power_immersion(1.5), vtm::util::contract_error);
  EXPECT_THROW((void)core::saturating_immersion(0.0), vtm::util::contract_error);
  const core::log_immersion model;
  EXPECT_THROW((void)model.gain(0.0, 1.0), vtm::util::contract_error);
  EXPECT_THROW((void)model.gain(1.0, 0.0), vtm::util::contract_error);
}

TEST(generalized_market, log_model_reproduces_closed_form_equilibrium) {
  const core::log_immersion model;
  const core::generalized_market generalized(monopoly_params(), model);
  const auto numeric = generalized.solve();
  const auto closed =
      core::solve_equilibrium(core::migration_market(monopoly_params()));
  EXPECT_NEAR(numeric.price, closed.price, 0.01);
  EXPECT_NEAR(numeric.leader_utility, closed.leader_utility, 0.5);
  EXPECT_NEAR(numeric.total_demand, closed.total_demand, 0.05);
}

TEST(generalized_market, best_response_is_utility_maximizing) {
  const core::power_immersion model(0.5);
  const core::generalized_market market(monopoly_params(), model);
  const double price = 25.0;
  for (std::size_t n = 0; n < market.vmu_count(); ++n) {
    const double best = market.best_response(n, price);
    const double at_best = market.vmu_utility(n, best, price);
    for (double b : {best * 0.5, best * 0.9, best * 1.1, best * 1.5}) {
      if (b <= 0.0 || b > market.params().bandwidth_cap_mhz.value()) continue;
      EXPECT_GE(at_best + 1e-6, market.vmu_utility(n, b, price));
    }
  }
}

TEST(generalized_market, models_rank_demand_consistently) {
  // At the same price, a heavier-tailed immersion metric buys more
  // bandwidth. Verify each model produces positive, capacity-respecting
  // demand and the leader solve stays within the box.
  const core::log_immersion log_model;
  const core::power_immersion power_model(0.5);
  const core::saturating_immersion saturating_model(2.0);
  for (const core::immersion_model* model :
       {static_cast<const core::immersion_model*>(&log_model),
        static_cast<const core::immersion_model*>(&power_model),
        static_cast<const core::immersion_model*>(&saturating_model)}) {
    const core::generalized_market market(monopoly_params(), *model);
    const auto solution = market.solve(128);
    EXPECT_GE(solution.price, 5.0) << model->name();
    EXPECT_LE(solution.price, 50.0) << model->name();
    EXPECT_GT(solution.total_demand, 0.0) << model->name();
    EXPECT_LE(solution.total_demand, 50.0 + 1e-9) << model->name();
    EXPECT_GT(solution.leader_utility, 0.0) << model->name();
  }
}

TEST(generalized_market, rationing_applies) {
  const core::log_immersion model;
  auto params = monopoly_params();
  params.bandwidth_cap_mhz = vtm::util::megahertz{5.0};
  const core::generalized_market market(params, model);
  const auto demands = market.demands(10.0);
  double total = 0.0;
  for (double b : demands) total += b;
  EXPECT_LE(total, 5.0 + 1e-9);
}

// ---- robustness / checkpoint harness ----------------------------------------------------

namespace {

core::mechanism_config tiny_config() {
  core::mechanism_config config;
  config.trainer.episodes = 40;
  config.ppo.learning_rate = 3e-4;
  return config;
}

}  // namespace

// Three independent seeds (seed + 1000·(i + 1)) each learn a policy within
// 80% of the oracle, and 90% on average.
TEST(evaluation, robustness_across_seeds) {
  const auto base = tiny_config();
  double sum = 0.0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto config = base;
    config.seed = base.seed + 1000 * (i + 1);
    const auto result = core::run_learning_mechanism(monopoly_params(), config);
    EXPECT_GT(result.optimality(), 0.8) << "seed " << config.seed;
    sum += result.optimality();
  }
  EXPECT_GT(sum / 3.0, 0.9);
}

TEST(evaluation, checkpoint_roundtrip_preserves_policy) {
  const auto trained =
      core::train_with_checkpoint(monopoly_params(), tiny_config());
  EXPECT_FALSE(trained.checkpoint.empty());
  EXPECT_GT(trained.result.optimality(), 0.9);

  const double replayed = core::evaluate_checkpoint(
      monopoly_params(), tiny_config(), trained.checkpoint);
  // Deterministic evaluation of the loaded policy reproduces the trained
  // policy's utility up to the random warm-up history of the first L rounds
  // (the fresh environment's RNG is at a different point than the trained
  // one's after E episodes).
  EXPECT_NEAR(replayed, trained.result.learned_utility,
              1e-3 * std::abs(trained.result.learned_utility));
}

TEST(evaluation, checkpoint_transfers_to_similar_market) {
  // A policy trained at C=5 still prices sensibly at C=6 (zero-shot).
  const auto trained =
      core::train_with_checkpoint(monopoly_params(), tiny_config());
  auto shifted = monopoly_params();
  shifted.unit_cost = 6.0;
  const double transferred =
      core::evaluate_checkpoint(shifted, tiny_config(), trained.checkpoint);
  const auto oracle =
      core::solve_equilibrium(core::migration_market(shifted));
  EXPECT_GT(transferred, 0.8 * oracle.leader_utility);
}

// train_with_checkpoint trains through the same driver as
// run_learning_mechanism, rollout config included.
TEST(evaluation, checkpoint_training_honours_rollout_config) {
  auto config = tiny_config();
  config.trainer.episodes = 12;
  config.trainer.fast_rollout = true;
  config.rollout.num_envs = 4;
  const auto trained = core::train_with_checkpoint(monopoly_params(), config);
  const auto direct = core::run_learning_mechanism(monopoly_params(), config);
  ASSERT_EQ(trained.result.history.size(), direct.history.size());
  for (std::size_t i = 0; i < direct.history.size(); ++i) {
    const auto& a = trained.result.history[i];
    const auto& b = direct.history[i];
    EXPECT_EQ(a.episode_return, b.episode_return);
    EXPECT_EQ(a.mean_utility, b.mean_utility);
    EXPECT_EQ(a.final_utility, b.final_utility);
    EXPECT_EQ(a.mean_action, b.mean_action);
    EXPECT_EQ(a.policy_entropy, b.policy_entropy);
    EXPECT_EQ(a.value_loss, b.value_loss);
  }
  EXPECT_EQ(trained.result.learned_price, direct.learned_price);
}

// The trainer's fast_rollout switch reaches the driver: fast-math sampling
// changes the training history of a B = 4 run.
TEST(evaluation, fast_rollout_changes_the_training_history) {
  auto config = tiny_config();
  config.trainer.episodes = 12;
  config.rollout.num_envs = 4;
  const auto exact = core::run_learning_mechanism(monopoly_params(), config);
  config.trainer.fast_rollout = true;
  const auto fast = core::run_learning_mechanism(monopoly_params(), config);
  ASSERT_EQ(exact.history.size(), fast.history.size());
  bool differs = false;
  for (std::size_t i = 0; i < exact.history.size(); ++i) {
    const auto& a = exact.history[i];
    const auto& b = fast.history[i];
    differs = differs || a.episode_return != b.episode_return ||
              a.mean_action != b.mean_action;
  }
  EXPECT_TRUE(differs);
}

TEST(evaluation, checkpoint_rejects_architecture_mismatch) {
  const auto trained =
      core::train_with_checkpoint(monopoly_params(), tiny_config());
  auto bigger = tiny_config();
  bigger.hidden = {128, 128};
  EXPECT_THROW((void)core::evaluate_checkpoint(monopoly_params(), bigger,
                                         trained.checkpoint),
               std::runtime_error);
}
