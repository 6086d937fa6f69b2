#include "core/mechanism.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace vtm::core {

mechanism_config mechanism_config::paper() {
  mechanism_config config;
  config.env.history_length = 4;        // L
  config.env.rounds_per_episode = 100;  // K
  config.env.mode = reward_mode::paper_binary;
  config.trainer.episodes = 500;        // E
  config.trainer.rounds_per_episode = 100;
  config.trainer.update_interval = 20;  // |I|
  config.ppo.learning_rate = 1e-5;      // paper lr
  config.ppo.minibatch_size = 20;
  config.ppo.epochs = 10;               // M
  config.hidden = {64, 64};
  return config;
}

namespace {

/// Replica 0's environment config: the mechanism config's environment with
/// its seed derived from the master seed.
pricing_env_config seeded_env_config(const mechanism_config& config) {
  pricing_env_config env_config = config.env;
  env_config.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  return env_config;
}

/// The policy network, shaped by the pricing environment; its weights come
/// from the master seed.
rl::actor_critic make_policy(const pricing_env& env,
                             const mechanism_config& config) {
  util::rng net_gen(config.seed);
  rl::actor_critic_config net_config;
  net_config.obs_dim = env.observation_dim();
  net_config.act_dim = env.action_dim();
  net_config.hidden = config.hidden;
  net_config.initial_log_std = config.initial_log_std;
  return rl::actor_critic(net_config, net_gen);
}

/// Algorithm 1 on `rollout.num_envs` lockstep replicas, then one
/// deterministic episode on replica 0. A non-null `checkpoint` receives the
/// trained policy.
mechanism_result train_mechanism(const market_params& params,
                                 const mechanism_config& config,
                                 const rl::episode_callback& on_episode,
                                 std::string* checkpoint) {
  migration_market market(params);
  const pricing_env_config env_config = seeded_env_config(config);
  const pricing_env probe(market, env_config);  // dims + price mapping
  rl::actor_critic policy = make_policy(probe, config);

  util::rng ppo_gen(config.seed + 1);
  rl::ppo learner(policy, config.ppo, ppo_gen);

  rl::trainer_config trainer_config = config.trainer;
  trainer_config.rounds_per_episode = env_config.rounds_per_episode;
  trainer_config.seed = config.seed + 2;

  rl::vector_env envs(make_pricing_env_factory(params, env_config),
                      config.rollout.num_envs);
  rl::vector_trainer driver(envs, policy, learner, trainer_config);

  mechanism_result result;
  result.oracle = solve_equilibrium(market);
  result.history = driver.train(on_episode);
  result.final_eval = rl::evaluate_episode(envs.env(0), policy,
                                           trainer_config.rounds_per_episode);
  result.learned_utility = result.final_eval.mean_utility;
  result.learned_price =
      probe.price_from_action(result.final_eval.mean_action);
  result.learned_total_demand = market.total_demand(result.learned_price);
  result.learned_vmu_utility = market.total_vmu_utility(result.learned_price);
  if (checkpoint != nullptr) *checkpoint = rl::to_checkpoint(policy);
  return result;
}

}  // namespace

mechanism_result run_learning_mechanism(
    const market_params& params, const mechanism_config& config,
    const rl::episode_callback& on_episode) {
  VTM_EXPECTS(config.rollout.num_envs >= 1);
  return train_mechanism(params, config, on_episode, nullptr);
}

checkpointed_result train_with_checkpoint(const market_params& params,
                                          const mechanism_config& config) {
  VTM_EXPECTS(config.rollout.num_envs >= 1);
  checkpointed_result out;
  out.result = train_mechanism(params, config, {}, &out.checkpoint);
  return out;
}

double evaluate_checkpoint(const market_params& params,
                           const mechanism_config& config,
                           const std::string& checkpoint) {
  pricing_env env(migration_market(params), seeded_env_config(config));
  rl::actor_critic policy = make_policy(env, config);
  rl::load_checkpoint(policy, checkpoint);
  return rl::evaluate_episode(env, policy, config.env.rounds_per_episode)
      .mean_utility;
}

baseline_result run_baseline(const market_params& params,
                             rl::pricing_agent& agent, std::size_t episodes,
                             std::size_t rounds, std::uint64_t seed) {
  VTM_EXPECTS(episodes >= 1);
  VTM_EXPECTS(rounds >= 1);
  migration_market market(params);
  pricing_env_config env_config;
  env_config.rounds_per_episode = rounds;
  env_config.seed = seed ^ 0xabcdef1234567890ULL;
  pricing_env env(market, env_config);

  // Baselines act in price space directly; expose the price box to them
  // through a thin adapter around the normalized environment action.
  class price_space_agent final : public rl::pricing_agent {
   public:
    price_space_agent(rl::pricing_agent& inner, const pricing_env& env)
        : inner_(inner), env_(env) {}
    double select_action(double /*low*/, double /*high*/,
                         util::rng& gen) override {
      const auto& p = env_.market().params();
      last_price_ = inner_.select_action(p.unit_cost, p.price_cap, gen);
      return env_.action_from_price(last_price_);
    }
    void feedback(double /*action*/, double payoff) override {
      inner_.feedback(last_price_, payoff);
    }
    void reset() override { inner_.reset(); }
    [[nodiscard]] std::string name() const override { return inner_.name(); }

   private:
    rl::pricing_agent& inner_;
    const pricing_env& env_;
    double last_price_ = 0.0;
  };

  price_space_agent adapter(agent, env);
  util::rng gen(seed);

  baseline_result result;
  result.name = agent.name();
  result.best_utility = -1e300;
  for (std::size_t e = 0; e < episodes; ++e) {
    agent.reset();
    const auto stats = rl::run_agent_episode(env, adapter, rounds, gen);
    result.mean_utility += stats.mean_utility;
    result.best_utility = std::max(result.best_utility, stats.best_utility);
    result.final_utility += stats.final_utility;
    // Recover price statistics from the market response at the final action.
    result.mean_price += env.price_from_action(stats.mean_action);
  }
  const auto n = static_cast<double>(episodes);
  result.mean_utility /= n;
  result.final_utility /= n;
  result.mean_price /= n;
  result.mean_total_demand = market.total_demand(result.mean_price);
  result.mean_vmu_utility = market.total_vmu_utility(result.mean_price);
  return result;
}

fleet_pricer_result train_fleet_pricer(
    const fleet_pricer_config& config,
    const rl::episode_callback& on_episode) {
  VTM_EXPECTS(!config.harvest.empty());
  VTM_EXPECTS(config.rollout.num_envs >= 1);
  VTM_EXPECTS(config.episodes >= 1);
  VTM_EXPECTS(config.rounds_per_episode >= 1);

  // Harvest clearing cohorts by replaying the scenarios under the oracle.
  // All harvests must share one price box — it is baked into the pricer's
  // action map.
  const double unit_cost = config.harvest.front().unit_cost;
  const double price_cap = config.harvest.front().price_cap;
  std::vector<cohort_snapshot> snapshots;
  for (fleet_config fleet : config.harvest) {
    VTM_EXPECTS(fleet.unit_cost == unit_cost &&
                fleet.price_cap == price_cap);
    VTM_EXPECTS(fleet.mode == market_mode::joint);
    fleet.pricer = nullptr;
    fleet.record_cohorts = true;
    fleet.record_migrations = false;
    auto harvest = run_fleet_scenario(fleet);
    snapshots.insert(snapshots.end(),
                     std::make_move_iterator(harvest.cohorts.begin()),
                     std::make_move_iterator(harvest.cohorts.end()));
  }
  auto prepared = prepare_cohorts(snapshots);
  VTM_EXPECTS(!prepared.empty());
  const auto bank = std::make_shared<const std::vector<prepared_cohort>>(
      std::move(prepared));

  fleet_pricing_env_config env_config;
  env_config.rounds_per_episode = config.rounds_per_episode;
  env_config.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;

  util::rng net_gen(config.seed);
  rl::actor_critic_config net_config;
  net_config.obs_dim = cohort_feature_dim;
  net_config.act_dim = 1;
  net_config.hidden = config.hidden;
  net_config.initial_log_std = config.initial_log_std;
  rl::actor_critic policy(net_config, net_gen);

  util::rng ppo_gen(config.seed + 1);
  rl::ppo learner(policy, config.ppo, ppo_gen);

  rl::trainer_config trainer_config;
  trainer_config.episodes = config.episodes;
  trainer_config.rounds_per_episode = config.rounds_per_episode;
  trainer_config.update_interval = config.update_interval;
  trainer_config.seed = config.seed + 2;

  fleet_pricer_result result;
  result.cohorts = bank->size();

  rl::vector_env envs(make_fleet_pricing_env_factory(bank, env_config),
                      config.rollout.num_envs);
  rl::vector_trainer driver(envs, policy, learner, trainer_config);
  result.history = driver.train(on_episode);

  learned_pricer_config pricer_config;
  pricer_config.hidden = config.hidden;
  pricer_config.initial_log_std = config.initial_log_std;
  pricer_config.unit_cost = unit_cost;
  pricer_config.price_cap = price_cap;
  learned_pricer pricer(pricer_config, policy);

  // Deterministic (mean-action) sweep over the whole bank: the figure of
  // merit the acceptance thresholds gate on.
  double sum_ratio = 0.0;
  double min_ratio = 1e300;
  for (const auto& cohort : *bank) {
    const nn::tensor observation({1, cohort_feature_dim}, cohort.features);
    const double price = pricer.price_from_action(
        policy.act_deterministic(observation).action.item());
    const double ratio =
        cohort.market.leader_utility(price) / cohort.oracle_utility;
    sum_ratio += ratio;
    min_ratio = std::min(min_ratio, ratio);
  }
  result.eval_mean_ratio = sum_ratio / static_cast<double>(bank->size());
  result.eval_min_ratio = min_ratio;
  result.checkpoint = pricer.checkpoint();
  result.pricer = std::make_shared<const learned_pricer>(std::move(pricer));
  return result;
}

std::vector<baseline_result> run_paper_baselines(const market_params& params,
                                                 std::size_t episodes,
                                                 std::size_t rounds,
                                                 std::uint64_t seed) {
  rl::random_scheme random_agent;
  rl::greedy_scheme greedy_agent;
  std::vector<baseline_result> results;
  results.push_back(
      run_baseline(params, random_agent, episodes, rounds, seed));
  results.push_back(
      run_baseline(params, greedy_agent, episodes, rounds, seed + 1));
  return results;
}

}  // namespace vtm::core
