// The learning-based incentive mechanism — the paper's headline system.
//
// Wires the migration market into the pricing POMDP, trains the MSP's PPO
// agent (Algorithm 1, through rl::vector_trainer), evaluates the learned
// policy deterministically, and runs the paper's baseline schemes (random /
// greedy) plus the analytic Stackelberg oracle for comparison. One call
// produces everything a figure needs; the checkpointing entry points train
// and evaluate the same way.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "core/equilibrium.hpp"
#include "core/fleet_scenario.hpp"
#include "core/market.hpp"
#include "core/pricing_policy.hpp"
#include "rl/agents.hpp"
#include "rl/policy.hpp"
#include "rl/ppo.hpp"
#include "rl/trainer.hpp"

namespace vtm::core {

/// Batched-rollout knob of the training driver (fast-math sampling is
/// `rl::trainer_config::fast_rollout`).
struct rollout_config {
  /// Environment replicas B stepped in lockstep by rl::vector_trainer. 1 is
  /// Algorithm 1 on a single environment; > 1 collects B-row rollouts.
  std::size_t num_envs = 1;
};

/// Everything configurable about one mechanism run.
struct mechanism_config {
  pricing_env_config env{};        ///< L, K, reward mode, tolerance.
  rl::trainer_config trainer{};    ///< E, K, |I|, fast rollouts (K
                                   ///< mirrored from env).
  rl::ppo_config ppo{};            ///< Learning hyper-parameters.
  rollout_config rollout{};        ///< Batched-rollout engine (B).
  std::vector<std::size_t> hidden{64, 64};  ///< Trunk sizes (paper: 2x64).
  double initial_log_std = -0.7;   ///< Exploration scale in action units.
  std::uint64_t seed = 42;         ///< Master seed (env/net/trainer derive).

  /// Paper-faithful hyper-parameters (§V-A): E=500, K=100, L=4, |I|=20,
  /// M=10, lr=1e-5, 2x64 network. Note: with lr=1e-5 convergence needs the
  /// full 500-episode budget; the library default (this struct's defaults
  /// with lr from rl::ppo_config) trades strict faithfulness for wall-clock.
  [[nodiscard]] static mechanism_config paper();
};

/// Summary of a non-learning baseline scheme's performance.
struct baseline_result {
  std::string name;            ///< "random" or "greedy".
  double mean_utility = 0.0;   ///< Mean per-round MSP utility (across episodes).
  double best_utility = 0.0;   ///< Best single-round utility observed.
  double final_utility = 0.0;  ///< Mean last-round utility.
  double mean_price = 0.0;     ///< Mean posted price.
  double mean_total_demand = 0.0;
  double mean_vmu_utility = 0.0;  ///< Mean per-round total VMU utility.
};

/// Full outcome of training + evaluation on one market.
struct mechanism_result {
  equilibrium oracle;                       ///< Analytic SE for reference.
  std::vector<rl::episode_stats> history;   ///< Per-episode training curve.
  rl::episode_stats final_eval;             ///< Deterministic post-training run.
  double learned_price = 0.0;               ///< Mean price of final_eval.
  double learned_utility = 0.0;             ///< Mean MSP utility of final_eval.
  double learned_total_demand = 0.0;        ///< At the learned price.
  double learned_vmu_utility = 0.0;         ///< Total VMU utility at it.
  /// Optimality ratio vs the oracle (1.0 = matched the equilibrium).
  [[nodiscard]] double optimality() const noexcept {
    return oracle.leader_utility > 0.0
               ? learned_utility / oracle.leader_utility
               : 0.0;
  }
};

/// Train the PPO-based mechanism on a market and evaluate it.
[[nodiscard]] mechanism_result run_learning_mechanism(
    const market_params& params, const mechanism_config& config = {},
    const rl::episode_callback& on_episode = {});

/// A mechanism run plus its trained policy, serialized.
struct checkpointed_result {
  mechanism_result result;
  std::string checkpoint;  ///< rl::to_checkpoint text blob.
};

/// `run_learning_mechanism`, also returning the trained policy's checkpoint.
[[nodiscard]] checkpointed_result train_with_checkpoint(
    const market_params& params, const mechanism_config& config);

/// Rebuild the policy from a checkpoint and evaluate it deterministically on
/// a (possibly different) market without any training. The architecture in
/// `config` must match the checkpoint's (std::runtime_error otherwise).
/// Returns the mean MSP utility of one deterministic episode.
[[nodiscard]] double evaluate_checkpoint(const market_params& params,
                                         const mechanism_config& config,
                                         const std::string& checkpoint);

/// Run a baseline scheme for `episodes` episodes of `rounds` rounds each.
[[nodiscard]] baseline_result run_baseline(const market_params& params,
                                           rl::pricing_agent& agent,
                                           std::size_t episodes,
                                           std::size_t rounds,
                                           std::uint64_t seed);

/// Convenience: run both paper baselines with the given budget.
[[nodiscard]] std::vector<baseline_result> run_paper_baselines(
    const market_params& params, std::size_t episodes, std::size_t rounds,
    std::uint64_t seed);

// --- fleet pricer training (RL-priced spot markets) -------------------------

/// Everything configurable about one fleet-pricer training run. Cohorts are
/// harvested by replaying the `harvest` fleet scenarios priced by the oracle
/// (no pricer) with `record_cohorts` on; mixing regimes (e.g. a 100-vehicle
/// and a 5000-vehicle fleet) trains one policy covering both.
struct fleet_pricer_config {
  std::vector<fleet_config> harvest;     ///< Scenarios to harvest from.
  std::size_t episodes = 300;            ///< Training episodes.
  std::size_t rounds_per_episode = 64;   ///< Cohorts priced per episode.
  std::size_t update_interval = 16;      ///< PPO cadence (lockstep rounds).
  rl::ppo_config ppo{};                  ///< lr defaults overridden to 3e-4.
  rollout_config rollout{4};            ///< Batched collection (B=4).
  std::vector<std::size_t> hidden{64, 64};
  double initial_log_std = -0.7;
  std::uint64_t seed = 42;

  fleet_pricer_config() {
    ppo.learning_rate = 3e-4;
    // Cohort pricing is a contextual bandit: each round's reward depends
    // only on the current cohort and price, and cohorts are independent
    // draws. γ = 0 makes the advantage r − V(s) exactly the per-cohort
    // pricing error instead of mixing in future-draw randomness.
    ppo.gamma = 0.0;
    ppo.gae_lambda = 0.0;
  }
};

/// Outcome of train_fleet_pricer.
struct fleet_pricer_result {
  /// The trained pricer, ready to plug into fleet_config::pricer.
  std::shared_ptr<const learned_pricer> pricer;
  std::string checkpoint;             ///< nn::serialize blob of the policy.
  std::size_t cohorts = 0;            ///< Usable cohorts after preparation.
  std::vector<rl::episode_stats> history;  ///< Training curve (ratio return).
  /// Mean deterministic U_s(p)/U_s(oracle) across the cohort bank.
  double eval_mean_ratio = 0.0;
  double eval_min_ratio = 0.0;
};

/// Train the partial-information fleet pricer on cohorts harvested from the
/// given scenarios, through the batched rl::vector_trainer. Deterministic
/// given the seeds. Requires at least one harvest scenario that produces
/// non-degenerate cohorts.
[[nodiscard]] fleet_pricer_result train_fleet_pricer(
    const fleet_pricer_config& config,
    const rl::episode_callback& on_episode = {});

}  // namespace vtm::core
