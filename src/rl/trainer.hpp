// The training driver implementing the paper's Algorithm 1.
//
// `vector_trainer` steps B environments in lockstep through a vector_env,
// samples all B actions with one network forward, stores lockstep rows in a
// batch-aware rollout_buffer (per-env GAE segments), and runs a PPO update
// every |I| lockstep steps or at an episode boundary. With B = 1 it is
// Algorithm 1 itself: E episodes of K rounds on one environment, updating
// every |I| rounds. Per-episode statistics feed the convergence figures
// (Fig. 2).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rl/env.hpp"
#include "rl/policy.hpp"
#include "rl/ppo.hpp"
#include "rl/vector_env.hpp"
#include "util/rng.hpp"

namespace vtm::rl {

/// Episode/round budget (paper: E=500, K=100, update every |I|=20 rounds).
struct trainer_config {
  std::size_t episodes = 500;            ///< E.
  std::size_t rounds_per_episode = 100;  ///< K.
  std::size_t update_interval = 20;      ///< Run PPO when k % |I| == 0.
  std::uint64_t seed = 42;               ///< Action-sampling seed.
  /// Collect rollouts with nn::math_mode::fast activations (sampling and
  /// GAE bootstraps only — PPO's update graph always uses exact math). Off
  /// by default, keeping rollout sampling bitwise-consistent with the
  /// training graph.
  bool fast_rollout = false;
};

/// Per-episode training record.
struct episode_stats {
  std::size_t episode = 0;
  double episode_return = 0.0;  ///< Σ rewards — Fig. 2(a)'s y-axis.
  double mean_utility = 0.0;    ///< Mean leader utility over the episode.
  double best_utility = 0.0;    ///< Best leader utility in the episode.
  double final_utility = 0.0;   ///< Utility of round K — Fig. 2(b)'s y-axis.
  double mean_action = 0.0;
  double final_action = 0.0;
  double policy_entropy = 0.0;  ///< From the last PPO update of the episode.
  double value_loss = 0.0;
};

/// Per-episode callback (progress logging).
using episode_callback = std::function<void(const episode_stats&)>;

/// Run one greedy (mean-action) episode of at most `max_rounds` rounds on
/// `env` without learning. The utility is the step's "leader_utility" info
/// entry when present, else its reward.
[[nodiscard]] episode_stats evaluate_episode(environment& env,
                                             const actor_critic& policy,
                                             std::size_t max_rounds);

/// Batched rollout engine over a vector_env.
///
/// `config.episodes` counts episodes *completed across all environments*;
/// episodes finish either when an environment reports done (auto-reset) or
/// when it reaches `rounds_per_episode` (trainer-driven truncation, the value
/// function bootstraps the cut). Stats are emitted in completion order, ties
/// broken by environment index.
class vector_trainer {
 public:
  /// All references must outlive the trainer. Validates the configuration.
  vector_trainer(vector_env& envs, actor_critic& policy, ppo& learner,
                 const trainer_config& config);

  /// Run until `episodes` episodes have completed; returns one record each.
  [[nodiscard]] std::vector<episode_stats> train(
      const episode_callback& on_episode = {});

 private:
  vector_env& envs_;
  actor_critic& policy_;
  ppo& learner_;
  trainer_config config_;
  util::rng gen_;
};

}  // namespace vtm::rl
