#include "rl/trainer.hpp"

#include <algorithm>

#include "rl/buffer.hpp"
#include "util/contracts.hpp"

namespace vtm::rl {

episode_stats evaluate_episode(environment& env, const actor_critic& policy,
                               std::size_t max_rounds) {
  episode_stats stats;
  stats.best_utility = -1e300;
  nn::tensor observation = env.reset();
  std::size_t rounds = 0;
  for (std::size_t k = 0; k < max_rounds; ++k) {
    const auto sample = policy.act_deterministic(observation);
    const step_result result = env.step(sample.action);
    const auto it = result.info.find("leader_utility");
    const double utility =
        it != result.info.end() ? it->second : result.reward;
    stats.episode_return += result.reward;
    stats.mean_utility += utility;
    stats.best_utility = std::max(stats.best_utility, utility);
    stats.final_utility = utility;
    stats.mean_action += sample.action(0, 0);
    stats.final_action = sample.action(0, 0);
    observation = result.observation;
    ++rounds;
    if (result.done) break;
  }
  stats.mean_utility /= static_cast<double>(rounds);
  stats.mean_action /= static_cast<double>(rounds);
  return stats;
}

vector_trainer::vector_trainer(vector_env& envs, actor_critic& policy,
                               ppo& learner, const trainer_config& config)
    : envs_(envs),
      policy_(policy),
      learner_(learner),
      config_(config),
      gen_(config.seed) {
  VTM_EXPECTS(config.episodes >= 1);
  VTM_EXPECTS(config.rounds_per_episode >= 1);
  VTM_EXPECTS(config.update_interval >= 1);
  VTM_EXPECTS(envs.observation_dim() == policy.config().obs_dim);
  VTM_EXPECTS(envs.action_dim() == policy.config().act_dim);
}

std::vector<episode_stats> vector_trainer::train(
    const episode_callback& on_episode) {
  const std::size_t batch = envs_.size();

  // Per-environment accumulators for the episode in flight.
  struct accumulator {
    double episode_return = 0.0;
    double utility_sum = 0.0;
    double best_utility = -1e300;
    double final_utility = 0.0;
    double action_sum = 0.0;
    double final_action = 0.0;
    double policy_entropy = 0.0;
    double value_loss = 0.0;
    std::size_t rounds = 0;
  };
  std::vector<accumulator> acc(batch);

  rollout_buffer buffer(config_.update_interval, envs_.observation_dim(),
                        envs_.action_dim(), batch);
  nn::tensor observations = envs_.reset();

  std::vector<episode_stats> history;
  history.reserve(config_.episodes);
  std::vector<double> bootstraps(batch, 0.0);
  std::vector<std::uint8_t> truncated(batch, 0);

  const nn::math_mode mode =
      config_.fast_rollout ? nn::math_mode::fast : nn::math_mode::exact;
  while (history.size() < config_.episodes) {
    const auto sample = policy_.act_batch(observations, gen_, mode);
    const vector_step_result result = envs_.step(sample.actions);

    buffer.add_batch(observations, sample.actions, result.rewards,
                     sample.values, sample.log_probs, result.dones);

    bool boundary = false;
    for (std::size_t e = 0; e < batch; ++e) {
      accumulator& a = acc[e];
      ++a.rounds;
      const auto it = result.infos[e].find("leader_utility");
      const double utility =
          it != result.infos[e].end() ? it->second : result.rewards[e];
      a.episode_return += result.rewards[e];
      a.utility_sum += utility;
      a.best_utility = std::max(a.best_utility, utility);
      a.final_utility = utility;
      a.action_sum += sample.actions(e, 0);
      a.final_action = sample.actions(e, 0);
      if (result.dones[e]) {
        truncated[e] = 0;
        boundary = true;
      } else if (a.rounds >= config_.rounds_per_episode) {
        truncated[e] = 1;  // horizon reached without a terminal signal
        boundary = true;
      } else {
        truncated[e] = 0;
      }
    }

    observations = result.observations;

    // Update on a full buffer or at any episode boundary (Algorithm 1's
    // cadence), applied to all lockstep segments at once.
    if (buffer.steps() > 0 && (buffer.full() || boundary)) {
      // One batched critic pass bootstraps every non-terminal segment;
      // auto-reset replaced done rows, but those bootstrap with 0 anyway.
      // Truncated rows still hold the pre-reset observation here.
      const std::vector<double> values =
          policy_.values_batch(observations, mode);
      for (std::size_t e = 0; e < batch; ++e)
        bootstraps[e] = result.dones[e] ? 0.0 : values[e];
      buffer.compute_advantages(learner_.config().gamma,
                                learner_.config().gae_lambda, bootstraps);
      const auto update = learner_.update(buffer);
      for (auto& a : acc) {
        a.policy_entropy = update.entropy;
        a.value_loss = update.value_loss;
      }
      buffer.clear();
    }

    // Finalize completed episodes in environment-index order.
    for (std::size_t e = 0; e < batch; ++e) {
      if (!result.dones[e] && !truncated[e]) continue;
      const accumulator& a = acc[e];
      episode_stats stats;
      stats.episode = history.size();
      stats.episode_return = a.episode_return;
      const auto rounds = static_cast<double>(a.rounds);
      stats.mean_utility = a.utility_sum / rounds;
      stats.best_utility = a.best_utility;
      stats.final_utility = a.final_utility;
      stats.mean_action = a.action_sum / rounds;
      stats.final_action = a.final_action;
      stats.policy_entropy = a.policy_entropy;
      stats.value_loss = a.value_loss;
      history.push_back(stats);
      if (on_episode) on_episode(history.back());
      acc[e] = accumulator{};
      if (truncated[e])
        observations.set_row(e, envs_.reset_env(e));
      if (history.size() == config_.episodes) return history;
    }
  }
  return history;
}

}  // namespace vtm::rl
