// Tests for the Algorithm-1 training driver on a one-replica vector_env:
// update cadence, episode accounting, early termination, and evaluation
// determinism.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rl/policy.hpp"
#include "rl/ppo.hpp"
#include "rl/trainer.hpp"
#include "rl/vector_env.hpp"
#include "util/contracts.hpp"

namespace rl = vtm::rl;
namespace nn = vtm::nn;

namespace {

/// Instrumented environment: counts steps/resets, terminates after a fixed
/// number of rounds, pays a constant utility.
class counting_env final : public rl::environment {
 public:
  explicit counting_env(std::size_t episode_length)
      : episode_length_(episode_length) {}

  std::size_t observation_dim() const override { return 2; }
  std::size_t action_dim() const override { return 1; }
  double action_low() const override { return -1.0; }
  double action_high() const override { return 1.0; }

  nn::tensor reset() override {
    ++resets;
    round_ = 0;
    return nn::tensor({1, 2}, 0.0);
  }

  rl::step_result step(const nn::tensor&) override {
    ++steps;
    ++round_;
    rl::step_result result;
    result.reward = 1.0;
    result.observation = nn::tensor({1, 2}, 0.1);
    result.done = round_ >= episode_length_;
    result.info["leader_utility"] = 5.0;
    return result;
  }

  std::size_t steps = 0;
  std::size_t resets = 0;

 private:
  std::size_t episode_length_;
  std::size_t round_ = 0;
};

struct harness {
  rl::vector_env envs;
  counting_env& env;  ///< The one replica, owned by `envs`.
  vtm::util::rng gen{1};
  rl::actor_critic policy;
  vtm::util::rng ppo_gen{2};
  rl::ppo learner;

  harness(std::size_t episode_length, rl::ppo_config ppo_config = {})
      : envs(
            [episode_length](std::size_t) {
              return std::make_unique<counting_env>(episode_length);
            },
            1),
        env(static_cast<counting_env&>(envs.env(0))),
        policy(
            [] {
              rl::actor_critic_config config;
              config.obs_dim = 2;
              config.hidden = {8};
              return config;
            }(),
            gen),
        learner(policy, ppo_config, ppo_gen) {}
};

}  // namespace

TEST(trainer, validates_configuration) {
  harness h(10);
  rl::trainer_config bad;
  bad.episodes = 0;
  EXPECT_THROW((void)rl::vector_trainer(h.envs, h.policy, h.learner, bad),
               vtm::util::contract_error);
}

TEST(trainer, rejects_mismatched_dimensions) {
  harness h(10);
  vtm::util::rng gen(3);
  rl::actor_critic_config wrong;
  wrong.obs_dim = 7;  // env has 2
  wrong.hidden = {8};
  rl::actor_critic mismatched(wrong, gen);
  rl::trainer_config config;
  EXPECT_THROW(
      (void)rl::vector_trainer(h.envs, mismatched, h.learner, config),
      vtm::util::contract_error);
}

TEST(trainer, runs_exactly_episodes_times_rounds) {
  harness h(/*episode_length=*/1000);  // env never terminates early
  rl::trainer_config config;
  config.episodes = 3;
  config.rounds_per_episode = 25;
  config.update_interval = 5;
  rl::vector_trainer driver(h.envs, h.policy, h.learner, config);
  const auto history = driver.train();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(h.env.steps, 3u * 25u);
  // The first reset, then one per truncated episode (the last one included).
  EXPECT_EQ(h.env.resets, 4u);
  for (const auto& episode : history) {
    EXPECT_DOUBLE_EQ(episode.episode_return, 25.0);  // reward 1 per round
    EXPECT_DOUBLE_EQ(episode.mean_utility, 5.0);
  }
}

TEST(trainer, stops_episode_on_done) {
  harness h(/*episode_length=*/7);  // env terminates before the round budget
  rl::trainer_config config;
  config.episodes = 2;
  config.rounds_per_episode = 50;
  config.update_interval = 4;
  rl::vector_trainer driver(h.envs, h.policy, h.learner, config);
  const auto history = driver.train();
  EXPECT_EQ(h.env.steps, 2u * 7u);
  EXPECT_DOUBLE_EQ(history[0].episode_return, 7.0);
}

TEST(trainer, ppo_updates_fire_at_the_interval) {
  harness h(1000);
  rl::trainer_config config;
  config.episodes = 1;
  config.rounds_per_episode = 100;
  config.update_interval = 20;
  rl::vector_trainer driver(h.envs, h.policy, h.learner, config);
  (void)driver.train();
  // 100 rounds / |I| = 20 -> 5 updates x M epochs each.
  EXPECT_EQ(h.learner.steps(), 5u * h.learner.config().epochs);
}

TEST(trainer, partial_final_buffer_still_updates) {
  harness h(1000);
  rl::trainer_config config;
  config.episodes = 1;
  config.rounds_per_episode = 25;  // 20 + partial 5
  config.update_interval = 20;
  rl::vector_trainer driver(h.envs, h.policy, h.learner, config);
  (void)driver.train();
  EXPECT_EQ(h.learner.steps(), 2u * h.learner.config().epochs);
}

TEST(trainer, callback_ordering_and_count) {
  harness h(1000);
  rl::trainer_config config;
  config.episodes = 4;
  config.rounds_per_episode = 10;
  rl::vector_trainer driver(h.envs, h.policy, h.learner, config);
  std::vector<std::size_t> seen;
  (void)driver.train(
      [&](const rl::episode_stats& stats) { seen.push_back(stats.episode); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(trainer, evaluate_is_deterministic_and_learning_free) {
  harness h(1000);
  rl::trainer_config config;
  config.episodes = 1;
  config.rounds_per_episode = 10;
  const std::size_t steps_before = h.learner.steps();
  const auto eval1 =
      rl::evaluate_episode(h.env, h.policy, config.rounds_per_episode);
  const auto eval2 =
      rl::evaluate_episode(h.env, h.policy, config.rounds_per_episode);
  EXPECT_EQ(h.learner.steps(), steps_before);  // no updates during eval
  EXPECT_DOUBLE_EQ(eval1.final_action, eval2.final_action);
  EXPECT_DOUBLE_EQ(eval1.mean_utility, eval2.mean_utility);
}

TEST(trainer, same_seed_reproduces_training_run) {
  auto run = [](std::uint64_t seed) {
    harness h(1000);
    rl::trainer_config config;
    config.episodes = 3;
    config.rounds_per_episode = 10;
    config.seed = seed;
    rl::vector_trainer driver(h.envs, h.policy, h.learner, config);
    double sum = 0.0;
    for (const auto& e : driver.train()) sum += e.mean_action;
    return sum;
  };
  EXPECT_DOUBLE_EQ(run(5), run(5));
  // Different action-sampling seeds take different trajectories.
  EXPECT_NE(run(5), run(6));
}
