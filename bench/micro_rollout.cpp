// Micro-bench: rollout collection throughput of the batched engine.
//
// Measures env-steps/sec of pure rollout collection (policy sampling +
// environment stepping + buffer writes, no PPO updates) on the Fig. 2
// pricing POMDP:
//   * sequential    — the scalar per-step hot path the batched engine
//     replaced: one 1-row autograd forward (graph construction included)
//     and one env.step per transition, kept here as the baseline;
//   * batched exact — vector_env + act_batch with the graph-free inference
//     forward, bitwise-identical outputs to the sequential path;
//   * batched fast  — same engine with nn::math_mode::fast activations
//     (trainer_config::fast_rollout), serial env stepping;
//   * batched +T    — fast mode with a thread pool sharding env steps.
// The acceptance bar for the engine is >= 3x sequential throughput at B=16.
// Results land in CSV so future PRs can diff the perf baseline.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/env.hpp"
#include "nn/gaussian.hpp"
#include "rl/buffer.hpp"
#include "rl/policy.hpp"
#include "rl/vector_env.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

namespace core = vtm::core;
namespace rl = vtm::rl;
namespace nn = vtm::nn;

core::pricing_env_config env_config() {
  core::pricing_env_config config;
  config.rounds_per_episode = 100;
  config.seed = 17;
  return config;
}

rl::actor_critic make_policy(std::size_t obs_dim, vtm::util::rng& gen) {
  rl::actor_critic_config config;
  config.obs_dim = obs_dim;
  config.act_dim = 1;
  config.hidden = {64, 64};
  return rl::actor_critic(config, gen);
}

/// The seed's per-step scalar path: autograd forward per row (graph nodes
/// and all), replicated here as the frozen pre-refactor baseline.
rl::actor_critic::action_sample legacy_act(const rl::actor_critic& policy,
                                           const nn::tensor& observation,
                                           vtm::util::rng& gen) {
  const auto out = policy.forward(nn::variable::constant(observation));
  rl::actor_critic::action_sample sample;
  sample.action =
      nn::gaussian_sample(out.mean.value(), policy.log_std().value(), gen);
  sample.log_prob = nn::gaussian_log_prob_value(out.mean.value(),
                                                policy.log_std().value(),
                                                sample.action)
                        .item();
  sample.value = out.value.value().item();
  return sample;
}

double sequential_steps_per_sec(std::size_t batch, std::size_t steps_per_env) {
  const auto factory =
      core::make_pricing_env_factory(vtm::bench::two_vmu_market(5.0),
                                     env_config());
  std::vector<std::unique_ptr<rl::environment>> envs;
  std::vector<nn::tensor> observations;
  for (std::size_t i = 0; i < batch; ++i) {
    envs.push_back(factory(i));
    observations.push_back(envs.back()->reset());
  }
  vtm::util::rng net_gen(1);
  const rl::actor_critic policy = make_policy(envs[0]->observation_dim(),
                                              net_gen);
  vtm::util::rng act_gen(2);
  rl::rollout_buffer buffer(steps_per_env, envs[0]->observation_dim(), 1);

  const auto start = std::chrono::steady_clock::now();
  double sink = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    buffer.clear();
    for (std::size_t k = 0; k < steps_per_env; ++k) {
      const auto sample = legacy_act(policy, observations[i], act_gen);
      auto result = envs[i]->step(sample.action);
      buffer.add(observations[i], sample.action, result.reward, sample.value,
                 sample.log_prob, result.done);
      sink += result.reward;
      observations[i] =
          result.done ? envs[i]->reset() : std::move(result.observation);
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::printf("  [sink %.0f]", sink);
  return static_cast<double>(batch * steps_per_env) / elapsed.count();
}

/// Batched path: one B-row inference forward + vector_env step per round.
double batched_steps_per_sec(std::size_t batch, std::size_t steps_per_env,
                             nn::math_mode mode, std::size_t threads) {
  rl::vector_env envs(
      core::make_pricing_env_factory(vtm::bench::two_vmu_market(5.0),
                                     env_config()),
      batch, threads);
  vtm::util::rng net_gen(1);
  const rl::actor_critic policy = make_policy(envs.observation_dim(), net_gen);
  vtm::util::rng act_gen(2);
  rl::rollout_buffer buffer(steps_per_env, envs.observation_dim(), 1, batch);

  nn::tensor observations = envs.reset();
  const auto start = std::chrono::steady_clock::now();
  double sink = 0.0;
  for (std::size_t k = 0; k < steps_per_env; ++k) {
    const auto sample = policy.act_batch(observations, act_gen, mode);
    const auto result = envs.step(sample.actions);
    buffer.add_batch(observations, sample.actions, result.rewards,
                     sample.values, sample.log_probs, result.dones);
    for (double r : result.rewards) sink += r;
    observations = result.observations;
    if (buffer.full()) buffer.clear();
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::printf("  [sink %.0f]", sink);
  return static_cast<double>(batch * steps_per_env) / elapsed.count();
}

}  // namespace

int main() {
  vtm::bench::print_header(
      "Micro: rollout", "Batched rollout throughput (env-steps/sec)");

  constexpr std::size_t steps_per_env = 2000;
  constexpr std::size_t pool_threads = 3;
  const std::vector<std::size_t> batches{1, 4, 16};

  std::printf("\nwarm-up + measurement, %zu steps/env:\n", steps_per_env);

  struct row {
    std::size_t batch;
    double sequential = 0.0;
    double exact = 0.0;
    double fast = 0.0;
    double fast_threads = 0.0;
  };
  std::vector<row> rows;
  for (const std::size_t batch : batches) rows.push_back(row{batch});

  // Interleave repetitions (best of `reps`) so background-load drift on
  // shared CI hardware cannot bias one configuration against another.
  constexpr int reps = 3;
  const auto keep_best = [](double& slot, double measured) {
    if (measured > slot) slot = measured;
  };
  for (int rep = 0; rep < reps; ++rep) {
    std::printf("rep %d/%d:\n", rep + 1, reps);
    for (auto& r : rows) {
      std::printf("B=%-3zu sequential   ...", r.batch);
      keep_best(r.sequential, sequential_steps_per_sec(r.batch,
                                                       steps_per_env));
      std::printf("\n      batched exact...");
      keep_best(r.exact,
                batched_steps_per_sec(r.batch, steps_per_env,
                                      vtm::nn::math_mode::exact, 0));
      std::printf("\n      batched fast ...");
      keep_best(r.fast,
                batched_steps_per_sec(r.batch, steps_per_env,
                                      vtm::nn::math_mode::fast, 0));
      std::printf("\n      fast +%zuT    ...", pool_threads);
      keep_best(r.fast_threads,
                batched_steps_per_sec(r.batch, steps_per_env,
                                      vtm::nn::math_mode::fast,
                                      pool_threads));
      std::printf("\n");
    }
  }

  std::printf("\n--- CSV (micro_rollout.csv) ---\n");
  vtm::util::csv_writer csv(std::cout,
                            {"batch", "sequential_sps", "batched_exact_sps",
                             "batched_fast_sps", "batched_fast_threads_sps",
                             "speedup_fast_vs_sequential"});
  vtm::util::ascii_table table({"B", "sequential", "batched exact",
                                "batched fast", "fast +pool", "speedup"});
  for (const auto& r : rows) {
    const double speedup = r.fast / r.sequential;
    csv.row({static_cast<double>(r.batch), r.sequential, r.exact, r.fast,
             r.fast_threads, speedup});
    table.add_row({vtm::util::format_number(static_cast<double>(r.batch)),
                   vtm::util::format_number(r.sequential),
                   vtm::util::format_number(r.exact),
                   vtm::util::format_number(r.fast),
                   vtm::util::format_number(r.fast_threads),
                   vtm::util::format_number(speedup)});
  }
  std::printf("\n%s", table.render().c_str());

  const double bar = rows.back().fast / rows.back().sequential;
  std::printf("\nAcceptance: batched-fast B=16 vs the B=16 sequential "
              "baseline -> %.2fx (target >= 3x)\n",
              bar);
  return bar >= 3.0 ? 0 : 1;
}
