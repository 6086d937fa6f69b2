// POMDP formulation of the Stackelberg game (§IV-A).
//
// The MSP is the learning agent. At round k it observes the last L rounds of
// posted prices and VMU bandwidth demands (eq. 11), posts a price p_k, the
// VMUs best-respond through the market (Algorithm 1 line 7), and the MSP
// receives the binary reward of eq. 12: 1 when its utility matches-or-beats
// the best utility seen so far, else 0.
//
// Implementation notes (documented substitutions, DESIGN.md §5):
//  * Actions arrive in the normalized box [-1, 1] and map affinely onto
//    [C, p_max]; observations are normalized (price / p_max, demand / B_max)
//    so the network sees O(1) inputs.
//  * "Matches" uses a relative tolerance η, since a continuous stochastic
//    policy almost never reproduces U_best exactly.
//  * Before round L the history is filled with random rounds (the paper:
//    "generated randomly during the initial stage").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/market.hpp"
#include "core/pricing_policy.hpp"
#include "rl/env.hpp"
#include "rl/vector_env.hpp"
#include "util/rng.hpp"

namespace vtm::core {

/// Reward definitions selectable for the ablation study.
enum class reward_mode {
  paper_binary,       ///< Eq. 12 with per-episode U_best (reset each episode).
  persistent_binary,  ///< Eq. 12 with U_best persisting across episodes.
  shaped,             ///< Normalized utility U_s / U_oracle (dense signal).
};

/// Name of a reward mode ("paper-binary", ...).
[[nodiscard]] const char* to_string(reward_mode mode) noexcept;

/// Environment knobs (paper defaults).
struct pricing_env_config {
  std::size_t history_length = 4;        ///< L — observed past rounds.
  std::size_t rounds_per_episode = 100;  ///< K — episode length.
  reward_mode mode = reward_mode::paper_binary;
  double reward_tolerance = 0.01;        ///< η — "matched best" tolerance.
  std::uint64_t seed = 7;                ///< Initial-history randomization.
};

/// The bandwidth-pricing POMDP over a migration market.
class pricing_env final : public rl::environment {
 public:
  /// Validates the configuration (L >= 1, K >= 1, η in [0, 1)).
  pricing_env(migration_market market, const pricing_env_config& config);

  /// Observation width: L · (1 + N).
  [[nodiscard]] std::size_t observation_dim() const override;
  /// One scalar action (the price).
  [[nodiscard]] std::size_t action_dim() const override { return 1; }
  /// Normalized action box.
  [[nodiscard]] double action_low() const override { return -1.0; }
  [[nodiscard]] double action_high() const override { return 1.0; }

  nn::tensor reset() override;
  rl::step_result step(const nn::tensor& action) override;

  /// Affine map from a raw action in [-1, 1] to a price in [C, p_max]
  /// (out-of-box actions are clamped first).
  [[nodiscard]] double price_from_action(double raw_action) const;

  /// Inverse of price_from_action (for tests and diagnostics).
  [[nodiscard]] double action_from_price(double price) const;

  /// The underlying market.
  [[nodiscard]] const migration_market& market() const noexcept {
    return market_;
  }

  /// U_best tracked by the binary reward (−inf before the first step).
  [[nodiscard]] double best_utility() const noexcept { return best_utility_; }

  /// Rounds taken in the current episode.
  [[nodiscard]] std::size_t round() const noexcept { return round_; }

  [[nodiscard]] const pricing_env_config& config() const noexcept {
    return config_;
  }

 private:
  void push_history(double price, const std::vector<double>& demands);
  [[nodiscard]] nn::tensor observation_tensor() const;
  [[nodiscard]] double reward_for(double utility);

  migration_market market_;
  pricing_env_config config_;
  util::rng gen_;
  std::vector<double> history_;  ///< L·(1+N) ring, flattened oldest-first.
  double best_utility_;
  double shaped_scale_ = 1.0;
  std::size_t round_ = 0;
};

/// Factory building pricing_env replicas over the same market for
/// rl::vector_env. Replica 0 keeps `config.seed` exactly — so a B=1
/// vector_env reproduces the plain single environment bitwise — and replica
/// i > 0 derives an independent stream via splitmix64(seed, i) so parallel
/// rollouts decorrelate their warm-up histories.
[[nodiscard]] rl::env_factory make_pricing_env_factory(
    const market_params& params, const pricing_env_config& config);

/// The seed replica i receives from make_pricing_env_factory (for tests).
[[nodiscard]] std::uint64_t pricing_env_replica_seed(std::uint64_t seed,
                                                     std::size_t index);

// --- cohort-conditioned pricing environment (fleet pricer training) --------

/// One harvested clearing cohort prepared for training: its market
/// evaluator, the partial-information feature row the policy sees, and the
/// oracle label normalizing the reward.
struct prepared_cohort {
  migration_market market;        ///< Cohort market over the pool remainder.
  std::vector<double> features;   ///< cohort_features of the observation.
  double oracle_price = 0.0;      ///< solve_equilibrium price (label).
  double oracle_utility = 0.0;    ///< Oracle U_s (reward scale).
};

/// Prepare harvested snapshots for training. Degenerate cohorts whose oracle
/// utility is ~0 (nothing to sell or nobody buys) are dropped — a ratio
/// reward against them is undefined.
[[nodiscard]] std::vector<prepared_cohort> prepare_cohorts(
    std::span<const cohort_snapshot> snapshots);

/// Knobs of the cohort-conditioned environment.
struct fleet_pricing_env_config {
  std::size_t rounds_per_episode = 64;  ///< Cohorts priced per episode.
  std::uint64_t seed = 7;               ///< Cohort-draw randomization.
};

/// Contextual pricing environment over a bank of harvested cohorts: each
/// round shows the partial-information features of one cohort, the action
/// posts a price, and the reward is the MSP utility ratio U_s(p)/U_s(oracle)
/// on that cohort. Rounds are independent draws (the fleet's clearing
/// sequence is not replayed), which matches the per-clearing decision the
/// deployed `learned_pricer` faces.
class fleet_pricing_env final : public rl::environment {
 public:
  /// The bank must be non-null and non-empty; shared (const) across replicas.
  fleet_pricing_env(
      std::shared_ptr<const std::vector<prepared_cohort>> cohorts,
      const fleet_pricing_env_config& config);

  [[nodiscard]] std::size_t observation_dim() const override {
    return cohort_feature_dim;
  }
  [[nodiscard]] std::size_t action_dim() const override { return 1; }
  [[nodiscard]] double action_low() const override { return -1.0; }
  [[nodiscard]] double action_high() const override { return 1.0; }

  nn::tensor reset() override;
  rl::step_result step(const nn::tensor& action) override;

  /// The squashed_price map (tanh + headroom) onto the current cohort's
  /// price box [C, p_max] — identical to learned_pricer::price_from_action,
  /// so training and deployment see the same action→price map.
  [[nodiscard]] double price_from_action(double raw_action) const;

  /// The cohort the next step() will price.
  [[nodiscard]] const prepared_cohort& current() const;

  [[nodiscard]] const fleet_pricing_env_config& config() const noexcept {
    return config_;
  }

 private:
  [[nodiscard]] nn::tensor observation_tensor() const;
  void draw_cohort();

  std::shared_ptr<const std::vector<prepared_cohort>> cohorts_;
  fleet_pricing_env_config config_;
  util::rng gen_;
  std::size_t current_ = 0;
  std::size_t round_ = 0;
};

/// Factory building fleet_pricing_env replicas over one shared cohort bank
/// for rl::vector_env. Replica 0 keeps `config.seed` exactly; replica i > 0
/// derives an independent stream via pricing_env_replica_seed.
[[nodiscard]] rl::env_factory make_fleet_pricing_env_factory(
    std::shared_ptr<const std::vector<prepared_cohort>> cohorts,
    const fleet_pricing_env_config& config);

}  // namespace vtm::core
