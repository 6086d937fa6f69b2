// The learned price source for the spot-market clearing engine.
//
// Every clearing of `core::spot_market` needs one number — the unit price
// posted to the cohort — and the rest of the outcome (rationed demands,
// utilities) follows from the followers' best responses through the market.
// By default the analytic Stackelberg oracle posts it, in place (bitwise
// `solve_equilibrium`). A `learned_pricer` attached as
// `spot_market_config::pricer` posts it instead: a trained
// `rl::actor_critic` pricing the cohort from a *partial-information*
// observation (cohort size, remaining pool MHz, α/κ summary statistics)
// without ever seeing individual profiles — the paper's learning-based
// mechanism running inside the fleet engine.
//
// The observation layout (`cohort_features`) and the price action map are
// shared between training (`core::train_fleet_pricer`) and deployment
// (`learned_pricer::price`), so a checkpoint trained on harvested cohort
// snapshots plugs straight into `fleet_config::pricer`. DESIGN.md §9.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/market.hpp"
#include "rl/policy.hpp"
#include "wireless/link.hpp"

namespace vtm::core {

/// What a learned pricer is allowed to see about one clearing cohort:
/// aggregate statistics only, never the individual (α_n, D_n) profiles.
/// κ_n = D_n / R is the per-VMU transfer time per unit bandwidth — the AoI
/// kernel of eq. 1 — so the κ summaries are the cohort's freshness pressure.
struct cohort_observation {
  std::size_t cohort = 0;       ///< N — requests priced as one market.
  double available_mhz = 0.0;   ///< Remaining pool capacity on offer.
  double capacity_mhz = 0.0;    ///< Nominal pool capacity (normalization).
  double sum_alpha = 0.0;       ///< Σ α_n over the cohort.
  double mean_alpha = 0.0;
  double max_alpha = 0.0;
  double sum_kappa = 0.0;       ///< Σ κ_n (aggregate AoI pressure).
  double mean_kappa = 0.0;
  double max_kappa = 0.0;
  double spectral_efficiency = 0.0;  ///< R of the pool's migration link.
  double unit_cost = 0.0;       ///< C — price box floor.
  double price_cap = 0.0;       ///< p_max — price box ceiling.
};

/// Width of the normalized feature vector fed to the learned pricer.
inline constexpr std::size_t cohort_feature_dim = 8;

/// Summarize a clearing cohort. `capacity_mhz` <= 0 falls back to
/// `available_mhz` as the normalization anchor.
[[nodiscard]] cohort_observation make_cohort_observation(
    const migration_market& market, double available_mhz,
    double capacity_mhz = 0.0);

/// Normalized O(1)-range features (layout documented in DESIGN.md §9).
[[nodiscard]] std::vector<double> cohort_features(
    const cohort_observation& obs);

/// The shared action→price map of the learned pricer and its training
/// environment: tanh-squash the raw action onto [C, C + 1.15·(p_max − C)],
/// then clamp to the cap. The squashing keeps a usable gradient everywhere
/// (a hard clamp plateaus the reward outside the box and strands the policy
/// mean at the cap), and the 15% headroom makes the cap itself reachable at
/// a finite action — saturating there is benign because in cap regimes the
/// cap *is* the optimum.
[[nodiscard]] double squashed_price(double raw_action, double unit_cost,
                                    double price_cap);

/// Architecture and price box of a learned pricer (must match training).
struct learned_pricer_config {
  std::vector<std::size_t> hidden{64, 64};  ///< Trunk sizes.
  double initial_log_std = -0.7;  ///< Only used to rebuild the net shape.
  double unit_cost = 5.0;         ///< C — floor of the price action map.
  double price_cap = 50.0;        ///< p_max — ceiling of the map.
};

/// Immutable trained pricing network: observation features in, price out.
/// Deterministic (mean action) and const, so one instance can be shared
/// across every pool of a fleet run and across sweep threads.
class learned_pricer {
 public:
  /// Wrap an already-trained policy network (train_fleet_pricer path).
  learned_pricer(learned_pricer_config config, rl::actor_critic policy);

  /// Rebuild the network from `config` and load a `nn::serialize` checkpoint
  /// (deployment path). Throws std::runtime_error on malformed input or an
  /// architecture mismatch.
  learned_pricer(learned_pricer_config config, const std::string& checkpoint);

  [[nodiscard]] const learned_pricer_config& config() const noexcept {
    return config_;
  }

  /// Deterministic price for one cohort, clamped to [unit_cost, price_cap].
  [[nodiscard]] double price(const cohort_observation& obs) const;

  /// The squashed_price map onto [unit_cost, price_cap] (tanh + headroom,
  /// not pricing_env's clamped affine map — see squashed_price).
  [[nodiscard]] double price_from_action(double raw_action) const;

  /// Serialize the wrapped network (nn::save_parameters text blob).
  [[nodiscard]] std::string checkpoint() const;

 private:
  learned_pricer_config config_;
  rl::actor_critic policy_;
};

/// One clearing cohort captured from a fleet run (training data for the
/// learned pricer): the full profiles — the oracle label needs them — plus
/// the pool state the observation summarizes.
struct cohort_snapshot {
  std::vector<vmu_profile> profiles;
  double available_mhz = 0.0;
  double capacity_mhz = 0.0;
  wireless::link_params link{};
  double unit_cost = 5.0;
  double price_cap = 50.0;

  /// Rebuild the cohort's market (for oracle labels and reward evaluation).
  [[nodiscard]] market_params to_market_params() const;
};

}  // namespace vtm::core
