#include "core/pricing_policy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/tensor.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace vtm::core {

cohort_observation make_cohort_observation(const migration_market& market,
                                           double available_mhz,
                                           double capacity_mhz) {
  cohort_observation obs;
  obs.cohort = market.vmu_count();
  obs.available_mhz = available_mhz;
  obs.capacity_mhz = capacity_mhz > 0.0 ? capacity_mhz : available_mhz;
  obs.spectral_efficiency = market.spectral_efficiency();
  obs.unit_cost = market.params().unit_cost;
  obs.price_cap = market.params().price_cap;
  for (std::size_t n = 0; n < market.vmu_count(); ++n) {
    const double alpha = market.params().vmus[n].alpha;
    const double kappa = market.kappa(n);
    obs.sum_alpha += alpha;
    obs.max_alpha = std::max(obs.max_alpha, alpha);
    obs.sum_kappa += kappa;
    obs.max_kappa = std::max(obs.max_kappa, kappa);
  }
  if (obs.cohort > 0) {
    const auto n = static_cast<double>(obs.cohort);
    obs.mean_alpha = obs.sum_alpha / n;
    obs.mean_kappa = obs.sum_kappa / n;
  }
  return obs;
}

std::vector<double> cohort_features(const cohort_observation& obs) {
  // Two of the features are the closed form's own sufficient statistics at
  // the aggregate level: the interior price sqrt(C·Σα/Σκ) and the
  // cap-clearing price Σα/(B + Σκ), both normalized by p_max. They summarize
  // the cohort without revealing any individual profile; the network learns
  // the active-set / rationing correction between them.
  const double cap = std::max(obs.price_cap, 1e-9);
  const double interior =
      std::sqrt(obs.unit_cost * obs.sum_alpha / std::max(obs.sum_kappa, 1e-9));
  const double clearing =
      obs.sum_alpha / std::max(obs.available_mhz + obs.sum_kappa, 1e-9);
  std::vector<double> f{
      std::log1p(static_cast<double>(obs.cohort)) / std::log1p(128.0),
      obs.available_mhz / std::max(obs.capacity_mhz, 1e-9),
      obs.capacity_mhz / 100.0,
      obs.mean_alpha / 1000.0,
      obs.mean_kappa / 10.0,
      interior / cap,
      clearing / cap,
      obs.unit_cost / cap,
  };
  VTM_ASSERT(f.size() == cohort_feature_dim);
  for (double& x : f) x = std::clamp(x, 0.0, 8.0);
  return f;
}

double squashed_price(double raw_action, double unit_cost, double price_cap) {
  constexpr double headroom = 1.15;
  const double squashed = std::tanh(raw_action);
  const double price =
      unit_cost + 0.5 * (squashed + 1.0) * (price_cap - unit_cost) * headroom;
  return std::clamp(price, unit_cost, price_cap);
}

namespace {

/// Rebuild the fixed-architecture pricing network (weights are then either
/// trained in place or overwritten by a checkpoint load).
rl::actor_critic make_pricer_network(const learned_pricer_config& config) {
  rl::actor_critic_config net;
  net.obs_dim = cohort_feature_dim;
  net.act_dim = 1;
  net.hidden = config.hidden;
  net.initial_log_std = config.initial_log_std;
  util::rng gen(0);  // placeholder weights; the checkpoint overwrites them
  return rl::actor_critic(net, gen);
}

}  // namespace

learned_pricer::learned_pricer(learned_pricer_config config,
                               rl::actor_critic policy)
    : config_(std::move(config)), policy_(std::move(policy)) {
  VTM_EXPECTS(config_.unit_cost > 0.0);
  VTM_EXPECTS(config_.price_cap >= config_.unit_cost);
  VTM_EXPECTS(policy_.config().obs_dim == cohort_feature_dim);
  VTM_EXPECTS(policy_.config().act_dim == 1);
}

learned_pricer::learned_pricer(learned_pricer_config config,
                               const std::string& checkpoint)
    : learned_pricer(config, make_pricer_network(config)) {
  rl::load_checkpoint(policy_, checkpoint);
}

double learned_pricer::price_from_action(double raw_action) const {
  return squashed_price(raw_action, config_.unit_cost, config_.price_cap);
}

double learned_pricer::price(const cohort_observation& obs) const {
  const auto features = cohort_features(obs);
  const nn::tensor observation({1, features.size()}, features);
  const auto sample = policy_.act_deterministic(observation);
  return price_from_action(sample.action.item());
}

std::string learned_pricer::checkpoint() const {
  return rl::to_checkpoint(policy_);
}

market_params cohort_snapshot::to_market_params() const {
  market_params params;
  params.vmus = profiles;
  params.link = link;
  params.bandwidth_cap_mhz = util::megahertz{available_mhz};
  params.unit_cost = unit_cost;
  params.price_cap = price_cap;
  return params;
}

}  // namespace vtm::core
