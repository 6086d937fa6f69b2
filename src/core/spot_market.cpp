#include "core/spot_market.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"
#include "util/trace.hpp"

namespace vtm::core {

spot_market::spot_market(spot_market_config config)
    : config_(std::move(config)) {
  VTM_EXPECTS(config_.unit_cost > 0.0);
  VTM_EXPECTS(config_.price_cap >= config_.unit_cost);
  VTM_EXPECTS(config_.min_clearable_mhz > util::megahertz{0.0});
  if (!config_.policy) config_.policy = std::make_shared<oracle_policy>();
}

void spot_market::submit(clearing_request request) {
  VTM_EXPECTS(request.profile.alpha > 0.0);
  VTM_EXPECTS(request.profile.data_mb > 0.0);
  pending_.push_back(std::move(request));
}

clearing_outcome spot_market::clear(double available_mhz) {
  VTM_EXPECTS(available_mhz >= 0.0);
  if (pending_.empty()) return {};
  util::trace_span span(config_.trace, "market.clear");
  span.arg("cohort", static_cast<double>(pending_.size()));
  span.arg("available_mhz", available_mhz);
  clearing_outcome outcome;
  if (available_mhz < config_.min_clearable_mhz.value()) {
    outcome.deferred = pending_.size();
    span.arg("deferred", static_cast<double>(outcome.deferred));
    return outcome;
  }

  market_params params;
  params.vmus.reserve(pending_.size());
  for (const auto& request : pending_) params.vmus.push_back(request.profile);
  params.link = config_.link;
  params.bandwidth_cap_mhz = util::megahertz{available_mhz};
  params.unit_cost = config_.unit_cost;
  params.price_cap = config_.price_cap;

  const migration_market market(std::move(params));
  const equilibrium eq = config_.policy->price_cohort(
      market, make_cohort_observation(market, available_mhz,
                                      config_.pool_capacity_mhz.value()));
  outcome.price = eq.price;
  outcome.markets_cleared = 1;

  // Proportional rationing guarantees Σ b*_n <= cap up to rounding; clamp the
  // running remainder so grants never oversubscribe the pool. A follower with
  // a positive equilibrium demand whose clamp lands at (effectively) zero is
  // NOT priced out — rounding ate its share — so it defers to the next
  // clearing instead of losing its migration.
  double remaining = available_mhz;
  const std::size_t cohort = pending_.size();
  std::vector<clearing_request> still_pending;
  for (std::size_t n = 0; n < cohort; ++n) {
    if (eq.demands[n] <= 0.0) {
      outcome.priced_out.push_back(pending_[n]);
      continue;
    }
    const double bandwidth = std::min(eq.demands[n], remaining);
    if (bandwidth <= 1e-9) {
      still_pending.push_back(pending_[n]);
      ++outcome.deferred;
      continue;
    }
    remaining -= bandwidth;
    clearing_grant grant;
    grant.request = pending_[n];
    grant.price = eq.price;
    grant.bandwidth_mhz = bandwidth;
    grant.vmu_utility = eq.vmu_utilities[n];
    grant.msp_utility = (eq.price - config_.unit_cost) * bandwidth;
    grant.cohort = cohort;
    grant.regime = eq.regime;
    outcome.grants.push_back(std::move(grant));
  }
  pending_ = std::move(still_pending);
  span.arg("granted", static_cast<double>(outcome.grants.size()));
  span.arg("deferred", static_cast<double>(outcome.deferred));
  span.arg("priced_out", static_cast<double>(outcome.priced_out.size()));
  return outcome;
}

std::vector<clearing_request> spot_market::abandon_pending() {
  std::vector<clearing_request> dropped = std::move(pending_);
  pending_.clear();
  return dropped;
}

}  // namespace vtm::core
