#include "core/spot_market.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"
#include "util/trace.hpp"

namespace vtm::core {

spot_market::spot_market(spot_market_config config)
    : config_(std::move(config)), budget_(config_.link) {
  VTM_EXPECTS(config_.unit_cost > 0.0);
  VTM_EXPECTS(config_.price_cap >= config_.unit_cost);
  VTM_EXPECTS(config_.min_clearable_mhz > util::megahertz{0.0});
}

void spot_market::submit(clearing_request request) {
  VTM_EXPECTS(request.profile.alpha > 0.0);
  VTM_EXPECTS(request.profile.data_mb > 0.0);
  pending_.push_back(std::move(request));
}

const clearing_outcome& spot_market::clear(double available_mhz) {
  VTM_EXPECTS(available_mhz >= 0.0);
  outcome_.grants.clear();
  outcome_.priced_out.clear();
  outcome_.deferred = 0;
  outcome_.markets_cleared = 0;
  outcome_.price = 0.0;
  if (pending_.empty()) return outcome_;
  util::trace_span span(config_.trace, "market.clear");
  span.arg("cohort", static_cast<double>(pending_.size()));
  span.arg("available_mhz", available_mhz);
  if (available_mhz < config_.min_clearable_mhz.value()) {
    outcome_.deferred = pending_.size();
    span.arg("deferred", static_cast<double>(outcome_.deferred));
    return outcome_;
  }

  if (config_.pricer) {
    // The pricer posts the price from the cohort market's observation; the
    // followers best-respond at it, so only the price selection is learned.
    market_params params;
    params.vmus.reserve(pending_.size());
    for (const auto& request : pending_) params.vmus.push_back(request.profile);
    params.link = config_.link;
    params.bandwidth_cap_mhz = util::megahertz{available_mhz};
    params.unit_cost = config_.unit_cost;
    params.price_cap = config_.price_cap;
    const migration_market market(std::move(params));
    const double price = std::clamp(
        config_.pricer->price(make_cohort_observation(
            market, available_mhz, config_.pool_capacity_mhz.value())),
        config_.unit_cost, config_.price_cap);
    const equilibrium eq = evaluate_at_price(market, price);
    partition(eq.price, eq.regime, eq.demands, eq.vmu_utilities,
              available_mhz);
  } else {
    // The oracle prices the book in place: `solve_equilibrium`'s solve,
    // rationing and utilities over the pending profiles, without building
    // the market. Its preconditions (capacity and R positive) still hold.
    const double efficiency = budget_.spectral_efficiency();
    VTM_EXPECTS(available_mhz > 0.0);
    VTM_EXPECTS(efficiency > 0.0);
    const std::size_t cohort = pending_.size();
    followers_.clear();
    for (const auto& request : pending_)
      followers_.push_back(make_follower(request.profile, efficiency));
    const priced_regime solved = solve_price(
        followers_, available_mhz, config_.unit_cost, config_.price_cap);
    demands_.resize(cohort);
    ration_demands(followers_, solved.price, available_mhz, demands_);
    utilities_.resize(cohort);
    for (std::size_t n = 0; n < cohort; ++n)
      utilities_[n] = vmu_utility(pending_[n].profile, efficiency,
                                  demands_[n], solved.price);
    partition(solved.price, solved.regime, demands_, utilities_,
              available_mhz);
  }
  span.arg("granted", static_cast<double>(outcome_.grants.size()));
  span.arg("deferred", static_cast<double>(outcome_.deferred));
  span.arg("priced_out", static_cast<double>(outcome_.priced_out.size()));
  return outcome_;
}

void spot_market::partition(double price, equilibrium_regime regime,
                            std::span<const double> demands,
                            std::span<const double> utilities,
                            double available_mhz) {
  outcome_.price = price;
  outcome_.markets_cleared = 1;

  // Proportional rationing guarantees Σ b*_n <= cap up to rounding; clamp the
  // running remainder so grants never oversubscribe the pool. A follower with
  // a positive equilibrium demand whose clamp lands at (effectively) zero is
  // NOT priced out — rounding ate its share — so it defers to the next
  // clearing instead of losing its migration.
  double remaining = available_mhz;
  const std::size_t cohort = pending_.size();
  std::size_t keep = 0;  // FIFO-preserving compaction of deferred requests
  for (std::size_t n = 0; n < cohort; ++n) {
    if (demands[n] <= 0.0) {
      outcome_.priced_out.push_back(pending_[n]);
      continue;
    }
    const double bandwidth = std::min(demands[n], remaining);
    if (bandwidth <= 1e-9) {
      if (keep != n) pending_[keep] = pending_[n];
      ++keep;
      ++outcome_.deferred;
      continue;
    }
    remaining -= bandwidth;
    clearing_grant& grant = outcome_.grants.emplace_back();
    grant.request = pending_[n];
    grant.price = price;
    grant.bandwidth_mhz = bandwidth;
    grant.vmu_utility = utilities[n];
    grant.msp_utility = (price - config_.unit_cost) * bandwidth;
    grant.cohort = cohort;
    grant.regime = regime;
  }
  pending_.resize(keep);
}

std::vector<clearing_request> spot_market::abandon_pending() {
  std::vector<clearing_request> dropped = std::move(pending_);
  pending_.clear();
  return dropped;
}

}  // namespace vtm::core
