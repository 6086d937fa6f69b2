#include "core/competitive_market.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contracts.hpp"
#include "util/trace.hpp"

namespace vtm::core {

competitive_market::competitive_market(competitive_market_config config)
    : config_(std::move(config)) {
  // One seller is the monopoly, which `spot_market` clears.
  VTM_EXPECTS(config_.msps.size() >= 2);
  VTM_EXPECTS(std::isfinite(config_.share_sharpness) &&
              config_.share_sharpness > 0.0);
  VTM_EXPECTS(config_.min_clearable_mhz > util::megahertz{0.0});
  for (const auto& msp : config_.msps) {
    VTM_EXPECTS(std::isfinite(msp.chain_offset_m.value()));
    VTM_EXPECTS(msp.unit_cost > 0.0);
    VTM_EXPECTS(msp.price_cap >= msp.unit_cost);
    VTM_EXPECTS(msp.bandwidth_per_pool_mhz > util::megahertz{0.0});
  }
  warm_prices_.assign(config_.msps.size(), 0.0);
  warm_valid_.assign(config_.msps.size(), false);
}

void competitive_market::submit(clearing_request request) {
  VTM_EXPECTS(request.profile.alpha > 0.0);
  VTM_EXPECTS(request.profile.data_mb > 0.0);
  pending_.push_back(std::move(request));
}

std::vector<clearing_request> competitive_market::abandon_pending() {
  std::vector<clearing_request> dropped = std::move(pending_);
  pending_.clear();
  return dropped;
}

const competitive_outcome& competitive_market::clear(
    std::span<const double> available_mhz) {
  VTM_EXPECTS(available_mhz.size() == config_.msps.size());
  for (const double mhz : available_mhz) VTM_EXPECTS(mhz >= 0.0);

  // Reset the reused outcome. Each grant's slice vector goes to the spares,
  // so this clearing's grants reuse its capacity.
  for (auto& grant : outcome_.grants)
    spare_slices_.push_back(std::move(grant.slices));
  outcome_.grants.clear();
  outcome_.priced_out.clear();
  outcome_.deferred = 0;
  outcome_.markets_cleared = 0;
  outcome_.prices.clear();
  outcome_.converged = true;
  outcome_.certified = true;
  outcome_.warm_started = false;
  outcome_.solver_sweeps = 0;
  outcome_.objective_evals = 0;
  outcome_.residual = 0.0;
  if (pending_.empty()) return outcome_;
  util::trace_span span(config_.trace, "comarket.clear");
  span.arg("cohort", static_cast<double>(pending_.size()));

  // Sellers with less than the clearable minimum left sit this clearing out
  // (the monopoly engine's defer-below-minimum rule, applied per MSP).
  active_.clear();
  for (std::size_t m = 0; m < config_.msps.size(); ++m)
    if (available_mhz[m] >= config_.min_clearable_mhz.value())
      active_.push_back(m);
  if (active_.empty()) {
    outcome_.deferred = pending_.size();
    return outcome_;
  }

  // The cohort as one oligopoly market over each seller's remainder,
  // rebuilt in place after the first clearing.
  roster_.clear();
  for (const std::size_t m : active_)
    roster_.push_back({config_.msps[m].unit_cost, available_mhz[m],
                       config_.msps[m].price_cap});
  cohort_.clear();
  for (const auto& request : pending_) cohort_.push_back(request.profile);
  if (market_)
    market_->assign(roster_, cohort_);
  else
    market_.emplace(multi_msp_params{roster_, cohort_, config_.link,
                                     config_.share_sharpness});
  const multi_msp_market& market = *market_;

  // Warm start: seed the solve from the prices this book's sellers posted
  // in their most recent clearing; the solver's Newton stage converges from
  // there in a few iterations (DESIGN.md §12). Sellers
  // with no memory yet get their cap midpoint; when *no* active seller has
  // memory — the first clearing of a run — the solve cold-starts and is
  // bitwise-identical to the memoryless solver.
  warm_.resize(active_.size());
  bool any_warm = false;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::size_t m = active_[i];
    if (warm_valid_[m]) {
      warm_[i] = warm_prices_[m];
      any_warm = true;
    } else {
      warm_[i] = 0.5 * (config_.msps[m].unit_cost + config_.msps[m].price_cap);
    }
  }
  price_competition_options solve_options;
  if (any_warm) solve_options.warm_start = warm_;
  outcome_.warm_started = any_warm;

  // The best-response solve runs on this book's scratch into `solved_`,
  // whose prices are the posted ones.
  solve_price_competition(market, solve_options, solved_, scratch_);
  const std::vector<double>& prices = solved_.prices;
  outcome_.converged = solved_.converged;
  outcome_.certified = solved_.certified;
  outcome_.solver_sweeps = solved_.iterations;
  outcome_.objective_evals = solved_.objective_evals;
  outcome_.residual = solved_.residual;
  outcome_.markets_cleared = 1;
  outcome_.prices.assign(config_.msps.size(), 0.0);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    outcome_.prices[active_[i]] = prices[i];
    warm_prices_[active_[i]] = prices[i];
    warm_valid_[active_[i]] = true;
  }

  // Seller split at the posted prices: softmin shares set each VMU's split,
  // and each seller's sales are rationed *proportionally* to its own
  // remainder (every buyer keeps the same fraction of its slice — the
  // monopoly market's rationing rule, per seller). The softmin runs once:
  // the effective price is `effective_price`'s sum over these shares, and
  // `vmu_demand_at` is bitwise the per-VMU `vmu_demand`.
  market.shares_into(prices, shares_);
  double p_eff = 0.0;
  for (std::size_t m = 0; m < active_.size(); ++m)
    p_eff += shares_[m] * prices[m];
  const std::size_t cohort = pending_.size();
  demand_.assign(active_.size(), 0.0);
  interior_.resize(cohort);
  for (std::size_t n = 0; n < cohort; ++n) {
    interior_[n] = market.vmu_demand_at(n, p_eff);
    for (std::size_t m = 0; m < active_.size(); ++m)
      demand_[m] += interior_[n] * shares_[m];
  }
  scale_.assign(active_.size(), 1.0);
  remaining_.resize(active_.size());
  for (std::size_t m = 0; m < active_.size(); ++m) {
    if (demand_[m] > available_mhz[active_[m]])
      scale_[m] = available_mhz[active_[m]] / demand_[m];
    remaining_[m] = available_mhz[active_[m]];
  }

  const double rate = market.spectral_efficiency();
  std::size_t keep = 0;  // FIFO-preserving compaction of deferred requests
  for (std::size_t n = 0; n < cohort; ++n) {
    if (interior_[n] <= 0.0) {
      outcome_.priced_out.push_back(pending_[n]);
      continue;
    }
    // FIFO clamp against each seller's running remainder keeps the slice
    // sums <= availability exactly, whatever rounding the proportional
    // scale leaves behind. Remainders are debited only once the grant is
    // known to survive, so a fully-rationed request defers without eating
    // capacity.
    competitive_grant& grant = outcome_.grants.emplace_back();
    if (spare_slices_.empty()) {
      grant.slices.reserve(config_.msps.size());
    } else {
      grant.slices = std::move(spare_slices_.back());
      spare_slices_.pop_back();
      grant.slices.clear();
    }
    slice_seats_.clear();
    double payment = 0.0;
    for (std::size_t m = 0; m < active_.size(); ++m) {
      const double slice =
          std::min(interior_[n] * shares_[m] * scale_[m], remaining_[m]);
      if (slice <= 0.0) continue;
      grant.bandwidth_mhz += slice;
      payment += prices[m] * slice;
      // Round the per-seller profit exactly once and accumulate the rounded
      // value: the completion-time per-MSP accounting replays these terms,
      // so the decomposition Σ slice.utility == msp_utility holds bitwise.
      const double utility =
          (prices[m] - config_.msps[active_[m]].unit_cost) * slice;
      grant.msp_utility += utility;
      grant.slices.push_back({active_[m], slice, prices[m], utility});
      slice_seats_.push_back(m);
    }
    if (grant.bandwidth_mhz <= 1e-9) {
      // Rationing ate the whole purchase: defer, don't price out — capacity
      // in flight will re-clear this request.
      spare_slices_.push_back(std::move(grant.slices));
      outcome_.grants.pop_back();
      if (keep != n) pending_[keep] = pending_[n];
      ++keep;
      ++outcome_.deferred;
      continue;
    }
    for (std::size_t s = 0; s < grant.slices.size(); ++s)
      remaining_[slice_seats_[s]] -= grant.slices[s].bandwidth_mhz;
    grant.request = pending_[n];
    grant.price = payment / grant.bandwidth_mhz;
    const auto& profile = pending_[n].profile;
    grant.vmu_utility =
        profile.alpha *
            std::log(1.0 + grant.bandwidth_mhz * rate / profile.data_mb) -
        payment;
    grant.cohort = cohort;
  }
  pending_.resize(keep);
  span.arg("sweeps", static_cast<double>(outcome_.solver_sweeps));
  span.arg("objective_evals", static_cast<double>(outcome_.objective_evals));
  span.arg("newton_iterations",
           static_cast<double>(solved_.newton_iterations));
  span.arg("residual", outcome_.residual);
  span.arg("warm_started", outcome_.warm_started ? 1.0 : 0.0);
  span.arg("converged", outcome_.converged ? 1.0 : 0.0);
  span.arg("granted", static_cast<double>(outcome_.grants.size()));
  span.arg("deferred", static_cast<double>(outcome_.deferred));
  return outcome_;
}

}  // namespace vtm::core
