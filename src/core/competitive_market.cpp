#include "core/competitive_market.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/contracts.hpp"
#include "util/trace.hpp"

namespace vtm::core {

competitive_market::competitive_market(competitive_market_config config)
    : config_(std::move(config)) {
  // One seller is the monopoly, which `spot_market` clears.
  VTM_EXPECTS(config_.msps.size() >= 2);
  VTM_EXPECTS(config_.share_sharpness > 0.0);
  VTM_EXPECTS(config_.min_clearable_mhz > util::megahertz{0.0});
  for (const auto& msp : config_.msps) {
    VTM_EXPECTS(std::isfinite(msp.chain_offset_m.value()));
    VTM_EXPECTS(msp.unit_cost > 0.0);
    VTM_EXPECTS(msp.price_cap >= msp.unit_cost);
    VTM_EXPECTS(msp.bandwidth_per_pool_mhz > util::megahertz{0.0});
  }
  if (config_.learned_msp != no_learned_msp) {
    VTM_EXPECTS(config_.learned_msp < config_.msps.size());
    VTM_EXPECTS(config_.pricer != nullptr);
    VTM_EXPECTS(config_.pricer->config().competitor_aware);
  } else {
    VTM_EXPECTS(config_.pricer == nullptr);
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

competitive_outcome competitive_market::clear(
    std::span<const double> available_mhz) {
  VTM_EXPECTS(available_mhz.size() == config_.msps.size());
  for (const double mhz : available_mhz) VTM_EXPECTS(mhz >= 0.0);

  competitive_outcome outcome;
  if (pending_.empty()) return outcome;
  util::trace_span span(config_.trace, "comarket.clear");
  span.arg("cohort", static_cast<double>(pending_.size()));

  // Sellers with less than the clearable minimum left sit this clearing out
  // (the monopoly engine's defer-below-minimum rule, applied per MSP).
  std::vector<std::size_t> active;  // participating -> roster index
  for (std::size_t m = 0; m < config_.msps.size(); ++m)
    if (available_mhz[m] >= config_.min_clearable_mhz.value())
      active.push_back(m);
  if (active.empty()) {
    outcome.deferred = pending_.size();
    return outcome;
  }

  // The cohort as one oligopoly market over each seller's remainder.
  multi_msp_params params;
  params.msps.reserve(active.size());
  for (const std::size_t m : active)
    params.msps.push_back({config_.msps[m].unit_cost, available_mhz[m],
                           config_.msps[m].price_cap});
  params.vmus.reserve(pending_.size());
  for (const auto& request : pending_) params.vmus.push_back(request.profile);
  params.link = config_.link;
  params.share_sharpness = config_.share_sharpness;
  const multi_msp_market market(std::move(params));

  // Warm start: seed the solve from the prices this book's sellers posted
  // in their most recent clearing; the solver's Newton stage converges from
  // there in a few iterations (DESIGN.md §12). Sellers
  // with no memory yet get their cap midpoint; when *no* active seller has
  // memory — the first clearing of a run — the solve cold-starts and is
  // bitwise-identical to the memoryless solver.
  std::vector<double> warm(active.size(), 0.0);
  bool any_warm = false;
  for (std::size_t i = 0; i < active.size(); ++i) {
    const std::size_t m = active[i];
    if (warm_valid_[m]) {
      warm[i] = warm_prices_[m];
      any_warm = true;
    } else {
      warm[i] = 0.5 * (config_.msps[m].unit_cost + config_.msps[m].price_cap);
    }
  }
  price_competition_options solve_options;
  if (any_warm) solve_options.warm_start = warm;
  outcome.warm_started = any_warm;

  // Price vector: all-scripted best-response fixed point, or the learned
  // seat's posted price with the scripted rivals best-responding to it. The
  // scripted equilibrium doubles as the rival-price summary the learned
  // observation reads — the seat sees where competition *would* settle.
  std::vector<double> prices;
  std::size_t newton_iterations = 0;  // 0 when the dampened loop answered
  const auto learned_it = config_.learned_msp == no_learned_msp
                              ? active.end()
                              : std::find(active.begin(), active.end(),
                                          config_.learned_msp);
  if (learned_it != active.end()) {
    const std::size_t seat = static_cast<std::size_t>(
        learned_it - active.begin());
    const auto scripted = solve_price_competition(market, solve_options);
    outcome.converged = scripted.converged;
    outcome.certified = scripted.certified;
    outcome.solver_sweeps += scripted.iterations;
    outcome.objective_evals += scripted.objective_evals;
    outcome.residual = scripted.residual;
    newton_iterations += scripted.newton_iterations;

    const auto& own = config_.msps[config_.learned_msp];
    market_params own_view;
    own_view.vmus = market.params().vmus;
    own_view.link = config_.link;
    own_view.bandwidth_cap_mhz =
        util::megahertz{available_mhz[config_.learned_msp]};
    own_view.unit_cost = own.unit_cost;
    own_view.price_cap = own.price_cap;
    const migration_market own_market(std::move(own_view));
    cohort_observation obs = make_cohort_observation(
        own_market, available_mhz[config_.learned_msp],
        own.bandwidth_per_pool_mhz.value());
    obs.competitors = active.size() - 1;
    if (obs.competitors > 0) {
      double min_price = std::numeric_limits<double>::infinity();
      double sum_price = 0.0;
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (i == seat) continue;
        min_price = std::min(min_price, scripted.prices[i]);
        sum_price += scripted.prices[i];
      }
      obs.competitor_min_price = min_price;
      obs.competitor_mean_price =
          sum_price / static_cast<double>(obs.competitors);
    }

    prices = scripted.prices;
    prices[seat] = std::clamp(config_.pricer->price(obs), own.unit_cost,
                              own.price_cap);
    if (active.size() > 1) {
      // Rivals best-respond to the posted price: the same solver with the
      // learned coordinate pinned, warm-started from the scripted
      // equilibrium.
      price_competition_options rival_options = solve_options;
      rival_options.warm_start = prices;
      rival_options.pinned = seat;
      const auto rivals = solve_price_competition(market, rival_options);
      prices = rivals.prices;
      outcome.converged = outcome.converged && rivals.converged;
      outcome.certified = outcome.certified && rivals.certified;
      outcome.solver_sweeps += rivals.iterations;
      outcome.objective_evals += rivals.objective_evals;
      outcome.residual = rivals.residual;
      newton_iterations += rivals.newton_iterations;
    }
  } else {
    const auto equilibrium = solve_price_competition(market, solve_options);
    prices = equilibrium.prices;
    outcome.converged = equilibrium.converged;
    outcome.certified = equilibrium.certified;
    outcome.solver_sweeps += equilibrium.iterations;
    outcome.objective_evals += equilibrium.objective_evals;
    outcome.residual = equilibrium.residual;
    newton_iterations += equilibrium.newton_iterations;
  }
  outcome.markets_cleared = 1;
  outcome.prices.assign(config_.msps.size(), 0.0);
  for (std::size_t i = 0; i < active.size(); ++i) {
    outcome.prices[active[i]] = prices[i];
    warm_prices_[active[i]] = prices[i];
    warm_valid_[active[i]] = true;
  }

  // Seller split at the posted prices: softmin shares set each VMU's split,
  // and each seller's sales are rationed *proportionally* to its own
  // remainder (every buyer keeps the same fraction of its slice — the
  // monopoly market's rationing rule, per seller). The effective price is
  // computed once; `vmu_demand_at` is bitwise the per-VMU `vmu_demand`.
  const auto shares = market.shares(prices);
  const double p_eff = market.effective_price(prices);
  std::vector<double> demand(active.size(), 0.0);
  std::vector<double> interior(pending_.size(), 0.0);
  for (std::size_t n = 0; n < pending_.size(); ++n) {
    interior[n] = market.vmu_demand_at(n, p_eff);
    for (std::size_t m = 0; m < active.size(); ++m)
      demand[m] += interior[n] * shares[m];
  }
  std::vector<double> scale(active.size(), 1.0);
  std::vector<double> remaining(active.size(), 0.0);
  for (std::size_t m = 0; m < active.size(); ++m) {
    if (demand[m] > available_mhz[active[m]])
      scale[m] = available_mhz[active[m]] / demand[m];
    remaining[m] = available_mhz[active[m]];
  }

  const double rate = market.spectral_efficiency();
  const std::size_t cohort = pending_.size();
  std::vector<clearing_request> still_pending;
  for (std::size_t n = 0; n < cohort; ++n) {
    if (interior[n] <= 0.0) {
      outcome.priced_out.push_back(pending_[n]);
      continue;
    }
    // FIFO clamp against each seller's running remainder keeps the slice
    // sums <= availability exactly, whatever rounding the proportional
    // scale leaves behind. Remainders are debited only once the grant is
    // known to survive, so a fully-rationed request defers without eating
    // capacity.
    competitive_grant grant;
    grant.slices.reserve(active.size());
    std::vector<std::size_t> slice_seats;  // participating index per slice
    double payment = 0.0;
    for (std::size_t m = 0; m < active.size(); ++m) {
      const double slice =
          std::min(interior[n] * shares[m] * scale[m], remaining[m]);
      if (slice <= 0.0) continue;
      grant.bandwidth_mhz += slice;
      payment += prices[m] * slice;
      // Round the per-seller profit exactly once and accumulate the rounded
      // value: the completion-time per-MSP accounting replays these terms,
      // so the decomposition Σ slice.utility == msp_utility holds bitwise.
      const double utility =
          (prices[m] - config_.msps[active[m]].unit_cost) * slice;
      grant.msp_utility += utility;
      grant.slices.push_back({active[m], slice, prices[m], utility});
      slice_seats.push_back(m);
    }
    if (grant.bandwidth_mhz <= 1e-9) {
      // Rationing ate the whole purchase: defer, don't price out — capacity
      // in flight will re-clear this request.
      still_pending.push_back(pending_[n]);
      ++outcome.deferred;
      continue;
    }
    for (std::size_t s = 0; s < grant.slices.size(); ++s)
      remaining[slice_seats[s]] -= grant.slices[s].bandwidth_mhz;
    grant.request = pending_[n];
    grant.price = payment / grant.bandwidth_mhz;
    const auto& profile = pending_[n].profile;
    grant.vmu_utility =
        profile.alpha *
            std::log(1.0 + grant.bandwidth_mhz * rate / profile.data_mb) -
        payment;
    grant.cohort = cohort;
    outcome.grants.push_back(std::move(grant));
  }
  pending_ = std::move(still_pending);
  span.arg("sweeps", static_cast<double>(outcome.solver_sweeps));
  span.arg("objective_evals", static_cast<double>(outcome.objective_evals));
  span.arg("newton_iterations", static_cast<double>(newton_iterations));
  span.arg("residual", outcome.residual);
  span.arg("warm_started", outcome.warm_started ? 1.0 : 0.0);
  span.arg("converged", outcome.converged ? 1.0 : 0.0);
  span.arg("granted", static_cast<double>(outcome.grants.size()));
  span.arg("deferred", static_cast<double>(outcome.deferred));
  return outcome;
}

}  // namespace vtm::core
