#include "core/equilibrium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "game/maximize.hpp"
#include "util/contracts.hpp"

namespace vtm::core {

const char* to_string(equilibrium_regime regime) noexcept {
  switch (regime) {
    case equilibrium_regime::interior:
      return "interior";
    case equilibrium_regime::capacity_bound:
      return "capacity-bound";
    case equilibrium_regime::price_capped:
      return "price-capped";
    case equilibrium_regime::cost_floor:
      return "cost-floor";
  }
  return "?";
}

namespace {

equilibrium finalize(const migration_market& market, double price,
                     equilibrium_regime regime) {
  equilibrium eq;
  eq.price = price;
  eq.regime = regime;
  eq.demands = market.demands(price);
  for (double b : eq.demands) eq.total_demand += b;
  eq.leader_utility = market.leader_utility(price, eq.demands);
  eq.vmu_utilities.reserve(market.vmu_count());
  eq.aotm.reserve(market.vmu_count());
  for (std::size_t n = 0; n < market.vmu_count(); ++n) {
    eq.vmu_utilities.push_back(
        market.vmu_utility(n, eq.demands[n], price));
    eq.total_vmu_utility += eq.vmu_utilities.back();
    eq.aotm.push_back(eq.demands[n] > 0.0
                          ? market.aotm(n, eq.demands[n])
                          : std::numeric_limits<double>::infinity());
  }
  return eq;
}

}  // namespace

equilibrium evaluate_at_price(const migration_market& market, double price) {
  const auto& p = market.params();
  VTM_EXPECTS(price >= p.unit_cost && price <= p.price_cap);

  double unconstrained = 0.0;
  for (double b : market.unconstrained_demands(price)) unconstrained += b;

  equilibrium_regime regime = equilibrium_regime::interior;
  if (unconstrained > p.bandwidth_cap_mhz.value() * (1.0 + 1e-12))
    regime = equilibrium_regime::capacity_bound;
  else if (price >= p.price_cap * (1.0 - 1e-12))
    regime = equilibrium_regime::price_capped;
  else if (price <= p.unit_cost * (1.0 + 1e-12))
    regime = equilibrium_regime::cost_floor;
  return finalize(market, price, regime);
}

priced_regime solve_price(std::span<const follower_terms> followers,
                          double cap_mhz, double unit_cost,
                          double price_cap) {
  double price = unit_cost;
  equilibrium_regime regime = equilibrium_regime::cost_floor;

  // Active-set fixed point: at most one VMU drops per iteration. The active
  // set is everyone on the first pass, then the followers buying at the
  // previous candidate price — re-derived from it, so nothing is stored.
  bool first = true;
  double previous = 0.0;
  const auto active = [&](const follower_terms& follower) {
    return first || best_response(follower, previous) > 0.0;
  };
  for (std::size_t iter = 0; iter <= followers.size() + 1; ++iter) {
    double sum_alpha = 0.0;
    double sum_kappa = 0.0;
    std::size_t active_count = 0;
    for (const auto& follower : followers) {
      if (!active(follower)) continue;
      sum_alpha += follower.alpha;
      sum_kappa += follower.kappa;
      ++active_count;
    }
    if (active_count == 0) {
      price = unit_cost;
      regime = equilibrium_regime::cost_floor;
      break;
    }

    // Interior FOC root: p* = sqrt(C · Σα / Σκ)  (Theorem 2).
    price = std::sqrt(unit_cost * sum_alpha / sum_kappa);
    regime = equilibrium_regime::interior;
    VTM_ASSERT(price > 0.0);

    // Capacity: if aggregate demand exceeds B_max, lift the price to the
    // market-clearing level Σ_{active}(α/p − κ) = B_max.
    double total = 0.0;
    for (const auto& follower : followers)
      total += best_response(follower, price);
    if (total > cap_mhz + 1e-12) {
      price = sum_alpha / (cap_mhz + sum_kappa);
      regime = equilibrium_regime::capacity_bound;
    }

    // Price box.
    if (price > price_cap) {
      price = price_cap;
      regime = equilibrium_regime::price_capped;
    } else if (price < unit_cost) {
      price = unit_cost;
      regime = equilibrium_regime::cost_floor;
    }
    VTM_ASSERT(price > 0.0);

    // Recompute the active set at the candidate price.
    bool changed = false;
    for (const auto& follower : followers) {
      if ((best_response(follower, price) > 0.0) != active(follower)) {
        changed = true;
        break;
      }
    }
    if (!changed) break;
    first = false;
    previous = price;
  }
  return {price, regime};
}

equilibrium solve_equilibrium(const migration_market& market) {
  const auto& p = market.params();
  const priced_regime solved =
      solve_price(market.followers(), p.bandwidth_cap_mhz.value(),
                  p.unit_cost, p.price_cap);
  return finalize(market, solved.price, solved.regime);
}

equilibrium solve_equilibrium_numeric(const migration_market& market,
                                      std::size_t grid_points) {
  VTM_EXPECTS(grid_points >= 2);
  const auto& p = market.params();
  const auto objective = [&](double price) {
    return market.leader_utility(price);
  };

  double best_price = p.unit_cost;
  double best_value = objective(best_price);
  for (std::size_t i = 1; i < grid_points; ++i) {
    const double candidate =
        p.unit_cost + (p.price_cap - p.unit_cost) * static_cast<double>(i) /
                          static_cast<double>(grid_points - 1);
    const double value = objective(candidate);
    if (value > best_value) {
      best_value = value;
      best_price = candidate;
    }
  }
  const double cell =
      (p.price_cap - p.unit_cost) / static_cast<double>(grid_points - 1);
  const auto refined = game::golden_section_maximize(
      objective, std::max(p.unit_cost, best_price - cell),
      std::min(p.price_cap, best_price + cell));
  const double price =
      refined.value >= best_value ? refined.arg : best_price;

  // Classify the regime for reporting.
  equilibrium_regime regime = equilibrium_regime::interior;
  const double eps = 1e-6 * std::max(1.0, p.price_cap);
  double unconstrained_total = 0.0;
  for (std::size_t n = 0; n < market.vmu_count(); ++n)
    unconstrained_total += market.best_response(n, price);
  if (std::abs(price - p.price_cap) < eps)
    regime = equilibrium_regime::price_capped;
  else if (std::abs(price - p.unit_cost) < eps)
    regime = equilibrium_regime::cost_floor;
  else if (unconstrained_total >= p.bandwidth_cap_mhz.value() - 1e-9)
    regime = equilibrium_regime::capacity_bound;
  return finalize(market, price, regime);
}

equilibrium_check verify_equilibrium(const migration_market& market,
                                     const equilibrium& candidate,
                                     std::size_t samples) {
  VTM_EXPECTS(samples >= 2);
  const auto& p = market.params();
  equilibrium_check check;

  // Leader deviations (followers re-respond through the market).
  for (std::size_t i = 0; i < samples; ++i) {
    const double price =
        p.unit_cost + (p.price_cap - p.unit_cost) * static_cast<double>(i) /
                          static_cast<double>(samples - 1);
    check.max_leader_gain =
        std::max(check.max_leader_gain,
                 market.leader_utility(price) - candidate.leader_utility);
  }

  // Follower deviations, valid when rationing is inactive at the candidate
  // (at the capacity-clearing price Σb = B_max exactly, so grants equal
  // requests). Under hard rationing (price-capped regime) the followers'
  // feasible set is not their full action space, so the unilateral check
  // does not apply and is skipped.
  double unconstrained_total = 0.0;
  for (std::size_t n = 0; n < market.vmu_count(); ++n)
    unconstrained_total += market.best_response(n, candidate.price);
  const bool rationed =
      unconstrained_total > p.bandwidth_cap_mhz.value() * (1.0 + 1e-9);
  if (!rationed) {
    for (std::size_t n = 0; n < market.vmu_count(); ++n) {
      const double hi =
          std::max(2.0 * candidate.demands[n], p.bandwidth_cap_mhz.value());
      for (std::size_t i = 0; i < samples; ++i) {
        const double b = hi * static_cast<double>(i) /
                         static_cast<double>(samples - 1);
        const double gain = market.vmu_utility(n, b, candidate.price) -
                            candidate.vmu_utilities[n];
        check.max_follower_gain = std::max(check.max_follower_gain, gain);
      }
    }
  }
  return check;
}

}  // namespace vtm::core
