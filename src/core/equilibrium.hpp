// Analytic Stackelberg-equilibrium oracle (§III-B2, Theorems 1–2).
//
// Interior case (all VMUs active, capacity slack):
//   p* = sqrt(C · Σα_n / Σκ_n),  b*_n = α_n/p* − κ_n           (Theorem 2)
// Capacity-bound case (Σ b*(p*) > B_max): since U_s(p) is concave and the
// rationed branch (p − C)·B_max grows in p, the optimum sits at the smallest
// price clearing the cap:  p = Σα / (B_max + Σκ) over the active set.
// Price box: p ∈ [C, p_max] is enforced last, and the active set (VMUs with
// α_n/p > κ_n) is recomputed to a fixed point after each candidate.
//
// A derivative-free numeric solve over the same objective cross-checks the
// closed form in the tests, and `verify_equilibrium` certifies the
// no-profitable-deviation property of Definition 1.
#pragma once

#include <span>
#include <vector>

#include "core/market.hpp"

namespace vtm::core {

/// How the equilibrium price was determined.
enum class equilibrium_regime {
  interior,        ///< FOC zero inside (C, p_max), capacity slack.
  capacity_bound,  ///< Price lifted until Σb = B_max.
  price_capped,    ///< p_max binds.
  cost_floor,      ///< p = C binds (degenerate, zero margin).
};

/// Human-readable regime name.
[[nodiscard]] const char* to_string(equilibrium_regime regime) noexcept;

/// Full Stackelberg equilibrium of a market.
struct equilibrium {
  double price = 0.0;                   ///< p* — MSP's optimal unit price.
  std::vector<double> demands;          ///< b*_n after rationing (if any).
  double total_demand = 0.0;            ///< Σ b*_n.
  double leader_utility = 0.0;          ///< U_s(p*).
  std::vector<double> vmu_utilities;    ///< U_n at the equilibrium.
  double total_vmu_utility = 0.0;       ///< Σ U_n.
  std::vector<double> aotm;             ///< Per-VMU AoTM at the equilibrium.
  equilibrium_regime regime = equilibrium_regime::interior;
};

/// Price and regime of a closed-form solve.
struct priced_regime {
  double price = 0.0;
  equilibrium_regime regime = equilibrium_regime::cost_floor;
};

/// The closed-form active-set price solve over the followers' (α_n, κ_n)
/// against `cap_mhz` of capacity, with the price box [C, p_max]. Allocation-
/// free: the spot market prices its book with it in place, and
/// `solve_equilibrium` runs the same solve over `market.followers()`.
[[nodiscard]] priced_regime solve_price(
    std::span<const follower_terms> followers, double cap_mhz,
    double unit_cost, double price_cap);

/// Closed-form solve with active-set iteration (exact for this model).
[[nodiscard]] equilibrium solve_equilibrium(const migration_market& market);

/// Market response to a *posted* (not necessarily optimal) price: rationed
/// demands, both sides' utilities, and per-VMU AoTM, with the regime label
/// classifying the posted price (rationing active -> capacity_bound; at the
/// box edges -> price_capped / cost_floor). This is the follower side of
/// every price source — the oracle optimizes the price first, a learned
/// pricer posts it directly. Requires price in [C, p_max].
[[nodiscard]] equilibrium evaluate_at_price(const migration_market& market,
                                            double price);

/// Numeric solve (grid + golden-section over the leader objective with
/// market-determined demands); used to cross-validate the closed form.
[[nodiscard]] equilibrium solve_equilibrium_numeric(
    const migration_market& market, std::size_t grid_points = 512);

/// Certificate for Definition 1: no player improves by deviating.
struct equilibrium_check {
  double max_leader_gain = 0.0;    ///< Best leader deviation found.
  double max_follower_gain = 0.0;  ///< Best follower deviation found.
  [[nodiscard]] bool holds(double tolerance) const noexcept {
    return max_leader_gain <= tolerance && max_follower_gain <= tolerance;
  }
};

/// Probe `samples` leader prices in [C, p_max] and `samples` follower
/// bandwidths per VMU against the candidate equilibrium.
[[nodiscard]] equilibrium_check verify_equilibrium(
    const migration_market& market, const equilibrium& candidate,
    std::size_t samples = 512);

}  // namespace vtm::core
