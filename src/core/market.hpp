// The VT-migration bandwidth market (§III-B).
//
// One MSP (monopolist bandwidth seller) faces N VMUs whose twins must
// migrate. Given a unit price p, VMU n purchases bandwidth b_n maximizing
//   U_n(b_n) = α_n · ln(1 + 1/A_n) − p·b_n,   A_n = D_n / (b_n·R),
// whose unique interior maximizer is b*_n = α_n/p − D_n/R (eq. 8), clamped at
// zero (participation). The MSP earns U_s(p) = Σ (p − C)·b_n subject to the
// capacity Σ b_n ≤ B_max; when aggregate demand exceeds B_max, grants are
// rationed proportionally (every VMU gets the same fraction of its request).
//
// Units follow the paper's calibration (DESIGN.md §3): b in MHz, D in MB,
// R = log2(1+SNR) from the link budget, α in utility units (the paper's
// quoted α values enter ×100).
#pragma once

#include <span>
#include <vector>

#include "wireless/link.hpp"

namespace vtm::core {

/// A VMU's private type: immersion coefficient and twin size.
struct vmu_profile {
  double alpha = 500.0;   ///< α_n — unit immersion profit (paper "5" → 500).
  double data_mb = 100.0; ///< D_n — migrated twin footprint in MB.
};

/// One follower's terms in the closed-form solve: α_n and κ_n = D_n / R, the
/// transfer time per unit bandwidth over the market's link.
struct follower_terms {
  double alpha = 0.0;
  double kappa = 0.0;
};

/// Terms of `vmu` over a link of spectral efficiency R.
[[nodiscard]] inline follower_terms make_follower(
    const vmu_profile& vmu, double spectral_efficiency) noexcept {
  return {vmu.alpha, vmu.data_mb / spectral_efficiency};
}

/// Interior best response b*_n(p) = α_n/p − κ_n clamped at 0 (eq. 8).
[[nodiscard]] inline double best_response(const follower_terms& follower,
                                          double price) noexcept {
  const double interior = follower.alpha / price - follower.kappa;
  return interior > 0.0 ? interior : 0.0;
}

/// Demands at price p after proportional rationing to `cap_mhz`, written to
/// `out` (one entry per follower). Allocation-free. Requires p > 0.
void ration_demands(std::span<const follower_terms> followers, double price,
                    double cap_mhz, std::span<double> out);

/// U_n(b; p) = α ln(1 + b·R / D) − p·b of `vmu` over a link of spectral
/// efficiency R; zero bandwidth gives 0. Requires b >= 0.
[[nodiscard]] double vmu_utility(const vmu_profile& vmu,
                                 double spectral_efficiency,
                                 double bandwidth_mhz, double price);

/// Complete market description.
struct market_params {
  std::vector<vmu_profile> vmus;       ///< The N followers.
  wireless::link_params link{};        ///< Source→destination RSU channel.
  util::megahertz bandwidth_cap_mhz{50.0};  ///< B_max.
  double unit_cost = 5.0;              ///< C — MSP's unit transmission cost.
  double price_cap = 50.0;             ///< p_max.
};

/// Stateless market evaluator: follower best responses, rationing, utilities.
class migration_market {
 public:
  /// Validates parameters: N >= 1, positive α/D/B_max/p_max, 0 < C <= p_max.
  explicit migration_market(market_params params);

  [[nodiscard]] const market_params& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t vmu_count() const noexcept {
    return params_.vmus.size();
  }
  [[nodiscard]] const wireless::link_budget& link() const noexcept {
    return link_;
  }

  /// R = log2(1 + SNR) of the inter-RSU link.
  [[nodiscard]] double spectral_efficiency() const noexcept {
    return link_.spectral_efficiency();
  }

  /// Every follower's (α_n, κ_n), in VMU order.
  [[nodiscard]] std::span<const follower_terms> followers() const noexcept {
    return followers_;
  }

  /// κ_n = D_n / R — VMU n's transfer-time per unit bandwidth.
  [[nodiscard]] double kappa(std::size_t n) const;

  /// Interior best response b*_n(p) = α_n/p − κ_n clamped at 0 (eq. 8).
  /// Requires p > 0.
  [[nodiscard]] double best_response(std::size_t n, double price) const;

  /// All best responses at price p, before capacity rationing.
  [[nodiscard]] std::vector<double> unconstrained_demands(double price) const;

  /// Demands after proportional rationing to the B_max capacity.
  [[nodiscard]] std::vector<double> demands(double price) const;

  /// AoTM of VMU n when allocated `bandwidth_mhz` (> 0).
  [[nodiscard]] double aotm(std::size_t n, double bandwidth_mhz) const;

  /// U_n(b_n; p) = α_n ln(1 + b_n R / D_n) − p·b_n; zero bandwidth gives 0.
  [[nodiscard]] double vmu_utility(std::size_t n, double bandwidth_mhz,
                                   double price) const;

  /// U_s = Σ (p − C)·b_n for explicit allocations (eq. 4).
  [[nodiscard]] double leader_utility(double price,
                                      std::span<const double> demands) const;

  /// U_s at price p with market-determined (rationed) demands.
  [[nodiscard]] double leader_utility(double price) const;

  /// Σ of rationed demands at price p.
  [[nodiscard]] double total_demand(double price) const;

  /// Sum of VMU utilities at price p under rationed allocations.
  [[nodiscard]] double total_vmu_utility(double price) const;

 private:
  market_params params_;
  wireless::link_budget link_;
  std::vector<follower_terms> followers_;
};

}  // namespace vtm::core
