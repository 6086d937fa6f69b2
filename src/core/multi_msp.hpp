// Multi-MSP extension (the paper's stated future work, §VI).
//
// M MSPs post unit prices simultaneously; each VMU splits its bandwidth
// purchase across MSPs with a softmin share rule on price (logit demand with
// sharpness λ — the standard smoothing of Bertrand competition that keeps
// best responses well-defined):
//
//   w_m(p) = exp(−λ·p_m) / Σ_j exp(−λ·p_j)
//   p̄_n   = Σ_m w_m·p_m                      (effective price faced by VMU n)
//   b_n    = max(0, α_n/p̄_n − κ_n)           (paper's eq. 8 at p̄)
//   b_nm   = b_n · w_m                        (allocation to MSP m)
//
// Each MSP m maximizes (p_m − C_m)·Σ_n b_nm given the other prices; the
// price-competition equilibrium is the fixed point of best responses.
// Economics recovered in the tests: one MSP reduces to the monopoly model;
// competition pushes prices below the monopoly level toward cost as λ grows.
//
// Fast path (DESIGN.md §12): aggregate demand depends on prices only through
// the scalar effective price, so the market precomputes per-VMU activation
// thresholds t_n = α_n/κ_n and suffix sums of (α, κ) over the
// threshold-sorted order; `total_demand(p_eff)` is then an O(log N) lookup
// and the best-response objective costs one `exp` per candidate price. The
// equilibrium solver is a dampened simultaneous best-response iteration with
// an Aitken-style contraction-ratio certificate; a warm-started solve first
// tries an active-set Newton solve of the sellers' first-order conditions,
// verified by one best-response sweep.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/market.hpp"

namespace vtm::core {

/// One competing bandwidth seller.
struct msp_profile {
  double unit_cost = 5.0;          ///< C_m.
  double bandwidth_cap_mhz = 50.0; ///< Per-MSP capacity.
  double price_cap = 50.0;         ///< p_max,m.
};

/// Market with M MSPs and N VMUs.
struct multi_msp_params {
  std::vector<msp_profile> msps;  ///< The competing leaders (M >= 1).
  std::vector<vmu_profile> vmus;  ///< The buyers (N >= 1).
  wireless::link_params link{};   ///< Shared migration channel model.
  double share_sharpness = 0.25;  ///< λ — price sensitivity of the split.
};

/// Stateless evaluator of the oligopoly market.
class multi_msp_market {
 public:
  /// Validates: at least one MSP and VMU, finite positive α/D, positive
  /// caps, finite λ > 0, 0 < C_m <= p_max,m. Precomputes the sorted demand
  /// curve.
  explicit multi_msp_market(multi_msp_params params);

  /// Re-targets the market at a new roster and cohort, keeping its link and
  /// λ: the constructor's validation and demand-curve build over reused
  /// storage, so once the buffers have grown a rebuild allocates nothing.
  /// The spans must not alias this market's own `params()`. A rejected
  /// roster or cohort leaves the market unchanged.
  void assign(std::span<const msp_profile> msps,
              std::span<const vmu_profile> vmus);

  [[nodiscard]] const multi_msp_params& params() const noexcept {
    return params_;
  }
  [[nodiscard]] std::size_t msp_count() const noexcept {
    return params_.msps.size();
  }
  [[nodiscard]] std::size_t vmu_count() const noexcept {
    return params_.vmus.size();
  }
  [[nodiscard]] double spectral_efficiency() const noexcept {
    return link_.spectral_efficiency();
  }

  /// Softmin market shares at a price vector (sums to 1).
  [[nodiscard]] std::vector<double> shares(
      std::span<const double> prices) const;

  /// `shares` into caller storage (resized to M), bitwise the same values.
  void shares_into(std::span<const double> prices,
                   std::vector<double>& out) const;

  /// Effective (share-weighted) price faced by every VMU.
  [[nodiscard]] double effective_price(std::span<const double> prices) const;

  /// Total bandwidth demanded by VMU n at the effective price.
  [[nodiscard]] double vmu_demand(std::size_t n,
                                  std::span<const double> prices) const;

  /// Same per-VMU demand expression, with the effective price computed once
  /// by the caller — bitwise-identical to `vmu_demand` at the same p_eff.
  [[nodiscard]] double vmu_demand_at(std::size_t n, double p_eff) const;

  /// Aggregate demand curve at an effective price: O(log N) lookup into the
  /// threshold-sorted suffix sums, max(0, Σ_active α / p_eff − Σ_active κ).
  [[nodiscard]] double total_demand(double p_eff) const;

  /// O(N) reference for `total_demand`: walks the sorted VMUs from the
  /// highest activation threshold down, accumulating the identical FP
  /// additions, so the result is bitwise-equal to the suffix-sum lookup.
  [[nodiscard]] double total_demand_reference(double p_eff) const;

  /// Bandwidth sold by each MSP (after per-MSP capacity rationing).
  [[nodiscard]] std::vector<double> msp_sales(
      std::span<const double> prices) const;

  /// Per-MSP utilities (p_m − C_m)·sales_m.
  [[nodiscard]] std::vector<double> msp_utilities(
      std::span<const double> prices) const;

  /// Best response of one seller with the search cost broken out.
  struct best_response {
    double price = 0.0;            ///< Argmax over [C_m, p_max,m].
    double value = 0.0;            ///< Profit at the best response.
    std::size_t evaluations = 0;   ///< Objective calls spent.
  };

  /// MSP m's best-response price to the others' prices. Fast path: rivals'
  /// softmin weights are cached once, so each candidate price costs one
  /// `exp` plus an O(log N) demand-curve lookup, with no allocation. `tol`
  /// is the price accuracy of the inner search.
  [[nodiscard]] best_response best_response_to(
      std::size_t m, std::span<const double> prices,
      double tol = 1e-9) const;

  /// Bracket-local best response: searches only [center − halfwidth,
  /// center + halfwidth] (clamped to [C_m, p_max,m]), expanding the bracket
  /// ×4 whenever the profit derivative says the optimum lies beyond a
  /// bracket edge that is not a domain boundary, so a stale bracket can
  /// never pin the search to a wrong basin. Inside the bracket the search is
  /// a safeguarded secant on the closed-form profit derivative (DESIGN.md
  /// §12), with bisection fallback across rationing kinks. Used by the
  /// solver after the first sweep, when the previous sweep's response
  /// brackets the new one.
  [[nodiscard]] best_response best_response_local(
      std::size_t m, std::span<const double> prices, double center,
      double halfwidth, double tol) const;

  /// Demand curve value and slope at an effective price: D = A_i/p̄ − K_i
  /// and D' = −A_i/p̄² over the active suffix i (one shared lookup); both
  /// zero where no buyer is active. The value is bitwise `total_demand`;
  /// the slope feeds the closed-form profit derivative of the local
  /// best-response search and the Jacobian of the Newton clearing.
  struct demand_point {
    double demand = 0.0;
    double slope = 0.0;
  };
  [[nodiscard]] demand_point demand_at(double p_eff) const;

  /// Slow-path oracle: the original O(N·M)-per-evaluation objective (full
  /// softmin re-normalization, per-VMU demand loop in roster order) under
  /// the original grid + golden-section search. Bitwise-identical to the
  /// pre-fast-path `best_response_price`; property tests compare the fast
  /// path against it.
  [[nodiscard]] double best_response_price_reference(
      std::size_t m, std::span<const double> prices) const;

 private:
  /// Cached single-seller view of the softmin: rivals' total weight and
  /// price-weighted mass anchored at the cheapest rival, so one candidate
  /// price costs one `exp`. Anchoring at the rivals' minimum keeps the
  /// softmin denominator >= 1 on both branches — a candidate above the
  /// anchor underflows toward zero share, a candidate below it rescales the
  /// rivals toward zero — so sharp λ never produces 0/0 or overflow.
  struct rival_cache {
    double ref = 0.0;       ///< min_{j≠m} p_j (softmin anchor).
    double rival_w = 0.0;   ///< Σ_{j≠m} exp(−λ(p_j − ref)) — >= 1.
    double rival_wp = 0.0;  ///< Σ_{j≠m} exp(−λ(p_j − ref))·p_j.
    bool has_rivals = false;
    double lo = 0.0;        ///< C_m.
    double hi = 0.0;        ///< p_max,m.
    double cap = 0.0;       ///< Bandwidth cap of seller m.
    /// Share of seller m and the effective price at a candidate price.
    struct point {
      double share = 0.0;
      double p_eff = 0.0;
    };
    [[nodiscard]] point at(double lambda, double price) const;
  };
  [[nodiscard]] rival_cache cache_rivals(std::size_t m,
                                         std::span<const double> prices) const;

  /// The constructor's and `assign`'s parameter checks.
  static void validate(std::span<const msp_profile> msps,
                       std::span<const vmu_profile> vmus, double sharpness);
  /// Rebuilds the demand curve from `params_` into the members below.
  void build_curve();

  multi_msp_params params_;
  wireless::link_budget link_;
  // The curve build's sort permutation and keys t_n = α_n/κ_n (roster
  // order), kept so a rebuild reuses their storage.
  std::vector<std::size_t> order_;
  std::vector<double> threshold_;
  // Demand curve: VMUs sorted ascending by activation threshold α_n/κ_n
  // (ties in roster order), with suffix sums (index i = Σ over sorted
  // positions i..N−1) built by descending accumulation so the O(N)
  // reference walk adds in the same order. Sizes: N for the sorted arrays,
  // N+1 for the suffix sums.
  std::vector<double> sorted_alpha_;
  std::vector<double> sorted_kappa_;
  std::vector<double> sorted_threshold_;
  std::vector<double> suffix_alpha_;
  std::vector<double> suffix_kappa_;
};

/// Outcome of price-competition best-response iteration.
struct multi_msp_equilibrium {
  std::vector<double> prices;         ///< One price per MSP.
  std::vector<double> sales;          ///< Bandwidth sold per MSP.
  std::vector<double> utilities;      ///< Profit per MSP.
  double effective_price = 0.0;       ///< Share-weighted price seen by VMUs.
  double total_demand = 0.0;          ///< Σ over MSPs of sales.
  double total_vmu_utility = 0.0;     ///< Σ_n U_n at the effective price.
  /// Best-response sweeps; the Newton stage's verification sweep counts as
  /// one, whether or not the fallback loop then runs.
  std::size_t iterations = 0;
  /// Newton iterations of the solve that answered; 0 when the dampened
  /// best-response loop answered (cold starts, M = 1, fallbacks).
  std::size_t newton_iterations = 0;
  bool converged = false;
  // Convergence certificate (DESIGN.md §12).
  double residual = 0.0;           ///< Final max_m |BR_m(p) − p_m|.
  /// Last observed q = r_k / r_{k−1}: of the best-response defects, or of
  /// the last two Newton step norms when Newton answered.
  double contraction_ratio = 0.0;
  double error_bound = 0.0;        ///< q/(1−q)·residual; +inf if q >= 1.
  double damping = 1.0;            ///< Final relaxation factor θ.
  bool certified = false;          ///< converged && q < 1.
  bool warm_started = false;       ///< Initialized from a warm-start vector.
  /// Best-response objective calls (the verification sweep's bracket-edge
  /// probes included), plus one per seller for every
  /// residual-and-Jacobian evaluation of the Newton stage.
  std::size_t objective_evals = 0;
};

/// Starting point of `solve_price_competition` (the fixed-point tolerance,
/// 1e-7, the sweep budget, 200, and the initial full step are the solver's
/// constants).
struct price_competition_options {
  /// Previous clearing's prices (size M) to start from; empty = cold start
  /// at each MSP's cap midpoint (first clearing of a run stays bitwise).
  std::span<const double> warm_start{};
};

/// Working storage of `solve_price_competition` (DESIGN.md §12): the
/// Newton stage's workspace, the verification sweep's and the dampened
/// loop's vectors, and the summary's shares. A solve sizes every buffer it
/// uses and writes each entry before reading it, so nothing carries from
/// one solve into the next; the buffers keep their capacity, so a solve on
/// warm scratch allocates nothing. The fields are the solver's own.
struct price_competition_scratch {
  /// Which equation fixes a seller's price in the Newton system.
  enum class seller_class : unsigned char {
    interior,  ///< First-order row: the profit derivative is 0.
    kink,      ///< Rationing row: w_m·D(p̄) = the seller's capacity.
    capped,    ///< Held at its price cap p_max,m.
  };

  /// The Newton stage's evaluated point and active system.
  struct newton_workspace {
    /// Sizes every buffer for M sellers and zeroes it.
    void reset(std::size_t msps);

    std::vector<seller_class> cls;
    // The evaluated point: effective price, demand curve, and per seller
    // the share w_m, ∂p̄/∂p_m, uncapped sales w_m·D, and the first-order
    // value u_m = g_m/w_m (g_m is the uncapped profit derivative).
    double p_eff = 0.0;
    multi_msp_market::demand_point demand;
    std::vector<double> w;
    std::vector<double> dp_eff;
    std::vector<double> sales;
    std::vector<double> foc;
    // The active system over its k unknown (interior and kink) sellers:
    // residual F, row-major Jacobian J, and the Newton step.
    std::size_t k = 0;
    std::vector<std::size_t> unknown;
    std::vector<double> residual;
    std::vector<double> jacobian;
    std::vector<double> step;
    std::vector<double> move;   ///< The step per seller (0 off the system).
    std::vector<double> trial;  ///< Line-search candidate prices.
  };

  newton_workspace newton;
  std::vector<double> iterate;   ///< Newton's prices.
  std::vector<double> response;  ///< Best responses of a sweep.
  // The dampened loop's previous iterate and responses, and its search
  // brackets.
  std::vector<double> prev_prices;
  std::vector<double> prev_response;
  std::vector<double> center;
  std::vector<double> halfwidth;
  std::vector<double> shares;  ///< The summary's softmin pass.
};

/// Dampened simultaneous best-response iteration with a contraction-ratio
/// certificate: p ← p + θ(BR(p) − p), θ bisected on stall. Converges
/// deterministically for smoothed shares, including sharp-λ/binding-cap
/// configs that cycle under pure Gauss–Seidel. A warm-started solve with
/// M >= 2 first runs an active-set Newton solve of the sellers'
/// first-order conditions and accepts it only if one best-response sweep
/// around its prices measures a defect <= the fixed-point tolerance;
/// otherwise the dampened loop runs from the warm start as if Newton had not
/// been tried (DESIGN.md §12). The default options are a cold start.
[[nodiscard]] multi_msp_equilibrium solve_price_competition(
    const multi_msp_market& market,
    const price_competition_options& options = {});

/// The same solve into reused storage: every field of `result` is
/// overwritten and its vectors keep their capacity, so with warm `result`
/// and `scratch` a solve allocates nothing. Bitwise the by-value solve,
/// which runs this on fresh storage.
void solve_price_competition(const multi_msp_market& market,
                             const price_competition_options& options,
                             multi_msp_equilibrium& result,
                             price_competition_scratch& scratch);

}  // namespace vtm::core
