#include "core/multi_msp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "game/maximize.hpp"
#include "util/contracts.hpp"

namespace vtm::core {

multi_msp_market::multi_msp_market(multi_msp_params params)
    : params_(std::move(params)), link_(params_.link) {
  validate(params_.msps, params_.vmus, params_.share_sharpness);
  build_curve();
}

void multi_msp_market::assign(std::span<const msp_profile> msps,
                              std::span<const vmu_profile> vmus) {
  validate(msps, vmus, params_.share_sharpness);
  params_.msps.assign(msps.begin(), msps.end());
  params_.vmus.assign(vmus.begin(), vmus.end());
  build_curve();
}

void multi_msp_market::validate(std::span<const msp_profile> msps,
                                std::span<const vmu_profile> vmus,
                                double sharpness) {
  VTM_EXPECTS(!msps.empty());
  VTM_EXPECTS(!vmus.empty());
  // An infinite λ makes the cheapest seller's softmin exponent −∞·0, a NaN.
  VTM_EXPECTS(std::isfinite(sharpness) && sharpness > 0.0);
  for (const auto& msp : msps) {
    VTM_EXPECTS(msp.unit_cost > 0.0);
    VTM_EXPECTS(msp.bandwidth_cap_mhz > 0.0);
    VTM_EXPECTS(msp.price_cap >= msp.unit_cost);
  }
  // Finite α and D keep every activation threshold a number, which the
  // threshold sort's strict order needs.
  for (const auto& vmu : vmus) {
    VTM_EXPECTS(std::isfinite(vmu.alpha) && vmu.alpha > 0.0);
    VTM_EXPECTS(std::isfinite(vmu.data_mb) && vmu.data_mb > 0.0);
  }
}

void multi_msp_market::build_curve() {
  // Demand curve: VMU n is active iff α_n/p_eff − κ_n > 0, i.e. iff its
  // activation threshold t_n = α_n/κ_n exceeds p_eff. Sorting by t_n makes
  // the active set a suffix of the order; suffix sums of α and κ turn the
  // aggregate demand into (Σα)/p_eff − Σκ over that suffix.
  const std::size_t n_vmus = params_.vmus.size();
  const double r = link_.spectral_efficiency();
  order_.resize(n_vmus);
  std::iota(order_.begin(), order_.end(), 0);
  threshold_.resize(n_vmus);
  for (std::size_t n = 0; n < n_vmus; ++n)
    threshold_[n] = params_.vmus[n].alpha / (params_.vmus[n].data_mb / r);
  // Ties keep roster order: (threshold, roster index) is a strict total
  // order, so the unstable sort yields the stable permutation without the
  // buffer `std::stable_sort` allocates.
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return threshold_[a] < threshold_[b] ||
           (threshold_[a] == threshold_[b] && a < b);
  });
  sorted_alpha_.resize(n_vmus);
  sorted_kappa_.resize(n_vmus);
  sorted_threshold_.resize(n_vmus);
  for (std::size_t i = 0; i < n_vmus; ++i) {
    sorted_alpha_[i] = params_.vmus[order_[i]].alpha;
    sorted_kappa_[i] = params_.vmus[order_[i]].data_mb / r;
    sorted_threshold_[i] = threshold_[order_[i]];
  }
  // Accumulate descending so the O(N) reference walk (highest threshold
  // first) performs the identical sequence of FP additions.
  suffix_alpha_.assign(n_vmus + 1, 0.0);
  suffix_kappa_.assign(n_vmus + 1, 0.0);
  for (std::size_t i = n_vmus; i-- > 0;) {
    suffix_alpha_[i] = sorted_alpha_[i] + suffix_alpha_[i + 1];
    suffix_kappa_[i] = sorted_kappa_[i] + suffix_kappa_[i + 1];
  }
}

std::vector<double> multi_msp_market::shares(
    std::span<const double> prices) const {
  std::vector<double> weights;
  shares_into(prices, weights);
  return weights;
}

void multi_msp_market::shares_into(std::span<const double> prices,
                                   std::vector<double>& out) const {
  VTM_EXPECTS(prices.size() == msp_count());
  // Numerically-stable softmin: subtract the minimum price.
  const double p_min = *std::min_element(prices.begin(), prices.end());
  out.resize(prices.size());
  double total = 0.0;
  for (std::size_t m = 0; m < prices.size(); ++m) {
    VTM_EXPECTS(prices[m] > 0.0);
    out[m] = std::exp(-params_.share_sharpness * (prices[m] - p_min));
    total += out[m];
  }
  for (double& w : out) w /= total;
}

double multi_msp_market::effective_price(
    std::span<const double> prices) const {
  const auto w = shares(prices);
  double effective = 0.0;
  for (std::size_t m = 0; m < prices.size(); ++m)
    effective += w[m] * prices[m];
  return effective;
}

double multi_msp_market::vmu_demand(std::size_t n,
                                    std::span<const double> prices) const {
  VTM_EXPECTS(n < vmu_count());
  const double p_eff = effective_price(prices);
  const double kappa = params_.vmus[n].data_mb / spectral_efficiency();
  const double interior = params_.vmus[n].alpha / p_eff - kappa;
  return interior > 0.0 ? interior : 0.0;
}

double multi_msp_market::vmu_demand_at(std::size_t n, double p_eff) const {
  VTM_EXPECTS(n < vmu_count());
  VTM_EXPECTS(p_eff > 0.0);
  const double kappa = params_.vmus[n].data_mb / spectral_efficiency();
  const double interior = params_.vmus[n].alpha / p_eff - kappa;
  return interior > 0.0 ? interior : 0.0;
}

double multi_msp_market::total_demand(double p_eff) const {
  VTM_EXPECTS(p_eff > 0.0);
  // First sorted position whose threshold strictly exceeds p_eff; everything
  // from there up is active.
  const auto it = std::upper_bound(sorted_threshold_.begin(),
                                   sorted_threshold_.end(), p_eff);
  const auto i =
      static_cast<std::size_t>(it - sorted_threshold_.begin());
  if (i == sorted_threshold_.size()) return 0.0;
  const double demand = suffix_alpha_[i] / p_eff - suffix_kappa_[i];
  return demand > 0.0 ? demand : 0.0;
}

double multi_msp_market::total_demand_reference(double p_eff) const {
  VTM_EXPECTS(p_eff > 0.0);
  // Walk the sorted VMUs from the highest threshold down, accumulating α and
  // κ with the same additions the suffix sums were built from.
  double alpha_sum = 0.0;
  double kappa_sum = 0.0;
  bool any_active = false;
  for (std::size_t i = sorted_threshold_.size(); i-- > 0;) {
    if (!(sorted_threshold_[i] > p_eff)) break;
    alpha_sum = sorted_alpha_[i] + alpha_sum;
    kappa_sum = sorted_kappa_[i] + kappa_sum;
    any_active = true;
  }
  if (!any_active) return 0.0;
  const double demand = alpha_sum / p_eff - kappa_sum;
  return demand > 0.0 ? demand : 0.0;
}

std::vector<double> multi_msp_market::msp_sales(
    std::span<const double> prices) const {
  const auto w = shares(prices);
  double total_demand = 0.0;
  for (std::size_t n = 0; n < vmu_count(); ++n)
    total_demand += vmu_demand(n, prices);
  std::vector<double> sales(msp_count());
  for (std::size_t m = 0; m < msp_count(); ++m) {
    sales[m] =
        std::min(w[m] * total_demand, params_.msps[m].bandwidth_cap_mhz);
  }
  return sales;
}

std::vector<double> multi_msp_market::msp_utilities(
    std::span<const double> prices) const {
  const auto sales = msp_sales(prices);
  std::vector<double> utilities(msp_count());
  for (std::size_t m = 0; m < msp_count(); ++m)
    utilities[m] = (prices[m] - params_.msps[m].unit_cost) * sales[m];
  return utilities;
}

multi_msp_market::rival_cache multi_msp_market::cache_rivals(
    std::size_t m, std::span<const double> prices) const {
  VTM_EXPECTS(m < msp_count());
  VTM_EXPECTS(prices.size() == msp_count());
  rival_cache cache;
  cache.lo = params_.msps[m].unit_cost;
  cache.hi = params_.msps[m].price_cap;
  cache.cap = params_.msps[m].bandwidth_cap_mhz;
  // Anchor at the cheapest rival: its weight is exactly 1, so the rivals'
  // mass is >= 1 and the softmin denominator can never vanish, no matter
  // how sharp λ is.
  cache.ref = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < prices.size(); ++j) {
    if (j == m) continue;
    VTM_EXPECTS(prices[j] > 0.0);
    cache.ref = std::min(cache.ref, prices[j]);
    cache.has_rivals = true;
  }
  if (!cache.has_rivals) {
    cache.ref = cache.lo;
    return cache;
  }
  const double lambda = params_.share_sharpness;
  for (std::size_t j = 0; j < prices.size(); ++j) {
    if (j == m) continue;
    const double w = std::exp(-lambda * (prices[j] - cache.ref));
    cache.rival_w += w;
    cache.rival_wp += w * prices[j];
  }
  return cache;
}

multi_msp_market::rival_cache::point multi_msp_market::rival_cache::at(
    double lambda, double price) const {
  // Alone in the market the softmin is degenerate: full share at own price.
  if (!has_rivals) return {1.0, price};
  if (price >= ref) {
    // Candidate at or above the anchor: its weight decays (underflow to 0 is
    // the correct priced-out limit, the rivals keep mass >= 1).
    const double w = std::exp(-lambda * (price - ref));
    const double denom = w + rival_w;
    return {w / denom, (w * price + rival_wp) / denom};
  }
  // Candidate undercuts every rival: re-anchor at the candidate, which
  // rescales the rivals' mass toward zero (their priced-out limit) while the
  // candidate's own weight is exactly 1.
  const double u = std::exp(-lambda * (ref - price));
  const double denom = 1.0 + u * rival_w;
  return {1.0 / denom, (price + u * rival_wp) / denom};
}

multi_msp_market::demand_point multi_msp_market::demand_at(
    double p_eff) const {
  VTM_EXPECTS(p_eff > 0.0);
  const auto it = std::upper_bound(sorted_threshold_.begin(),
                                   sorted_threshold_.end(), p_eff);
  const auto i = static_cast<std::size_t>(it - sorted_threshold_.begin());
  if (i == sorted_threshold_.size()) return {};
  const double demand = suffix_alpha_[i] / p_eff - suffix_kappa_[i];
  if (!(demand > 0.0)) return {};
  return {demand, -suffix_alpha_[i] / (p_eff * p_eff)};
}

multi_msp_market::best_response multi_msp_market::best_response_to(
    std::size_t m, std::span<const double> prices, double tol) const {
  VTM_EXPECTS(tol > 0.0);
  const rival_cache cache = cache_rivals(m, prices);
  const double lambda = params_.share_sharpness;
  // One exp + one O(log N) demand lookup per candidate; no allocation.
  const auto objective = [&](double price) {
    const auto [s, p_eff] = cache.at(lambda, price);
    const double sold = std::min(s * total_demand(p_eff), cache.cap);
    return (price - cache.lo) * sold;
  };
  // Softmin shares make the profit non-concave in corner cases; grid-restart
  // before the golden-section refinement, as in the generic solver.
  const auto found =
      game::bracketed_maximize(objective, cache.lo, cache.hi, 48, tol);
  return {found.arg, found.value, found.evaluations};
}

multi_msp_market::best_response multi_msp_market::best_response_local(
    std::size_t m, std::span<const double> prices, double center,
    double halfwidth, double tol) const {
  VTM_EXPECTS(tol > 0.0);
  const rival_cache cache = cache_rivals(m, prices);
  const double lambda = params_.share_sharpness;
  best_response out;
  // Profit and closed-form derivative at a candidate price. With
  // w = e^{−λ(p−ref)}, s = w/(w+W), p̄ = (wp + WP)/(w+W):
  //   s'  = −λ·s·(1−s)
  //   p̄'  = s·(1 − λ(p − p̄))
  //   f   = (p − C)·min(s·D(p̄), cap)
  //   f'  = s·D + (p − C)(s'·D + s·D'·p̄')        (uncapped)
  //       = cap                                   (capped: f is linear)
  // Zero demand means the profit is flat at 0; report a negative slope so
  // the search walks left toward prices that activate buyers.
  struct probe {
    double f = 0.0;
    double g = 0.0;
  };
  const auto eval = [&](double price) {
    ++out.evaluations;
    const auto [s, p_eff] = cache.at(lambda, price);
    const auto d = demand_at(p_eff);
    if (d.demand <= 0.0) return probe{0.0, -1.0};
    const double margin = price - cache.lo;
    if (s * d.demand >= cache.cap) return probe{margin * cache.cap, cache.cap};
    const double s_prime = -lambda * s * (1.0 - s);
    const double p_eff_prime = s * (1.0 - lambda * (price - p_eff));
    return probe{margin * s * d.demand,
                 s * d.demand +
                     margin * (s_prime * d.demand +
                               s * d.slope * p_eff_prime)};
  };
  double h = std::max(halfwidth, tol);
  for (;;) {
    const double a = std::max(cache.lo, center - h);
    const double b = std::min(cache.hi, center + h);
    const auto pa = eval(a);
    if (pa.g < 0.0 && a > cache.lo) {
      // Profit already falling at the left edge: the optimum is below the
      // bracket. Recenter and widen.
      center = a;
      h *= 4.0;
      continue;
    }
    const auto pb = eval(b);
    if (pb.g > 0.0 && b < cache.hi) {
      center = b;
      h *= 4.0;
      continue;
    }
    if (pa.g <= 0.0) {
      // Falling from the domain edge: boundary optimum at C_m.
      out.price = a;
      out.value = pa.f;
      return out;
    }
    if (pb.g >= 0.0) {
      out.price = b;
      out.value = pb.f;
      return out;
    }
    // g(a) > 0 > g(b): the derivative crosses zero inside. Illinois false
    // position — a stalled endpoint has its derivative halved, which forces
    // both sides to move and keeps convergence superlinear even across the
    // sign jump at a rationing kink.
    double lo_x = a, lo_g = pa.g;
    double hi_x = b, hi_g = pb.g;
    probe best = pa.f >= pb.f ? pa : pb;
    double best_x = pa.f >= pb.f ? a : b;
    int side = 0;
    while (hi_x - lo_x > tol) {
      double x = (lo_g * hi_x - hi_g * lo_x) / (lo_g - hi_g);
      if (!(x > lo_x) || !(x < hi_x)) x = 0.5 * (lo_x + hi_x);
      const auto px = eval(x);
      if (px.f >= best.f) {
        best = px;
        best_x = x;
      }
      if (px.g > 0.0) {
        lo_x = x;
        lo_g = px.g;
        if (side == -1) hi_g *= 0.5;
        side = -1;
      } else {
        hi_x = x;
        hi_g = px.g;
        if (side == 1) lo_g *= 0.5;
        side = 1;
      }
    }
    out.price = best_x;
    out.value = best.f;
    return out;
  }
}

double multi_msp_market::best_response_price_reference(
    std::size_t m, std::span<const double> prices) const {
  VTM_EXPECTS(m < msp_count());
  VTM_EXPECTS(prices.size() == msp_count());
  // Original slow path, kept as the oracle: full softmin re-normalization
  // and a per-VMU demand loop in roster order per evaluation — but with the
  // scratch buffers hoisted out of the objective (one allocation per call,
  // not one per grid point) and only seller m's utility computed.
  std::vector<double> candidate(prices.begin(), prices.end());
  std::vector<double> weights(msp_count());
  const double lambda = params_.share_sharpness;
  const double r = spectral_efficiency();
  const auto objective = [&](double price) {
    candidate[m] = price;
    const double p_min =
        *std::min_element(candidate.begin(), candidate.end());
    double total = 0.0;
    for (std::size_t j = 0; j < candidate.size(); ++j) {
      weights[j] = std::exp(-lambda * (candidate[j] - p_min));
      total += weights[j];
    }
    for (double& w : weights) w /= total;
    double p_eff = 0.0;
    for (std::size_t j = 0; j < candidate.size(); ++j)
      p_eff += weights[j] * candidate[j];
    double demand = 0.0;
    for (const auto& vmu : params_.vmus) {
      const double interior = vmu.alpha / p_eff - vmu.data_mb / r;
      demand += interior > 0.0 ? interior : 0.0;
    }
    const double sold =
        std::min(weights[m] * demand, params_.msps[m].bandwidth_cap_mhz);
    return (price - params_.msps[m].unit_cost) * sold;
  };
  const double lo = params_.msps[m].unit_cost;
  const double hi = params_.msps[m].price_cap;
  constexpr std::size_t grid = 48;
  double best_price = lo;
  double best_value = objective(lo);
  for (std::size_t i = 1; i < grid; ++i) {
    const double p = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(grid - 1);
    const double v = objective(p);
    if (v > best_value) {
      best_value = v;
      best_price = p;
    }
  }
  const double cell = (hi - lo) / static_cast<double>(grid - 1);
  const auto refined = game::golden_section_maximize(
      objective, std::max(lo, best_price - cell),
      std::min(hi, best_price + cell), 1e-9);
  return refined.value >= best_value ? refined.arg : best_price;
}

namespace {

// The fixed-point tolerance on max_m |BR_m(p) − p_m|, the dampened loop's
// sweep budget, and its initial relaxation factor θ (a full step).
constexpr double solve_tol = 1e-7;
constexpr std::size_t max_sweeps = 200;
constexpr double theta_start = 1.0;
// Accuracy bounds of the inner best-response searches, shared by the Newton
// verification sweep and the dampened loop's forcing tolerance.
constexpr double inner_cap = 1e-3;
constexpr double inner_floor = 1e-9;
// A warm start's first search bracket reaches (p_max − C)/47 either side of
// the warm price: one cell of the cold 48-point grid.
constexpr double warm_bracket_cells = 47.0;

/// Certificate of a converged fixed point: the observed contraction ratio q
/// and the a-posteriori bound q/(1−q)·residual (DESIGN.md §12).
void certify(multi_msp_equilibrium& result, double ratio) {
  result.contraction_ratio = ratio;
  if (result.converged && ratio < 1.0) {
    result.certified = true;
    result.error_bound =
        ratio > 0.0 ? (ratio / (1.0 - ratio)) * result.residual : 0.0;
  } else {
    result.error_bound = std::numeric_limits<double>::infinity();
  }
}

// ---- Active-set Newton stage (DESIGN.md §12) -------------------------------

using seller_class = price_competition_scratch::seller_class;
using newton_workspace = price_competition_scratch::newton_workspace;

/// Shares, demand curve, and every seller's uncapped sales and first-order
/// value at `prices`. With ∂w/∂p = −λ·w·(1−w), ∂p̄/∂p = w·b and
/// b = 1 − λ(p − p̄), best_response_local's uncapped profit derivative is
///   g = w·D + (p − C)·(−λ·w·(1−w)·D + w·D'·w·b) = w·u,
///   u = D + (p − C)·Y,  Y = −λ(1 − w)·D + w·D'·b.
/// Dividing by the share removes the spurious root of g at w → 0: a seller
/// pricing itself out does not zero its row. False when no buyer is active
/// at `prices`, where the first-order conditions degenerate.
bool evaluate_point(const multi_msp_market& market,
                    std::span<const double> prices, newton_workspace& ws) {
  const auto& msps = market.params().msps;
  const double lambda = market.params().share_sharpness;
  const double anchor = *std::min_element(prices.begin(), prices.end());
  double total = 0.0;
  for (std::size_t j = 0; j < prices.size(); ++j) {
    ws.w[j] = std::exp(-lambda * (prices[j] - anchor));
    total += ws.w[j];
  }
  ws.p_eff = 0.0;
  for (std::size_t j = 0; j < prices.size(); ++j) {
    ws.w[j] /= total;
    ws.p_eff += ws.w[j] * prices[j];
  }
  ws.demand = market.demand_at(ws.p_eff);
  const auto& d = ws.demand;
  if (!(d.demand > 0.0)) return false;
  for (std::size_t j = 0; j < prices.size(); ++j) {
    const double w = ws.w[j];
    const double b = 1.0 - lambda * (prices[j] - ws.p_eff);
    ws.dp_eff[j] = w * b;
    ws.sales[j] = w * d.demand;
    ws.foc[j] = d.demand + (prices[j] - msps[j].unit_cost) *
                               (-lambda * (1.0 - w) * d.demand +
                                w * d.slope * b);
  }
  return true;
}

/// Lists the sellers with a row (interior and kink) as the system's
/// unknowns.
void list_unknowns(newton_workspace& ws) {
  ws.k = 0;
  for (std::size_t m = 0; m < ws.cls.size(); ++m)
    if (ws.cls[m] == seller_class::interior || ws.cls[m] == seller_class::kink)
      ws.unknown[ws.k++] = m;
}

/// KKT class of every seller at the evaluated point, read from the
/// signs of its best-response conditions: at its price cap while profit does
/// not fall there (rationed, or u >= 0); otherwise the larger of u_m and
/// w_m·D − cap_m picks the binding condition — the first-order row while the
/// seller does not sell past its capacity, the kink row while its profit
/// would still rise past the kink.
void classify(const multi_msp_market& market, std::span<const double> prices,
              newton_workspace& ws) {
  const auto& msps = market.params().msps;
  for (std::size_t m = 0; m < prices.size(); ++m) {
    const double over = ws.sales[m] - msps[m].bandwidth_cap_mhz;
    if (prices[m] >= msps[m].price_cap &&
        (over >= 0.0 || ws.foc[m] >= 0.0))
      ws.cls[m] = seller_class::capped;
    else
      ws.cls[m] =
          ws.foc[m] >= over ? seller_class::interior : seller_class::kink;
  }
  list_unknowns(ws);
}

/// Residual and Jacobian of the active rows at the evaluated point, both
/// rows divided by the demand D so that they are shares. With
/// ∂w_m/∂p_j = −λ·w_m·(δ_mj − w_j), a_j = ∂p̄/∂p_j and μ_m = p_m − C_m:
///   kink:     F = w_m − cap_m/D,
///             ∂F/∂p_j = ∂w_m/∂p_j + cap_m·D'·a_j/D²;
///   interior: F = u_m/D with u_m = D + μ_m·Y_m,
///             ∂u_m/∂p_j = D'·a_j + δ_mj·Y_m + μ_m·∂Y_m/∂p_j,
///             ∂F/∂p_j = (∂u_m/∂p_j − F·D'·a_j)/D,
/// where ∂Y_m/∂p_j differentiates through w, D, D' and b, with
/// D'' = 2A/p̄³ = −2·D'/p̄ on the same active suffix.
/// Dividing by D keeps a seller's row away from zero as the buyers drop
/// out, so pricing toward the demand threshold never looks like progress.
void assemble(const multi_msp_market& market, std::span<const double> prices,
              newton_workspace& ws) {
  const auto& msps = market.params().msps;
  const double lambda = market.params().share_sharpness;
  const auto& d = ws.demand;
  const double curvature = -2.0 * d.slope / ws.p_eff;
  const std::size_t k = ws.k;
  for (std::size_t r = 0; r < k; ++r) {
    const std::size_t m = ws.unknown[r];
    const double w = ws.w[m];
    const double b = 1.0 - lambda * (prices[m] - ws.p_eff);
    const double margin = prices[m] - msps[m].unit_cost;
    const double cap = msps[m].bandwidth_cap_mhz;
    const bool kink = ws.cls[m] == seller_class::kink;
    const double y = -lambda * (1.0 - w) * d.demand + w * d.slope * b;
    const double f = kink ? w - cap / d.demand : ws.foc[m] / d.demand;
    ws.residual[r] = f;
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t j = ws.unknown[c];
      const double delta = j == m ? 1.0 : 0.0;
      const double a = ws.dp_eff[j];
      const double dw = -lambda * w * (delta - ws.w[j]);
      const double d_slope_a = d.slope * a;
      ws.jacobian[r * k + c] =
          kink ? dw + cap * d_slope_a / (d.demand * d.demand)
               : (d_slope_a + delta * y +
                  margin * (-lambda * ((1.0 - w) * d_slope_a - dw * d.demand) +
                            dw * d.slope * b + w * curvature * a * b -
                            lambda * w * d.slope * (delta - a)) -
                  f * d_slope_a) /
                     d.demand;
    }
  }
}

/// max_r |F_r| of the active rows; NaN propagates so a broken point never
/// passes the merit test.
double merit(const newton_workspace& ws) {
  double worst = 0.0;
  for (std::size_t r = 0; r < ws.k; ++r) {
    const double f = std::abs(ws.residual[r]);
    if (!(f <= worst)) worst = f;
  }
  return worst;
}

/// Newton step: solves J·step = −F by Gaussian elimination with partial
/// pivoting, overwriting J. False when J is singular or the step is not
/// finite.
bool newton_direction(newton_workspace& ws) {
  const std::size_t k = ws.k;
  auto& a = ws.jacobian;
  auto& x = ws.step;
  for (std::size_t r = 0; r < k; ++r) x[r] = -ws.residual[r];
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < k; ++r)
      if (std::abs(a[r * k + col]) > std::abs(a[pivot * k + col])) pivot = r;
    if (!(std::abs(a[pivot * k + col]) > 0.0)) return false;
    if (pivot != col) {
      for (std::size_t c = col; c < k; ++c)
        std::swap(a[col * k + c], a[pivot * k + c]);
      std::swap(x[col], x[pivot]);
    }
    for (std::size_t r = col + 1; r < k; ++r) {
      const double f = a[r * k + col] / a[col * k + col];
      for (std::size_t c = col + 1; c < k; ++c)
        a[r * k + c] -= f * a[col * k + c];
      x[r] -= f * x[col];
    }
  }
  for (std::size_t r = k; r-- > 0;) {
    double sum = x[r];
    for (std::size_t c = r + 1; c < k; ++c) sum -= a[r * k + c] * x[c];
    x[r] = sum / a[r * k + r];
    if (!std::isfinite(x[r])) return false;
  }
  return true;
}

/// Slope of seller m's profit in its own price at `price`, the rivals'
/// prices held: the capacity while rationed, else the sign-equivalent u_m,
/// and −1 where no buyer is active (profit flat at 0, as in
/// best_response_local). Overwrites the workspace's point data.
double profit_slope(const multi_msp_market& market,
                    std::span<const double> prices, std::size_t m,
                    double price, newton_workspace& ws) {
  std::copy(prices.begin(), prices.end(), ws.trial.begin());
  ws.trial[m] = price;
  if (!evaluate_point(market, ws.trial, ws)) return -1.0;
  const double cap = market.params().msps[m].bandwidth_cap_mhz;
  return ws.sales[m] >= cap ? cap : ws.foc[m];
}

/// What the Newton stage spent and measured.
struct newton_stats {
  bool converged = false;
  std::size_t iterations = 0;   ///< Accepted Newton steps.
  std::size_t evaluations = 0;  ///< One per seller per evaluation.
  /// Norms ‖J⁻¹F‖∞ of the last two Newton steps.
  double last_step = 0.0;
  double prev_step = 0.0;
};

/// Active-set Newton on the sellers' best-response conditions, from
/// `prices` (updated in place). Every evaluated point reclassifies each
/// seller as interior, at its rationing kink, or at its price cap from the
/// KKT signs there (`classify`), so the step is semismooth Newton on
/// min(p_max − p, max(u, w·D − cap)) = 0. A step that would cross a price
/// cap pins that seller there; one that would cross unit cost is cut to
/// half the distance to it; every step must lower max|F| by the Armijo rule.
newton_stats newton_prices(const multi_msp_market& market,
                           std::vector<double>& prices, newton_workspace& ws) {
  constexpr std::size_t max_iterations = 24;
  constexpr std::size_t max_backtracks = 8;
  constexpr double armijo = 1e-4;
  // Newton converges quadratically: a point whose next step is this short
  // sits within ~step² of the root.
  constexpr double step_tol = 0.1 * solve_tol;
  const auto& msps = market.params().msps;
  const std::size_t count = msps.size();
  newton_stats stats;
  const auto evaluate = [&](std::span<const double> at) {
    stats.evaluations += count;
    if (!evaluate_point(market, at, ws)) return false;
    classify(market, at, ws);
    assemble(market, at, ws);
    return true;
  };

  // A warm start whose every seller is held at its price cap by its
  // KKT signs leaves no rows to solve: the stage stops before counting an
  // evaluation, and the dampened loop's first sweep verifies the caps.
  if (!evaluate_point(market, prices, ws)) return stats;
  classify(market, prices, ws);
  if (ws.k == 0) return stats;
  stats.evaluations += count;
  assemble(market, prices, ws);
  std::size_t measured = 0;
  bool holding = false;  // a seller sits on its cap against its KKT signs
  while (ws.k > 0) {
    const double phi = merit(ws);
    if (!newton_direction(ws)) return stats;
    // A step past a price cap pins that seller there. One below its cap
    // moves onto it, and the point is reclassified. One already on it is
    // held there and the step solved again without it; a solve that ends
    // holding one has not converged.
    bool moved = false;
    bool hold = false;
    for (std::size_t r = 0; r < ws.k; ++r) {
      const std::size_t m = ws.unknown[r];
      const double hi = msps[m].price_cap;
      if (prices[m] + ws.step[r] <= hi) continue;
      if (prices[m] < hi) {
        prices[m] = hi;
        moved = true;
      } else {
        ws.cls[m] = seller_class::capped;
        hold = true;
      }
    }
    if (moved) {
      if (++stats.iterations > max_iterations || !evaluate(prices))
        return stats;
      holding = false;
      continue;
    }
    if (hold) {
      holding = true;
      list_unknowns(ws);
      assemble(market, prices, ws);
      continue;
    }
    double longest = 0.0;
    for (std::size_t r = 0; r < ws.k; ++r)
      longest = std::max(longest, std::abs(ws.step[r]));
    stats.prev_step = stats.last_step;
    stats.last_step = longest;
    if (++measured >= 2 && longest <= step_tol) break;
    if (stats.iterations >= max_iterations) return stats;

    // A step past unit cost is cut to half the distance to it.
    double t = 1.0;
    std::fill(ws.move.begin(), ws.move.end(), 0.0);
    for (std::size_t r = 0; r < ws.k; ++r) {
      const std::size_t m = ws.unknown[r];
      const double lo = msps[m].unit_cost;
      ws.move[m] = ws.step[r];
      if (prices[m] + ws.step[r] < lo)
        t = std::min(t, 0.5 * (prices[m] - lo) / -ws.step[r]);
    }
    // The line search re-evaluates, and so reclassifies, at every trial.
    for (std::size_t backtrack = 0;; ++backtrack, t *= 0.5) {
      if (backtrack > max_backtracks) return stats;
      for (std::size_t m = 0; m < count; ++m)
        ws.trial[m] = prices[m] + t * ws.move[m];
      // A step already below the tolerance only measures the next defect;
      // max|F| sits at its rounding floor there, so it skips the test.
      if (evaluate(ws.trial) &&
          (longest <= step_tol || merit(ws) <= (1.0 - armijo * t) * phi))
        break;
    }
    prices.swap(ws.trial);
    ++stats.iterations;
    holding = false;
  }
  stats.converged = !holding;
  return stats;
}

/// Dampened simultaneous best response from `result.prices` (DESIGN.md §12);
/// adds its sweeps and objective calls to the counters already in `result`.
void dampened_best_response(const multi_msp_market& market,
                            multi_msp_equilibrium& result,
                            price_competition_scratch& scratch) {
  const auto& params = market.params();
  const std::size_t msps = market.msp_count();
  // Dampened simultaneous best response: every sweep computes all BR_m at
  // the current vector, then relaxes p ← p + θ(BR(p) − p). The residual
  // max_m |BR_m − p_m| is the fixed-point defect; its ratio across sweeps is
  // the empirical contraction factor q. When q stalls near 1 for two
  // consecutive sweeps (Edgeworth cycling under sharp λ + binding caps), θ
  // is halved — a deterministic bisection on the dampening factor — until
  // the iteration contracts again. When the iteration *is* contracting, the
  // update is Anderson(1)-accelerated: with defect f_k = BR(p_k) − p_k, the
  // mixing weight γ = <f_k, f_k − f_{k−1}> / ‖f_k − f_{k−1}‖² minimizes the
  // extrapolated defect, and p ← BR(p_k) − γ(BR(p_k) − BR(p_{k−1})) damps
  // the coupled cross-seller error modes a per-component rule would miss.
  //
  // Search cost control: each sweep's best responses are solved only to a
  // forcing tolerance proportional to the current defect (precision the
  // iterate cannot use yet is not paid for), and after the first sweep —
  // or immediately, on a warm start — each seller's search is bracketed
  // around its previous response (`best_response_local`), whose expansion
  // rule restores the full-range search whenever the bracket goes stale.
  constexpr double stall_ratio = 0.95;
  constexpr double theta_min = 1.0 / 64.0;
  double theta = theta_start;
  double prev_residual = std::numeric_limits<double>::infinity();
  double ratio = 0.0;
  std::size_t stalled = 0;
  auto& response = scratch.response;
  auto& prev_prices = scratch.prev_prices;
  auto& prev_response = scratch.prev_response;
  auto& center = scratch.center;
  auto& halfwidth = scratch.halfwidth;
  response.assign(msps, 0.0);
  prev_prices.assign(msps, 0.0);
  prev_response.assign(msps, 0.0);
  bool have_prev = false;
  center.assign(msps, 0.0);
  halfwidth.assign(msps, 0.0);
  bool local = result.warm_started;
  if (local) {
    // The warm prices sit near the previous fixed point, where they *are*
    // the best responses — a tight initial bracket around them.
    for (std::size_t m = 0; m < msps; ++m) {
      center[m] = result.prices[m];
      halfwidth[m] = (params.msps[m].price_cap - params.msps[m].unit_cost) /
                     warm_bracket_cells;
    }
  }

  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    const double inner =
        std::isinf(prev_residual)
            ? inner_cap
            : std::clamp(0.01 * prev_residual, inner_floor, inner_cap);
    double residual = 0.0;
    for (std::size_t m = 0; m < msps; ++m) {
      const auto br =
          local ? market.best_response_local(m, result.prices, center[m],
                                             halfwidth[m], inner)
                : market.best_response_to(m, result.prices, inner);
      response[m] = br.price;
      result.objective_evals += br.evaluations;
      residual = std::max(residual, std::abs(br.price - result.prices[m]));
    }
    ++result.iterations;
    ratio = std::isinf(prev_residual)
                ? 0.0
                : (prev_residual > 0.0 ? residual / prev_residual : 0.0);
    result.residual = residual;
    if (residual <= solve_tol) {
      // Land exactly on the best responses so the fixed point is exact up
      // to tol regardless of θ.
      result.prices = response;
      result.converged = true;
      break;
    }
    local = true;
    // Distinguish a cycle from a crawl: a non-shrinking residual only calls
    // for dampening when the defect *reverses direction* (Edgeworth
    // undercut-and-jump oscillation, ⟨f_k, f_{k−1}⟩ < 0). A monotone drift
    // at ratio ≈ 1 — e.g. best responses marching toward a corner
    // equilibrium at the price cap — must keep the full step, or halving θ
    // freezes it short of the fixed point.
    double defect_dot = 0.0;
    double num = 0.0;
    double den = 0.0;
    for (std::size_t m = 0; m < msps; ++m) {
      const double f = response[m] - result.prices[m];
      const double f_prev = prev_response[m] - prev_prices[m];
      const double df = f - f_prev;
      defect_dot += f * f_prev;
      num += f * df;
      den += df * df;
    }
    const bool cycling =
        have_prev && defect_dot < 0.0 && ratio >= stall_ratio;
    if (cycling) {
      if (++stalled >= 2 && theta > theta_min) {
        theta = std::max(theta_min, 0.5 * theta);
        stalled = 0;
      }
    } else {
      stalled = 0;
    }
    double gamma = 0.0;
    if (!cycling && have_prev && theta == theta_start && den > 1e-28)
      gamma = std::clamp(num / den, -2.0, 0.99);
    double max_step = 0.0;
    for (std::size_t m = 0; m < msps; ++m) {
      const double next =
          gamma != 0.0
              ? response[m] - gamma * (response[m] - prev_response[m])
              : result.prices[m] + theta * (response[m] - result.prices[m]);
      prev_prices[m] = result.prices[m];
      prev_response[m] = response[m];
      result.prices[m] = std::clamp(next, params.msps[m].unit_cost,
                                    params.msps[m].price_cap);
      max_step =
          std::max(max_step, std::abs(result.prices[m] - prev_prices[m]));
    }
    // Next sweep's search brackets: each best response sits near this
    // sweep's response, displaced by at most ~the largest price step (the
    // response map is 1-Lipschitz-ish in the rivals' prices); the 2× and
    // the 64·inner floor absorb the slack, and `best_response_local`'s
    // expansion rule covers the exceptions.
    for (std::size_t m = 0; m < msps; ++m) {
      center[m] = response[m];
      halfwidth[m] = 1.5 * max_step + 16.0 * inner;
    }
    have_prev = true;
    prev_residual = residual;
  }

  result.damping = theta;
  certify(result, ratio);
}

}  // namespace

void price_competition_scratch::newton_workspace::reset(std::size_t msps) {
  cls.assign(msps, seller_class::interior);
  p_eff = 0.0;
  demand = {};
  w.assign(msps, 0.0);
  dp_eff.assign(msps, 0.0);
  sales.assign(msps, 0.0);
  foc.assign(msps, 0.0);
  k = 0;
  unknown.assign(msps, 0);
  residual.assign(msps, 0.0);
  jacobian.assign(msps * msps, 0.0);
  step.assign(msps, 0.0);
  move.assign(msps, 0.0);
  trial.assign(msps, 0.0);
}

multi_msp_equilibrium solve_price_competition(
    const multi_msp_market& market, const price_competition_options& options) {
  multi_msp_equilibrium result;
  price_competition_scratch scratch;
  solve_price_competition(market, options, result, scratch);
  return result;
}

void solve_price_competition(const multi_msp_market& market,
                             const price_competition_options& options,
                             multi_msp_equilibrium& result,
                             price_competition_scratch& scratch) {
  VTM_EXPECTS(options.warm_start.empty() ||
              options.warm_start.size() == market.msp_count());
  const auto& params = market.params();
  const std::size_t msps = market.msp_count();

  // Every field back to its default, the vectors' buffers kept.
  std::vector<double> prices_buffer = std::move(result.prices);
  std::vector<double> sales_buffer = std::move(result.sales);
  std::vector<double> utilities_buffer = std::move(result.utilities);
  result = multi_msp_equilibrium{};
  result.prices = std::move(prices_buffer);
  result.sales = std::move(sales_buffer);
  result.utilities = std::move(utilities_buffer);

  result.prices.resize(msps);
  if (options.warm_start.empty()) {
    // Cold start from each MSP's cap midpoint (any interior point works);
    // this is the bitwise-stable path for the first clearing of a run.
    for (std::size_t m = 0; m < msps; ++m)
      result.prices[m] =
          0.5 * (params.msps[m].unit_cost + params.msps[m].price_cap);
  } else {
    result.warm_started = true;
    for (std::size_t m = 0; m < msps; ++m)
      result.prices[m] = std::clamp(options.warm_start[m],
                                    params.msps[m].unit_cost,
                                    params.msps[m].price_cap);
  }

  // Newton stage: a warm start sits next to the new fixed point, where
  // Newton converges quadratically. Cold starts and M = 1 stay on the
  // dampened loop, and so does a warm start that already holds every free
  // seller at its price cap; so these solves stay bitwise the loop's.
  if (result.warm_started && msps >= 2) {
    newton_workspace& ws = scratch.newton;
    ws.reset(msps);
    std::vector<double>& prices = scratch.iterate;
    prices = result.prices;
    const auto stats = newton_prices(market, prices, ws);
    result.objective_evals += stats.evaluations;
    if (stats.converged) {
      // Verification sweep. First the edges of the bracket the dampened
      // loop's first warm sweep searches, (p_max − C)/47 around each Newton
      // price: a profit still rising past the right edge, or already falling
      // at the left one, means another local maximum lies beyond, which that
      // sweep would chase, so Newton's local answer is not trusted. Then
      // every seller's best response, searched in a tight bracket
      // around its Newton price, must sit within tol of it.
      const double inner =
          std::clamp(0.01 * solve_tol, inner_floor, inner_cap);
      const auto slope_at = [&](std::size_t m, double price) {
        ++result.objective_evals;
        return profit_slope(market, prices, m, price, ws);
      };
      std::vector<double>& response = scratch.response;
      response = prices;
      double defect = 0.0;
      for (std::size_t m = 0; m < msps && defect <= solve_tol; ++m) {
        const double lo = params.msps[m].unit_cost;
        const double hi = params.msps[m].price_cap;
        const double reach = (hi - lo) / warm_bracket_cells;
        if ((prices[m] - reach > lo && slope_at(m, prices[m] - reach) < 0.0) ||
            (prices[m] + reach < hi && slope_at(m, prices[m] + reach) > 0.0)) {
          defect = std::numeric_limits<double>::infinity();
          break;
        }
        const auto br = market.best_response_local(m, prices, prices[m],
                                                   16.0 * inner, inner);
        response[m] = br.price;
        result.objective_evals += br.evaluations;
        defect = std::max(defect, std::abs(br.price - prices[m]));
      }
      ++result.iterations;
      if (defect <= solve_tol) {
        result.prices = response;
        result.converged = true;
        result.residual = defect;
        result.damping = theta_start;
        result.newton_iterations = stats.iterations;
        certify(result, stats.prev_step > 0.0
                            ? stats.last_step / stats.prev_step
                            : 0.0);
      }
    }
  }
  // Fallback (and the only path for cold starts): the dampened loop from
  // the original warm start, as if Newton had not been tried.
  if (!result.converged)
    dampened_best_response(market, result, scratch);

  // Equilibrium summary: one softmin pass, then the per-VMU demand loop at
  // the effective price — the same arithmetic `msp_sales`/`msp_utilities`/
  // `effective_price` perform, without recomputing the shares per call.
  auto& w = scratch.shares;
  market.shares_into(result.prices, w);
  double p_eff = 0.0;
  for (std::size_t m = 0; m < msps; ++m) p_eff += w[m] * result.prices[m];
  result.effective_price = p_eff;
  double cohort_demand = 0.0;
  for (std::size_t n = 0; n < market.vmu_count(); ++n)
    cohort_demand += market.vmu_demand_at(n, p_eff);
  result.sales.resize(msps);
  result.utilities.resize(msps);
  for (std::size_t m = 0; m < msps; ++m) {
    result.sales[m] =
        std::min(w[m] * cohort_demand, params.msps[m].bandwidth_cap_mhz);
    result.utilities[m] =
        (result.prices[m] - params.msps[m].unit_cost) * result.sales[m];
    result.total_demand += result.sales[m];
  }

  // Total VMU utility at the effective price (immersion minus payment).
  const double r = market.spectral_efficiency();
  for (std::size_t n = 0; n < market.vmu_count(); ++n) {
    const double b = market.vmu_demand_at(n, p_eff);
    if (b <= 0.0) continue;
    const auto& vmu = params.vmus[n];
    const double aotm = vmu.data_mb / (b * r);
    result.total_vmu_utility +=
        vmu.alpha * std::log(1.0 + 1.0 / aotm) - p_eff * b;
  }
}

}  // namespace vtm::core
