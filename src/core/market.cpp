#include "core/market.hpp"

#include <cmath>

#include "core/aotm.hpp"
#include "util/contracts.hpp"

namespace vtm::core {

void ration_demands(std::span<const follower_terms> followers, double price,
                    double cap_mhz, std::span<double> out) {
  VTM_EXPECTS(out.size() == followers.size());
  VTM_EXPECTS(price > 0.0);
  double total = 0.0;
  for (std::size_t n = 0; n < followers.size(); ++n) {
    out[n] = best_response(followers[n], price);
    total += out[n];
  }
  if (total > cap_mhz && total > 0.0) {
    const double scale = cap_mhz / total;
    for (double& b : out) b *= scale;
  }
}

double vmu_utility(const vmu_profile& vmu, double spectral_efficiency,
                   double bandwidth_mhz, double price) {
  VTM_EXPECTS(bandwidth_mhz >= 0.0);
  if (bandwidth_mhz == 0.0) return 0.0;
  const double gain = immersion(
      vmu.alpha,
      aotm_closed_form(vmu.data_mb, bandwidth_mhz, spectral_efficiency));
  return gain - price * bandwidth_mhz;
}

migration_market::migration_market(market_params params)
    : params_(std::move(params)), link_(params_.link) {
  VTM_EXPECTS(!params_.vmus.empty());
  VTM_EXPECTS(params_.bandwidth_cap_mhz.value() > 0.0);
  VTM_EXPECTS(params_.unit_cost > 0.0);
  VTM_EXPECTS(params_.price_cap >= params_.unit_cost);
  for (const auto& vmu : params_.vmus) {
    VTM_EXPECTS(vmu.alpha > 0.0);
    VTM_EXPECTS(vmu.data_mb > 0.0);
  }
  VTM_ENSURES(link_.spectral_efficiency() > 0.0);
  followers_.reserve(params_.vmus.size());
  for (const auto& vmu : params_.vmus)
    followers_.push_back(make_follower(vmu, spectral_efficiency()));
}

double migration_market::kappa(std::size_t n) const {
  VTM_EXPECTS(n < vmu_count());
  return followers_[n].kappa;
}

double migration_market::best_response(std::size_t n, double price) const {
  VTM_EXPECTS(n < vmu_count());
  VTM_EXPECTS(price > 0.0);
  return core::best_response(followers_[n], price);
}

std::vector<double> migration_market::unconstrained_demands(
    double price) const {
  std::vector<double> out(vmu_count());
  for (std::size_t n = 0; n < vmu_count(); ++n)
    out[n] = best_response(n, price);
  return out;
}

std::vector<double> migration_market::demands(double price) const {
  std::vector<double> out(vmu_count());
  ration_demands(followers_, price, params_.bandwidth_cap_mhz.value(), out);
  return out;
}

double migration_market::aotm(std::size_t n, double bandwidth_mhz) const {
  VTM_EXPECTS(n < vmu_count());
  return aotm_closed_form(params_.vmus[n].data_mb, bandwidth_mhz,
                          spectral_efficiency());
}

double migration_market::vmu_utility(std::size_t n, double bandwidth_mhz,
                                     double price) const {
  VTM_EXPECTS(n < vmu_count());
  return core::vmu_utility(params_.vmus[n], spectral_efficiency(),
                           bandwidth_mhz, price);
}

double migration_market::leader_utility(
    double price, std::span<const double> demands) const {
  VTM_EXPECTS(demands.size() == vmu_count());
  double total = 0.0;
  for (double b : demands) {
    VTM_EXPECTS(b >= 0.0);
    total += b;
  }
  return (price - params_.unit_cost) * total;
}

double migration_market::leader_utility(double price) const {
  const auto allocation = demands(price);
  return leader_utility(price, allocation);
}

double migration_market::total_demand(double price) const {
  double total = 0.0;
  for (double b : demands(price)) total += b;
  return total;
}

double migration_market::total_vmu_utility(double price) const {
  const auto allocation = demands(price);
  double total = 0.0;
  for (std::size_t n = 0; n < vmu_count(); ++n)
    total += vmu_utility(n, allocation[n], price);
  return total;
}

}  // namespace vtm::core
