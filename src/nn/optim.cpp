#include "nn/optim.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace vtm::nn {

adam::adam(std::vector<variable> params, double lr, double beta1, double beta2,
           double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  VTM_EXPECTS(lr > 0.0);
  VTM_EXPECTS(beta1 >= 0.0 && beta1 < 1.0);
  VTM_EXPECTS(beta2 >= 0.0 && beta2 < 1.0);
  VTM_EXPECTS(eps > 0.0);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    VTM_EXPECTS(p.valid());
    VTM_EXPECTS(p.requires_grad());
    m_.emplace_back(p.value().dims());
    v_.emplace_back(p.value().dims());
  }
}

void adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    tensor value = params_[i].value();
    const tensor& grad = params_[i].grad();
    for (std::size_t j = 0; j < value.size(); ++j) {
      const double g = grad.flat()[j];
      double& m = m_[i].flat()[j];
      double& v = v_[i].flat()[j];
      m = beta1_ * m + (1.0 - beta1_) * g;
      v = beta2_ * v + (1.0 - beta2_) * g * g;
      const double m_hat = m / bc1;
      const double v_hat = v / bc2;
      value.flat()[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
    params_[i].set_value(std::move(value));
  }
  zero_grad();
}

void adam::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

double clip_grad_norm(const std::vector<variable>& params, double max_norm) {
  VTM_EXPECTS(max_norm > 0.0);
  double sq = 0.0;
  for (const auto& p : params)
    for (double g : p.grad().flat()) sq += g * g;
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (const auto& p : params) {
      tensor scaled = p.grad() * scale;
      variable mutable_p = p;
      mutable_p.zero_grad();
      mutable_p.accumulate_grad(scaled);
    }
  }
  return norm;
}

}  // namespace vtm::nn
