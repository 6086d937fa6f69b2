#include "nn/layers.hpp"

#include <cmath>

#include "nn/fastmath.hpp"
#include "nn/init.hpp"
#include "util/contracts.hpp"

namespace vtm::nn {

variable apply_activation(const variable& x, activation act) {
  switch (act) {
    case activation::identity:
      return x;
    case activation::tanh:
      return tanh(x);
    case activation::relu:
      return relu(x);
    case activation::sigmoid:
      return sigmoid(x);
  }
  VTM_ASSERT(false);
}

void apply_activation_values(tensor& x, activation act, math_mode mode) {
  switch (act) {
    case activation::identity:
      return;
    case activation::tanh:
      if (mode == math_mode::fast) {
        fast_tanh_inplace(x);
      } else {
        for (double& v : x.flat()) v = std::tanh(v);
      }
      return;
    case activation::relu:
      for (double& v : x.flat()) v = v > 0.0 ? v : 0.0;
      return;
    case activation::sigmoid:
      for (double& v : x.flat()) v = 1.0 / (1.0 + std::exp(-v));
      return;
  }
  VTM_ASSERT(false);
}

linear::linear(std::size_t in, std::size_t out, util::rng& gen, double gain)
    : in_(in),
      weight_(variable::parameter(orthogonal({in, out}, gen, gain))),
      bias_(variable::parameter(zeros({1, out}))) {
  VTM_EXPECTS(in > 0 && out > 0);
}

variable linear::forward(const variable& x) const {
  VTM_EXPECTS(x.dims().cols == in_);
  return add_rowvec(matmul(x, weight_), bias_);
}

tensor linear::forward_values(const tensor& x) const {
  VTM_EXPECTS(x.cols() == in_);
  tensor out = x.matmul(weight_.value());
  const tensor& b = bias_.value();
  for (std::size_t r = 0; r < out.rows(); ++r)
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += b(0, c);
  return out;
}

std::vector<variable> linear::parameters() const { return {weight_, bias_}; }

mlp::mlp(const std::vector<std::size_t>& sizes, activation hidden_act,
         util::rng& gen, double out_gain)
    : hidden_act_(hidden_act) {
  VTM_EXPECTS(sizes.size() >= 2);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    const bool is_output = (i + 2 == sizes.size());
    // sqrt(2) gain for hidden layers (relu/tanh convention), custom for head.
    const double gain = is_output ? out_gain : std::sqrt(2.0);
    layers_.emplace_back(sizes[i], sizes[i + 1], gen, gain);
  }
}

variable mlp::forward(const variable& x) const {
  variable h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].forward(h);
    if (i + 1 < layers_.size()) h = apply_activation(h, hidden_act_);
  }
  return h;
}

tensor mlp::forward_values(const tensor& x, math_mode mode) const {
  tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].forward_values(h);
    if (i + 1 < layers_.size()) apply_activation_values(h, hidden_act_, mode);
  }
  return h;
}

std::vector<variable> mlp::parameters() const {
  std::vector<variable> params;
  for (const auto& layer : layers_) {
    auto p = layer.parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

const linear& mlp::layer(std::size_t i) const {
  VTM_EXPECTS(i < layers_.size());
  return layers_[i];
}

std::size_t parameter_count(const std::vector<variable>& params) {
  std::size_t n = 0;
  for (const auto& p : params) n += p.value().size();
  return n;
}

}  // namespace vtm::nn
