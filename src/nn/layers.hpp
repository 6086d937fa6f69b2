// Neural-network building blocks on top of the autograd tape.
//
// A layer owns `variable::parameter` leaves and exposes forward() that builds
// graph nodes. `parameters()` hands the trainable leaves to an optimizer.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/autograd.hpp"
#include "util/rng.hpp"

namespace vtm::nn {

/// Activation functions selectable per layer.
enum class activation { identity, tanh, relu, sigmoid };

/// Apply an activation as a graph op.
[[nodiscard]] variable apply_activation(const variable& x, activation act);

/// Transcendental precision of graph-free inference forwards.
/// `exact` reproduces the autograd ops bit for bit (std::tanh et al.);
/// `fast` substitutes nn/fastmath approximations on the rollout hot path.
enum class math_mode { exact, fast };

/// Apply an activation in place on a plain tensor (no graph).
void apply_activation_values(tensor& x, activation act,
                             math_mode mode = math_mode::exact);

/// Affine layer y = x·W + b with W: in x out, b: 1 x out.
class linear {
 public:
  /// Initialize with orthogonal weights (given gain) and zero bias.
  linear(std::size_t in, std::size_t out, util::rng& gen, double gain = 1.0);

  /// Forward pass; x is batch x in, result is batch x out.
  [[nodiscard]] variable forward(const variable& x) const;

  /// Graph-free forward on plain tensors. Bitwise-identical to
  /// forward(...).value() (same matmul and bias-add order) without building
  /// autograd nodes — the rollout inference hot path.
  [[nodiscard]] tensor forward_values(const tensor& x) const;

  /// Trainable leaves: {W, b}.
  [[nodiscard]] std::vector<variable> parameters() const;

  /// Direct access for serialization.
  [[nodiscard]] const variable& weight() const noexcept { return weight_; }
  [[nodiscard]] const variable& bias() const noexcept { return bias_; }

 private:
  std::size_t in_;
  variable weight_;
  variable bias_;
};

/// Multi-layer perceptron: hidden layers with a shared activation plus an
/// identity-activated output layer (the PPO heads apply their own transforms).
class mlp {
 public:
  /// `sizes` = {in, h1, ..., out}; requires at least in and out.
  /// `hidden_act` applies to all but the last affine layer. `out_gain`
  /// scales the output layer's orthogonal init (PPO uses small policy gains).
  mlp(const std::vector<std::size_t>& sizes, activation hidden_act,
      util::rng& gen, double out_gain = 1.0);

  /// Forward pass; x is batch x in.
  [[nodiscard]] variable forward(const variable& x) const;

  /// Graph-free forward on plain tensors; `mode` selects the activation
  /// precision (exact is bitwise-identical to forward(...).value()).
  [[nodiscard]] tensor forward_values(const tensor& x,
                                      math_mode mode = math_mode::exact) const;

  /// All trainable leaves, layer by layer.
  [[nodiscard]] std::vector<variable> parameters() const;

  /// Number of affine layers.
  [[nodiscard]] std::size_t depth() const noexcept { return layers_.size(); }

  /// Access to an individual affine layer.
  [[nodiscard]] const linear& layer(std::size_t i) const;

 private:
  std::vector<linear> layers_;
  activation hidden_act_;
};

/// Total number of scalar parameters across a parameter list.
[[nodiscard]] std::size_t parameter_count(const std::vector<variable>& params);

}  // namespace vtm::nn
