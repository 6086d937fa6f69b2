// The first-order optimizer over a list of parameter variables.
//
// Adam reads each parameter's grad() and updates its value in place; step()
// then clears the gradients so the next backward pass starts fresh.
#pragma once

#include <vector>

#include "nn/autograd.hpp"

namespace vtm::nn {

/// Adam (Kingma & Ba 2015) with bias correction.
class adam {
 public:
  /// Requires trainable parameters, lr > 0, betas in [0,1), eps > 0.
  adam(std::vector<variable> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);

  /// Apply one update using the parameters' current gradients, then zero
  /// them.
  void step();

  /// Zero all parameter gradients without updating.
  void zero_grad();

  /// Number of steps taken (bias-correction exponent).
  [[nodiscard]] std::size_t steps() const noexcept { return t_; }

 private:
  std::vector<variable> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  std::size_t t_ = 0;
  std::vector<tensor> m_;
  std::vector<tensor> v_;
};

/// Scale gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clipping norm. Requires max_norm > 0.
double clip_grad_norm(const std::vector<variable>& params, double max_norm);

}  // namespace vtm::nn
