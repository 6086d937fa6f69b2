// Statistical evaluation of the learning mechanism across seeds.
//
// The paper reports single training runs; a downstream user needs to know the
// variance. `evaluate_robustness` trains across independent seeds and reports
// optimality statistics plus the episode at which each run first reached 95%
// of the oracle utility (its "convergence episode").
#pragma once

#include <cstdint>
#include <vector>

#include "core/equilibrium.hpp"
#include "core/mechanism.hpp"

namespace vtm::core {

/// Outcome of one seeded training run.
struct seed_outcome {
  std::uint64_t seed = 0;
  double optimality = 0.0;        ///< Final deterministic eval / oracle.
  double learned_price = 0.0;
  double final_return = 0.0;      ///< Episode return of the last episode.
  std::size_t convergence_episode = 0;  ///< First episode with 10-episode
                                        ///< mean utility >= 95% of oracle
                                        ///< (== episode count if never).
};

/// Aggregate statistics over the seeds.
struct robustness_report {
  equilibrium oracle;
  std::vector<seed_outcome> outcomes;
  double mean_optimality = 0.0;
  double std_optimality = 0.0;
  double min_optimality = 0.0;
  double mean_convergence_episode = 0.0;
};

/// Train `n_seeds` independent runs (base.seed + i) and aggregate.
/// Requires n_seeds >= 1.
[[nodiscard]] robustness_report evaluate_robustness(
    const market_params& params, const mechanism_config& base,
    std::size_t n_seeds);

}  // namespace vtm::core
