#include "core/evaluation.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace vtm::core {

namespace {

std::size_t convergence_episode(const std::vector<rl::episode_stats>& history,
                                double oracle_utility) {
  const double target = 0.95 * oracle_utility;
  std::vector<double> utilities;
  utilities.reserve(history.size());
  for (const auto& episode : history)
    utilities.push_back(episode.mean_utility);
  const auto smoothed = util::moving_average(utilities, 10);
  for (std::size_t e = 0; e < smoothed.size(); ++e)
    if (smoothed[e] >= target) return e;
  return history.size();
}

}  // namespace

robustness_report evaluate_robustness(const market_params& params,
                                      const mechanism_config& base,
                                      std::size_t n_seeds) {
  VTM_EXPECTS(n_seeds >= 1);
  robustness_report report;
  report.oracle = solve_equilibrium(migration_market(params));
  report.min_optimality = 1e300;

  util::running_stats optimality_stats;
  util::running_stats convergence_stats;
  for (std::size_t i = 0; i < n_seeds; ++i) {
    mechanism_config config = base;
    config.seed = base.seed + 1000 * (i + 1);
    const auto result = run_learning_mechanism(params, config);

    seed_outcome outcome;
    outcome.seed = config.seed;
    outcome.optimality = result.optimality();
    outcome.learned_price = result.learned_price;
    outcome.final_return = result.history.back().episode_return;
    outcome.convergence_episode =
        convergence_episode(result.history, report.oracle.leader_utility);
    report.outcomes.push_back(outcome);

    optimality_stats.push(outcome.optimality);
    convergence_stats.push(static_cast<double>(outcome.convergence_episode));
    report.min_optimality =
        std::min(report.min_optimality, outcome.optimality);
  }
  report.mean_optimality = optimality_stats.mean();
  report.std_optimality = optimality_stats.stddev();
  report.mean_convergence_episode = convergence_stats.mean();
  return report;
}

}  // namespace vtm::core
