// Shared configuration and reporting helpers for the figure benches.
//
// Every bench prints (a) a provenance header, (b) machine-readable CSV rows,
// and (c) an ASCII table/chart of the series so the figure's *shape* is
// visible in a terminal. Paper-vs-measured numbers land in EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "core/market.hpp"
#include "core/mechanism.hpp"

namespace vtm::bench {

/// The Fig. 2 / Fig. 3(a,b) market: two VMUs, α = (5, 5)·100 (unit
/// calibration, DESIGN.md §3), D = (200, 100) MB, C as given.
inline core::market_params two_vmu_market(double unit_cost = 5.0) {
  core::market_params params;
  params.vmus = {{500.0, 200.0}, {500.0, 100.0}};
  params.unit_cost = unit_cost;
  return params;
}

/// The Fig. 3(c,d) market: N identical VMUs with α = 5·100, D = 100 MB.
inline core::market_params n_vmu_market(std::size_t n_vmus) {
  core::market_params params;
  params.vmus.assign(n_vmus, core::vmu_profile{500.0, 100.0});
  return params;
}

/// Mechanism configuration used by the sweep benches. The paper's Algorithm-1
/// budget is E=500, K=100, |I|=20, M=10 with lr=1e-5; we keep the structure
/// and raise the learning rate to 3e-4 (documented substitution: our
/// from-scratch Adam + normalized observations converge in a fraction of the
/// episode budget, and the learned policy lands on the same equilibrium, see
/// bench/fig2_convergence for both rates). Sweeps collect rollouts through
/// the batched engine (B = 4 vector_env replicas, fast-math sampling,
/// DESIGN.md §7) — same E·K interaction budget, ~4x the wall-clock
/// throughput, and the learned price still lands on the equilibrium.
inline core::mechanism_config sweep_mechanism_config(std::uint64_t seed,
                                                     std::size_t num_envs = 4) {
  core::mechanism_config config;
  config.trainer.episodes = 300;
  config.ppo.learning_rate = 3e-4;
  config.seed = seed;
  config.rollout.num_envs = num_envs;
  config.trainer.fast_rollout = num_envs > 1;
  return config;
}

/// Paper's display convention: utilities are plotted in units of 100.
inline double display_units(double utility) { return utility / 100.0; }

/// Bench banner with the paper artifact being regenerated.
inline void print_header(const std::string& figure,
                         const std::string& description) {
  std::printf("=============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("Paper: Learning-based Incentive Mechanism for Task "
              "Freshness-aware Vehicular Twin Migration (ICDCS 2023)\n");
  std::printf("=============================================================\n");
}

}  // namespace vtm::bench
