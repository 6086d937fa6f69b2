// Epoch-based joint spot market for concurrent VT migrations.
//
// The paper's Stackelberg game is an N-follower market: the MSP's equilibrium
// price depends on *every* VMU migrating concurrently (eq. 8–13). This module
// is the clearing engine behind that semantics: handover requests accumulate
// in a pending book, and each clearing event prices the whole cohort as one
// N-follower market over the destination pool's *remaining* capacity, using
// `solve_equilibrium` (so rationing is the market's proportional rule).
//
// The price comes from one of two sources. With no pricer attached the book
// is priced by the analytic oracle, in place: the pending profiles feed
// `solve_price` — the solve behind `solve_equilibrium`, bitwise — over a
// link budget built once per pool, and the rationed demands and utilities
// land in per-market scratch. An attached `learned_pricer` instead posts its
// price from the cohort's partial-information observation. Either way the
// followers best-respond through the market, so the grant invariants
// (Σ b <= remainder, price in the box) hold for any pricer.
//
// The engine that owns the pool decides *when* to clear (epoch boundaries,
// migration completions); this class only prices and partitions the book.
// After warm-up an oracle clearing allocates nothing: the book, the scratch
// and the returned outcome keep their capacity from call to call.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/equilibrium.hpp"
#include "core/market.hpp"
#include "core/pricing_policy.hpp"
#include "wireless/link.hpp"

namespace vtm::util {
class trace_lane;
}  // namespace vtm::util

namespace vtm::core {

/// A VMU waiting for migration bandwidth at a destination RSU.
struct clearing_request {
  std::size_t vehicle = 0;
  vmu_profile profile{};
  std::size_t from_rsu = 0;   ///< RSU currently hosting the twin.
  std::size_t to_rsu = 0;     ///< Destination (the vehicle's serving RSU).
  double submitted_s = 0.0;   ///< Handover time (for wait accounting).
};

/// One granted migration out of a clearing.
struct clearing_grant {
  clearing_request request;
  double price = 0.0;          ///< Equilibrium unit price of its market.
  double bandwidth_mhz = 0.0;  ///< Rationed allocation b*_n.
  double vmu_utility = 0.0;    ///< U_n at the equilibrium.
  double msp_utility = 0.0;    ///< This follower's share (p − C)·b*_n of U_s.
  std::size_t cohort = 1;      ///< Followers in the market that priced it.
  equilibrium_regime regime = equilibrium_regime::interior;
};

/// Outcome of one clearing event. Granted and priced-out requests leave the
/// pending book; deferred ones stay for the next clearing.
struct clearing_outcome {
  std::vector<clearing_grant> grants;
  std::vector<clearing_request> priced_out;  ///< b* = 0: handover, no move.
  std::size_t deferred = 0;        ///< Requests left pending this clearing.
  std::size_t markets_cleared = 0; ///< Equilibria solved (0 or 1).
  double price = 0.0;              ///< Price of the market solved.
};

/// Economics shared by every clearing of one pool.
struct spot_market_config {
  wireless::link_params link{};  ///< Source→destination RSU channel.
  double unit_cost = 5.0;        ///< C — MSP's unit transmission cost.
  double price_cap = 50.0;       ///< p_max.
  util::megahertz min_clearable_mhz{0.5};  ///< Below this, defer instead.
  /// Learned price source; null selects the analytic oracle, priced in
  /// place. Shared so one pricer can serve every pool of a fleet run.
  std::shared_ptr<const learned_pricer> pricer;
  /// Nominal pool capacity anchoring observation normalization (<= 0 falls
  /// back to the clearing's available bandwidth).
  util::megahertz pool_capacity_mhz{0.0};
  /// Telemetry lane for per-clearing spans ("market.clear" with cohort /
  /// grant-count args). Null disables; the lane never influences clearing
  /// results and must outlive the market.
  util::trace_lane* trace = nullptr;
};

/// Pending-request book + clearing logic for one bandwidth pool.
class spot_market {
 public:
  explicit spot_market(spot_market_config config);

  [[nodiscard]] const spot_market_config& config() const noexcept {
    return config_;
  }

  /// Add a request to the book (FIFO order is the tie-break everywhere).
  void submit(clearing_request request);

  /// Requests currently waiting for a clearing.
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }

  /// Mutable view of the book so the owner can retarget deferred requests
  /// (e.g. the vehicle crossed another boundary while waiting).
  [[nodiscard]] std::vector<clearing_request>& pending_requests() noexcept {
    return pending_;
  }

  /// Price the whole book as one N-follower market against `available_mhz`
  /// of remaining pool capacity. Granted and priced-out requests are
  /// removed; deferred ones remain. Grant bandwidths always sum to
  /// <= available_mhz. The outcome lives in the market and is reused: the
  /// reference is valid until the next `clear()` or `abandon_pending()`.
  [[nodiscard]] const clearing_outcome& clear(double available_mhz);

  /// Drop every pending request (end of run, nothing can serve them).
  /// Returns the dropped requests.
  [[nodiscard]] std::vector<clearing_request> abandon_pending();

 private:
  /// Split the book at the cleared price: priced-out, granted (FIFO clamp
  /// to the remainder), or kept pending. `demands` and `utilities` hold one
  /// entry per pending request.
  void partition(double price, equilibrium_regime regime,
                 std::span<const double> demands,
                 std::span<const double> utilities, double available_mhz);

  spot_market_config config_;
  wireless::link_budget budget_;  ///< R of `config_.link`, built once.
  std::vector<clearing_request> pending_;
  clearing_outcome outcome_;  ///< Returned by `clear`, reused every call.
  // Oracle scratch, one entry per pending request.
  std::vector<follower_terms> followers_;
  std::vector<double> demands_;
  std::vector<double> utilities_;
};

}  // namespace vtm::core
