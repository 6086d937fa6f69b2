// Competitive spot market: M MSPs clearing one epoch cohort (§VI future work).
//
// The monopoly engine prices every clearing through one seller
// (`core::spot_market`). This module is the oligopoly counterpart behind
// `market_mode::oligopoly`: the same pending book of handover requests, but
// each clearing runs the cohort through `core::multi_msp_market` price
// competition — every MSP posts a price (best-response fixed point of the
// softmin-Bertrand game, warm-started from this book's previous clearing),
// VMUs split their purchase across
// sellers with the softmin share rule, and each MSP's sales are rationed to
// its *own* remaining pool capacity. A VMU whose rationed total rounds to
// zero defers back into the book (capacity in flight re-clears it), exactly
// like the monopoly deferral discipline, so the two engines share accounting
// semantics.
//
// A market needs at least two sellers: one seller is the monopoly, which
// `core::spot_market` clears (`market_mode::joint`).
//
// Each book keeps one `multi_msp_market`, rebuilt in place over every
// clearing's cohort, and solves on reused solver scratch; the book compacts
// in place and the outcome is reused. After warm-up a clearing allocates
// nothing.
//
// DESIGN.md §11 documents the clearing discipline, the seller-split
// semantics, and the shard interaction.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/multi_msp.hpp"
#include "core/spot_market.hpp"

namespace vtm::core {

/// One competing MSP of a fleet-scale oligopoly: its economics plus the
/// placement of its RSU chain relative to the road's RSUs along its one
/// route. Offsets model independently-deployed infrastructure along the same
/// highway: a shifted chain resolves its own serving RSU per location, so
/// neighbouring clearing books can contend for one of this MSP's pools.
struct fleet_msp {
  util::meters chain_offset_m{0.0};  ///< Shift of this MSP's RSU centres.
  double unit_cost = 5.0;            ///< C_m.
  double price_cap = 50.0;           ///< p_max,m.
  util::megahertz bandwidth_per_pool_mhz{50.0};  ///< Capacity of its pools.
};

/// One seller's share of a competitive grant.
struct seller_slice {
  std::size_t msp = 0;         ///< Seller index into the MSP roster.
  double bandwidth_mhz = 0.0;  ///< Bandwidth bought from this seller.
  double price = 0.0;          ///< That seller's posted unit price.
  /// Realized seller profit (price − C_m)·bandwidth, rounded exactly once at
  /// clearing time. Per-seller accounting must accrue *this* value — not
  /// recompute the product — so that Σ slice.utility reproduces the grant's
  /// `msp_utility` bitwise under any FP-contraction flags (-march=native
  /// fuses a recomputed multiply-add into an FMA, which rounds differently).
  double utility = 0.0;
};

/// One granted migration out of an oligopoly clearing. The grant totals are
/// what the migration machinery consumes (bandwidth, effective price, both
/// sides' utilities); `slices` is the per-seller split the pools and the
/// per-MSP accounting need.
struct competitive_grant {
  clearing_request request;
  double bandwidth_mhz = 0.0;  ///< Σ over slices.
  double price = 0.0;          ///< Effective unit price (payment / bandwidth).
  double vmu_utility = 0.0;    ///< α ln(1 + bR/D) − payment.
  double msp_utility = 0.0;    ///< Σ_m (p_m − C_m)·slice_m.
  std::size_t cohort = 1;      ///< Requests priced together in this clearing.
  std::vector<seller_slice> slices;  ///< Per-seller split.
};

/// Outcome of one oligopoly clearing event. Mirrors `clearing_outcome`:
/// granted and priced-out requests leave the book, deferred ones stay.
struct competitive_outcome {
  std::vector<competitive_grant> grants;
  std::vector<clearing_request> priced_out;  ///< b* = 0 at the eff. price.
  std::size_t deferred = 0;
  std::size_t markets_cleared = 0;  ///< 0 or 1 (the cohort is one market).
  std::vector<double> prices;       ///< Posted price per participating MSP
                                    ///< (roster-indexed; 0 = sat out).
  bool converged = true;            ///< Best-response fixed point converged.
  bool certified = true;     ///< Convergence certificate valid (q < 1).
  bool warm_started = false; ///< Solve started from the previous clearing.
  std::size_t solver_sweeps = 0;    ///< Best-response sweeps spent.
  std::size_t objective_evals = 0;  ///< Objective calls of the solve.
  /// Final best-response residual of the fixed-point solve.
  double residual = 0.0;
};

/// Economics shared by every clearing of one destination cell's book.
struct competitive_market_config {
  std::vector<fleet_msp> msps;    ///< The roster (M >= 2).
  double share_sharpness = 0.25;  ///< λ of the softmin share rule (finite).
  wireless::link_params link{};   ///< Demand-side migration channel.
  util::megahertz min_clearable_mhz{0.5};  ///< Below this an MSP sits out.
  /// Telemetry lane for per-clearing spans ("comarket.clear" carrying the
  /// convergence certificate: sweeps, objective evals, Newton iterations —
  /// 0 when the dampened loop priced the clearing — residual, warm start).
  /// Null disables; never influences clearing results.
  util::trace_lane* trace = nullptr;
};

/// Pending-request book + oligopoly clearing logic for one destination cell.
class competitive_market {
 public:
  explicit competitive_market(competitive_market_config config);

  [[nodiscard]] const competitive_market_config& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t msp_count() const noexcept {
    return config_.msps.size();
  }

  /// Add a request to the book (FIFO order is the tie-break everywhere).
  void submit(clearing_request request);

  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }

  /// Mutable view of the book so the owner can retarget deferred requests.
  [[nodiscard]] std::vector<clearing_request>& pending_requests() noexcept {
    return pending_;
  }

  /// Price the book against each MSP's remaining pool capacity
  /// (`available_mhz[m]`, one entry per roster MSP). Granted and priced-out
  /// requests are removed; deferred ones remain. Per-seller slice sums never
  /// exceed that seller's availability. The outcome lives in the market and
  /// is reused: the reference is valid until the next `clear()` or
  /// `abandon_pending()`.
  [[nodiscard]] const competitive_outcome& clear(
      std::span<const double> available_mhz);

  /// Drop every pending request (end of run). Returns the dropped requests.
  [[nodiscard]] std::vector<clearing_request> abandon_pending();

 private:
  competitive_market_config config_;
  std::vector<clearing_request> pending_;
  competitive_outcome outcome_;  ///< Returned by `clear`, reused every call.
  /// Grant slice vectors recycled from the previous outcome, so the next
  /// grants reuse their capacity.
  std::vector<std::vector<seller_slice>> spare_slices_;
  /// The cohort market: built at the first clearing that prices, then
  /// re-targeted in place (`multi_msp_market::assign`).
  std::optional<multi_msp_market> market_;
  price_competition_scratch scratch_;
  /// The solve's reused result; its prices are the posted ones.
  multi_msp_equilibrium solved_;
  // Clearing scratch. Per participating seller: its roster index, its offer,
  // warm-start price, softmin share, cohort demand, rationing scale and
  // running remainder. Per request: its profile and interior demand. Per
  // grant: the participating index of each slice.
  std::vector<std::size_t> active_;
  std::vector<msp_profile> roster_;
  std::vector<double> warm_;
  std::vector<double> shares_;
  std::vector<double> demand_;
  std::vector<double> scale_;
  std::vector<double> remaining_;
  std::vector<vmu_profile> cohort_;
  std::vector<double> interior_;
  std::vector<std::size_t> slice_seats_;
  /// Warm-start memory, keyed per roster MSP for this book: the price each
  /// seller posted in its most recent clearing here. A seller that sat a
  /// clearing out keeps its old memory; a seller with no memory yet is
  /// seeded from its cap midpoint. The very first clearing of a run has no
  /// memory at all and cold-starts bitwise-identically to the pre-warm-start
  /// solver.
  std::vector<double> warm_prices_;
  std::vector<bool> warm_valid_;
};

}  // namespace vtm::core
