// Link budget between a source RSU and a destination RSU.
//
// Implements the paper's channel model: with transmit power ρ, unit channel
// power gain h0, inter-RSU distance d, path-loss exponent ε, and average noise
// power N0, the SNR is ρ·h0·d^−ε / N0 and a bandwidth b achieves the rate
// γ = b·log2(1 + SNR) (OFDMA subchannels are orthogonal, so rates add).
#pragma once

#include "util/quantity.hpp"

namespace vtm::wireless {

/// Channel parameters in the paper's logarithmic units. Power levels and the
/// link distance are typed quantities (util/quantity.hpp): dBm cannot be
/// mistaken for watts or meters at compile time, and crossing into linear
/// units goes through util/units.hpp explicitly.
struct link_params {
  util::dbm tx_power_dbm{40.0};       ///< ρ — source RSU transmit power.
  util::db unit_gain_db{-20.0};       ///< h0 — unit channel power gain.
  util::meters distance_m{500.0};     ///< d — source↔destination distance.
  double path_loss_exponent = 2.0;    ///< ε — path-loss coefficient (unitless).
  util::dbm noise_power_dbm{-150.0};  ///< N0 — average noise power.
};

/// Derived linear-scale quantities for a point-to-point RSU link.
class link_budget {
 public:
  /// Validate and derive linear quantities. Requires distance > 0, ε >= 0.
  explicit link_budget(const link_params& params);

  /// Input parameters as given.
  [[nodiscard]] const link_params& params() const noexcept { return params_; }

  /// Transmit power in watts.
  [[nodiscard]] double tx_power_watt() const noexcept { return tx_watt_; }

  /// Composite channel gain h0·d^−ε (linear, unitless).
  [[nodiscard]] double channel_gain() const noexcept { return gain_; }

  /// Noise power in watts.
  [[nodiscard]] double noise_power_watt() const noexcept { return noise_watt_; }

  /// Linear signal-to-noise ratio.
  [[nodiscard]] double snr() const noexcept { return snr_; }

  /// Shannon spectral efficiency log2(1 + SNR) in bit/s/Hz.
  [[nodiscard]] double spectral_efficiency() const noexcept {
    return spectral_efficiency_;
  }

  /// Achievable rate in Mbit/s for a bandwidth in MHz.
  /// Requires bandwidth >= 0.
  [[nodiscard]] double rate_mbps(double bandwidth_mhz) const;

  /// Typed sibling: rate for a typed bandwidth (Mbit/s stays a raw double —
  /// rates feed straight into record/tensor aggregates).
  [[nodiscard]] double rate_mbps(util::megahertz bandwidth) const {
    return rate_mbps(bandwidth.value());
  }

  /// Seconds to move `data_bits` over `bandwidth_hz`. Requires positive
  /// bandwidth and non-negative data.
  [[nodiscard]] double transfer_seconds(double data_bits,
                                        double bandwidth_hz) const;

 private:
  link_params params_;
  double tx_watt_;
  double gain_;
  double noise_watt_;
  double snr_;
  double spectral_efficiency_;
};

}  // namespace vtm::wireless
