// Delayed subflow establishment (paper §3.5).
//
// A cellular subflow costs a promotion and a tail whether or not it ends up
// useful, so eMPTCP postpones establishing it:
//   * until κ bytes have arrived over WiFi (small transfers never pay the
//     cellular fixed cost; κ = 1 MB in the paper), OR
//   * until a timer τ expires (κ may never arrive on a slow WiFi path;
//     τ = 3 s in the paper, bounded below by Eq. 1 so that enough
//     throughput samples exist), EXCEPT
//   * not while the connection is idle (HTTP keep-alive connections must
//     not wake the cellular radio), and
//   * not while measured WiFi throughput is high enough that WiFi-only is
//     more energy-efficient than both, per the EIB.
//
// After a postponement the manager re-checks every `recheck_interval`.
#pragma once

#include <cstdint>
#include <functional>

#include "core/bandwidth_predictor.hpp"
#include "core/energy_info_base.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"

namespace emptcp::core {

class DelayedSubflowManager {
 public:
  struct Config {
    std::uint64_t kappa_bytes = 1024 * 1024;  ///< κ (paper: 1 MB)
    double tau_s = 3.0;                       ///< τ (paper: 3 s)
    sim::Duration recheck_interval = sim::milliseconds(500);
  };

  struct Hooks {
    /// Establish the cellular subflow now.
    std::function<void()> establish;
    /// Total connection-level bytes received so far.
    std::function<std::uint64_t()> bytes_received;
    /// True when no packet moved within the last estimated RTT (§3.5:
    /// "eMPTCP regards a connection as idle if it does not send or receive
    /// any packets during an estimated RTT").
    std::function<bool()> is_idle;
  };

  DelayedSubflowManager(sim::Simulation& sim, const EnergyInfoBase& eib,
                        const BandwidthPredictor& predictor, Config cfg,
                        Hooks hooks);

  /// Arms τ; call when the initial (WiFi) subflow is established.
  void start();

  /// Feed data progress; triggers establishment once κ is crossed (unless
  /// the WiFi-good postponement applies).
  void on_progress();

  /// Cancels all pending timers (connection is closing).
  void stop();

  [[nodiscard]] bool established() const { return established_; }
  [[nodiscard]] bool timer_expired() const { return timer_expired_; }

  /// Eq. 1: the smallest τ that guarantees `phi` throughput samples after
  /// the WiFi subflow stabilises, given available WiFi bandwidth `bw_mbps`,
  /// RTT `rtt_s` and initial window `winit_bytes`.
  static double minimum_tau_s(double bw_mbps, double rtt_s,
                              double winit_bytes, int phi);

 private:
  void on_tau();
  void recheck();
  /// True once the WiFi estimate rests on enough samples (φ, Eq. 1).
  [[nodiscard]] bool wifi_measured() const;
  /// The §3.5 postponement test: WiFi fast enough that WiFi-only beats
  /// both, per the EIB (with the cellular side at its predicted rate).
  [[nodiscard]] bool wifi_good_enough() const;
  void establish_now();

  const EnergyInfoBase& eib_;
  const BandwidthPredictor& predictor_;
  Config cfg_;
  Hooks hooks_;
  sim::Timer tau_timer_;
  sim::Timer recheck_timer_;
  bool established_ = false;
  bool timer_expired_ = false;
};

}  // namespace emptcp::core
