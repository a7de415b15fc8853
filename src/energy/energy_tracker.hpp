// EnergyTracker: the simulator's power monitor.
//
// Plays the role of the paper's external energy-measurement rig: it samples
// each tracked interface every 100 ms, computes the window throughput from
// the interface byte counters, asks the radio model for the power draw, and
// integrates. The shared platform-activity power (see power_model.hpp) is
// added once per window in which any radio moved bytes, consistent with
// the closed-form model that generates the EIB.
//
// It also records the time series the paper's trace figures need: cumulative
// energy (Figs. 7, 12) and per-interface throughput (Figs. 7, 9, 12).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "energy/radio.hpp"
#include "net/interface.hpp"
#include "sim/simulation.hpp"

namespace emptcp::energy {

class EnergyTracker {
 public:
  struct Config {
    sim::Duration sample = sim::milliseconds(100);
    double platform_mw = 0.0;  ///< EnergyModel::platform_mw
    bool record_series = true;
  };

  struct SeriesPoint {
    double t_s = 0.0;
    double cumulative_j = 0.0;
  };
  struct RatePoint {
    double t_s = 0.0;
    double mbps = 0.0;
  };

  EnergyTracker(sim::Simulation& sim, Config cfg);

  EnergyTracker(const EnergyTracker&) = delete;
  EnergyTracker& operator=(const EnergyTracker&) = delete;

  /// Tracks `iface`, attaching `radio` as its RadioHook. The tracker keeps
  /// a reference; the radio must outlive it.
  void track(net::NetworkInterface& iface, RadioModel& radio);

  /// Starts periodic sampling. Restarting after stop() begins a fresh
  /// sampling chain; the epoch guard below retires the old one.
  void start();
  /// Stops sampling (totals remain queryable). Bumping the epoch turns the
  /// already-scheduled next tick into a no-op — otherwise a stop()/start()
  /// cycle leaves two live tick chains, double-integrating energy and
  /// emitting duplicate sample timestamps.
  void stop() {
    running_ = false;
    ++epoch_;
  }

  [[nodiscard]] double total_j() const;
  [[nodiscard]] double iface_j(net::InterfaceType t) const;
  /// Platform-activity energy (already included in total_j()).
  [[nodiscard]] double platform_j() const { return platform_mj_ / 1000.0; }

  /// True once every tracked radio is back to idle (tail drained) — the
  /// point at which the paper's per-download energy measurement ends.
  [[nodiscard]] bool all_idle() const;

  [[nodiscard]] const std::vector<SeriesPoint>& energy_series() const {
    return energy_series_;
  }
  [[nodiscard]] const std::vector<RatePoint>& rate_series(
      net::InterfaceType t) const;

  /// Average download (rx) throughput of an interface over the tracked
  /// lifetime so far, in Mbps.
  [[nodiscard]] double mean_rx_mbps(net::InterfaceType t) const;

  /// Hybrid fidelity: declares that `iface`'s counters are being advanced
  /// analytically at `bytes_per_s` (wire bytes, tx+rx combined). While a
  /// fluid rate is set, each sampling window draws at most rate x window
  /// bytes from the accumulated counter backlog, so a macro-step that lands
  /// several windows' worth of bytes in one instant is metered back out at
  /// the declared rate — per-window power samples match packet mode, and
  /// the backlog conserves the byte total exactly (the remainder is
  /// released when the rate is cleared). This is the window-boundary seam
  /// the macro-step refactor exposed: without the backlog, a lumped
  /// counter jump would put the whole quantum's bytes into whichever
  /// window happened to observe it, distorting the nonlinear power model.
  void set_fluid_rate(const net::NetworkInterface& iface, double bytes_per_s);
  void clear_fluid_rate(const net::NetworkInterface& iface);

 private:
  struct Entry {
    net::NetworkInterface* iface = nullptr;
    RadioModel* radio = nullptr;
    std::uint64_t last_bytes = 0;     ///< tx+rx at the previous sample
    std::uint64_t start_rx_bytes = 0; ///< rx at start(); mean_rx baseline
    RadioState last_state = RadioState::kIdle;  ///< for transition traces
    double energy_mj = 0.0;
    bool fluid_active = false;      ///< counters advance analytically
    double fluid_bps = 0.0;         ///< declared wire bytes/second
    std::uint64_t fluid_backlog = 0;///< observed but not yet metered bytes
    std::vector<RatePoint> rates;
  };

  void tick(std::uint64_t epoch);
  [[nodiscard]] const Entry* find(net::InterfaceType t) const;

  sim::Simulation& sim_;
  Config cfg_;
  trace::Counter* ctr_clamped_ = nullptr;  ///< backwards byte-counter windows
  std::vector<Entry> entries_;
  bool running_ = false;
  std::uint64_t epoch_ = 0;  ///< invalidates stale scheduled ticks
  double platform_mj_ = 0.0;
  std::vector<SeriesPoint> energy_series_;
  sim::Time started_at_ = 0;
};

}  // namespace emptcp::energy
