// Markov-Decision-Process path scheduler of Pluntke et al. [24]
// (paper §4.6 / related work).
//
// Their design: discretise the (WiFi, cellular) bandwidth pair into states,
// learn a state-transition matrix from observed throughput traces, and
// solve (offline — they offload this to the cloud) for the policy
// minimising expected discounted *power* with unit time 1 s. The policy
// maps each bandwidth state to one of {WiFi-only, cellular-only, both}.
//
// The paper reproduces their scheduler in simulation and observes: with an
// energy model in which LTE power per second never drops below WiFi's, the
// MDP policy chooses WiFi-only in every state, so it inherits exactly the
// performance (and limitations) of TCP over WiFi. The value-iteration
// solver below, fed our device models, reproduces that conclusion
// (bench_sec46_baselines prints the full policy).
//
// MdpRunner applies a solved policy to a live MptcpConnection at 1-second
// epochs, the way the paper "simulates their behaviors given our
// experimental scenarios and energy model".
#pragma once

#include <cstdint>
#include <vector>

#include "energy/power_model.hpp"
#include "mptcp/meta_socket.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"

namespace emptcp::baseline {

class MdpScheduler {
 public:
  enum class Action { kWifiOnly, kCellOnly, kBoth };
  static const char* to_string(Action a);

  struct Config {
    /// Bin upper edges in Mbps; a throughput x falls in the first bin whose
    /// edge exceeds it (the last bin is open-ended). Bin "0" means the
    /// interface is effectively unusable. The defaults stay inside the
    /// paper's operating envelope (<~10 Mbps): with the Huang et al. [14]
    /// constants, WiFi's per-Mbps power term overtakes LTE's base above
    /// ~13.6 Mbps, where an MDP would (correctly, for that model) stop
    /// preferring WiFi — a regime the paper's experiments never enter.
    std::vector<double> wifi_edges{0.1, 1.0, 4.0, 8.0};
    std::vector<double> cell_edges{0.1, 1.0, 4.0, 8.0};
    double discount = 0.95;
    /// Cost charged for choosing a path whose bandwidth bin is 0 (the
    /// transfer stalls); large enough to dominate any power cost.
    double unusable_cost_mw = 1e7;
  };

  MdpScheduler(energy::EnergyModel model, Config cfg);

  [[nodiscard]] std::size_t state_count() const {
    return wifi_bins_ * cell_bins_;
  }
  [[nodiscard]] std::size_t state_of(double wifi_mbps,
                                     double cell_mbps) const;

  /// Learns the transition matrix from a throughput trace sampled at the
  /// epoch length (1 s), as Pluntke et al. learn their finite state machine
  /// of throughput changes. Unvisited states self-loop.
  void fit(const std::vector<std::pair<double, double>>& trace);

  /// Value iteration; returns the number of sweeps performed.
  int solve(int max_sweeps = 1000, double tolerance = 1e-6);

  [[nodiscard]] Action policy(std::size_t state) const;
  [[nodiscard]] Action action_for(double wifi_mbps, double cell_mbps) const;

  /// Immediate cost (expected power in mW over one epoch) of taking `a` in
  /// `state`; exposed for tests and the bench printout.
  [[nodiscard]] double cost(std::size_t state, Action a) const;

 private:
  [[nodiscard]] std::size_t wifi_bin(double mbps) const;
  [[nodiscard]] std::size_t cell_bin(double mbps) const;
  [[nodiscard]] double bin_center(const std::vector<double>& edges,
                                  std::size_t bin) const;

  energy::EnergyModel model_;
  Config cfg_;
  std::size_t wifi_bins_;
  std::size_t cell_bins_;
  std::vector<std::vector<double>> transitions_;  ///< row-stochastic
  std::vector<double> value_;
  std::vector<Action> policy_;
  bool solved_ = false;
};

/// Applies a solved MDP policy to a live connection at 1-second epochs.
class MdpRunner {
 public:
  MdpRunner(sim::Simulation& sim, const MdpScheduler& scheduler,
            mptcp::MptcpConnection& conn, net::NetworkInterface& wifi,
            net::NetworkInterface& cell);

  void start();
  void stop() { timer_.cancel(); }

 private:
  void epoch();
  void apply(MdpScheduler::Action a);

  sim::Simulation& sim_;
  const MdpScheduler& scheduler_;
  mptcp::MptcpConnection& conn_;
  net::NetworkInterface& wifi_;
  net::NetworkInterface& cell_;
  sim::Timer timer_;
  std::uint64_t last_wifi_rx_ = 0;
  std::uint64_t last_cell_rx_ = 0;
};

}  // namespace emptcp::baseline
