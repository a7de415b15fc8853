// Two-state on-off bandwidth modulator (paper §4.3).
//
// "WiFi link bandwidth is modulated by a two state on-off process with
//  exponentially distributed times spent in the on or off state with a mean
//  of 40 seconds. The bandwidth provided by the AP is ≤1 Mbps or ≥10 Mbps,
//  depending on its state."
//
// The modulator flips a Link between a high and a low rate with
// exponentially distributed holding times, and records the switch times so
// traces (Fig. 7) can plot bandwidth alongside energy.
#pragma once

#include <vector>

#include "net/link.hpp"
#include "sim/simulation.hpp"

namespace emptcp::net {

class OnOffBandwidth {
 public:
  struct Config {
    double high_mbps = 12.0;
    double low_mbps = 0.8;
    double mean_high_s = 40.0;  ///< mean sojourn in the high state
    double mean_low_s = 40.0;   ///< mean sojourn in the low state
    bool start_high = true;
  };

  struct Transition {
    sim::Time at = 0;
    double rate_mbps = 0.0;
  };

  OnOffBandwidth(sim::Simulation& sim, Link& link, Config cfg);

  /// Adds another link switched in lockstep with the primary (an AP's
  /// bandwidth change affects uplink and downlink together).
  void also_govern(Link& link) { links_.push_back(&link); }

  /// Starts modulating. The first holding time is drawn immediately.
  void start();

  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return log_;
  }

 private:
  void apply_state();
  void schedule_flip();

  sim::Simulation& sim_;
  std::vector<Link*> links_;
  Config cfg_;
  bool high_;
  std::vector<Transition> log_;
};

}  // namespace emptcp::net
