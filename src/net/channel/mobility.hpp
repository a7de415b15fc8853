// Waypoint mobility model (paper §4.5, Figs. 11–13).
//
// The paper walks a 250-second route through a building: the device is
// sometimes within usable range of the AP and sometimes outside it, so WiFi
// throughput rises and falls with distance while the association is never
// lost. We reproduce that with a 2-D waypoint route walked at constant speed
// between timed waypoints; achievable WiFi rate falls off quadratically with
// distance inside the usable range and floors at a small positive rate
// outside it (still associated, nearly unusable — the paper's 25–40 s dip).
//
// The model drives a WifiChannel's nominal capacity on a fixed tick. The
// route geometry (position, distance, rate at time t) lives on the Config,
// so code without a Simulation — the MDP baseline's bandwidth trace, the
// Fig. 11 profile — evaluates the same function.
#pragma once

#include <utility>
#include <vector>

#include "net/channel/wifi_channel.hpp"
#include "sim/simulation.hpp"

namespace emptcp::net {

struct Waypoint {
  double t_s = 0.0;  ///< arrival time at this waypoint, seconds
  double x = 0.0;    ///< metres
  double y = 0.0;
};

class MobilityModel {
 public:
  struct Config {
    std::vector<Waypoint> route;
    double ap_x = 0.0;
    double ap_y = 0.0;
    double usable_range_m = 30.0;  ///< Fig. 11's dashed circle
    double max_rate_mbps = 18.0;   ///< rate when next to the AP
    double floor_mbps = 0.05;      ///< associated but out of usable range
    sim::Duration tick = sim::milliseconds(500);

    /// Device position at time t (clamps to route ends).
    [[nodiscard]] std::pair<double, double> position_at(double t_s) const;
    /// Distance to the AP at time t.
    [[nodiscard]] double distance_at(double t_s) const;
    /// Achievable WiFi rate at time t given the distance fall-off.
    [[nodiscard]] double rate_at(double t_s) const;
  };

  MobilityModel(sim::Simulation& sim, WifiChannel& channel, Config cfg);

  /// Begins walking the route and driving the channel capacity.
  void start();

  /// The route used by the paper's Fig. 11 experiment: starts near the AP,
  /// walks out of usable range, loops back past the AP, and exits again.
  static Config umass_corridor_route();

 private:
  void tick();

  sim::Simulation& sim_;
  WifiChannel& channel_;
  Config cfg_;
};

}  // namespace emptcp::net
