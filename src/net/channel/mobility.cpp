#include "net/channel/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emptcp::net {

MobilityModel::MobilityModel(sim::Simulation& sim, WifiChannel& channel,
                             Config cfg)
    : sim_(sim), channel_(channel), cfg_(std::move(cfg)) {
  if (cfg_.route.size() < 2) {
    throw std::invalid_argument("mobility route needs >= 2 waypoints");
  }
  for (std::size_t i = 1; i < cfg_.route.size(); ++i) {
    if (cfg_.route[i].t_s <= cfg_.route[i - 1].t_s) {
      throw std::invalid_argument("mobility waypoints must increase in time");
    }
  }
}

void MobilityModel::start() { tick(); }

std::pair<double, double> MobilityModel::Config::position_at(
    double t_s) const {
  const auto& r = route;
  if (t_s <= r.front().t_s) return {r.front().x, r.front().y};
  if (t_s >= r.back().t_s) return {r.back().x, r.back().y};
  for (std::size_t i = 1; i < r.size(); ++i) {
    if (t_s <= r[i].t_s) {
      const double f = (t_s - r[i - 1].t_s) / (r[i].t_s - r[i - 1].t_s);
      return {r[i - 1].x + f * (r[i].x - r[i - 1].x),
              r[i - 1].y + f * (r[i].y - r[i - 1].y)};
    }
  }
  return {r.back().x, r.back().y};
}

double MobilityModel::Config::distance_at(double t_s) const {
  const auto [x, y] = position_at(t_s);
  return std::hypot(x - ap_x, y - ap_y);
}

double MobilityModel::Config::rate_at(double t_s) const {
  const double d = distance_at(t_s);
  if (d >= usable_range_m) return floor_mbps;
  const double frac = d / usable_range_m;
  const double rate = max_rate_mbps * (1.0 - frac * frac);
  return std::max(rate, floor_mbps);
}

void MobilityModel::tick() {
  channel_.set_capacity(cfg_.rate_at(sim::to_seconds(sim_.now())));
  sim_.in(cfg_.tick, [this] { tick(); });
}

MobilityModel::Config MobilityModel::umass_corridor_route() {
  Config cfg;
  // Times and shape chosen so WiFi is good at the start, collapses around
  // 25–40 s (paper: "the duration around 25-40 seconds"), recovers as the
  // route passes the AP again, and degrades near the end.
  cfg.ap_x = 0.0;
  cfg.ap_y = 0.0;
  cfg.usable_range_m = 30.0;
  cfg.max_rate_mbps = 18.0;
  cfg.floor_mbps = 0.05;
  // The paper's walk keeps the device "inside WiFi communication range
  // most of the time", with a coverage dip around 25-40 s and another near
  // the end of the 250 s route.
  cfg.route = {
      {0.0, 5.0, 0.0},       // start next to the AP (blue point)
      {25.0, 33.0, 8.0},     // walk down the corridor, leaving usable range
      {45.0, 48.0, 20.0},    // far end: WiFi unusable (the 25-40 s dip)
      {60.0, 20.0, 6.0},     // turn back: signal recovering
      {70.0, 8.0, 2.0},      // pass right by the AP: WiFi excellent
      {150.0, 6.0, -3.0},    // linger in a nearby office: good WiFi
      {185.0, 14.0, -6.0},   // slow drift, still well covered
      {220.0, 42.0, -16.0},  // out toward the building edge: WiFi dies
      {250.0, 52.0, -22.0},  // route end
  };
  return cfg;
}

}  // namespace emptcp::net
