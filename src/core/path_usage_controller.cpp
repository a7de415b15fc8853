#include "core/path_usage_controller.hpp"

#include "net/interface.hpp"
#include "trace/trace.hpp"

namespace emptcp::core {

const char* to_string(PathUsage u) {
  switch (u) {
    case PathUsage::kWifiOnly: return "wifi-only";
    case PathUsage::kBoth: return "both";
    case PathUsage::kCellOnly: return "cell-only";
  }
  return "?";
}

PathUsageController::PathUsageController(sim::Simulation& sim,
                                         const EnergyInfoBase& eib,
                                         const BandwidthPredictor& predictor,
                                         Config cfg, OnDecision on_decision)
    : sim_(sim),
      eib_(eib),
      predictor_(predictor),
      cfg_(cfg),
      on_decision_(std::move(on_decision)),
      timer_(sim.scheduler(), [this] {
        evaluate();
        if (running_) timer_.arm_in(cfg_.decision_interval);
      }) {}

void PathUsageController::start(PathUsage initial) {
  current_ = initial;
  running_ = true;
  timer_.arm_in(cfg_.decision_interval);
}

void PathUsageController::stop() {
  running_ = false;
  timer_.cancel();
}

void PathUsageController::evaluate() {
  const double wifi = predictor_.predicted_mbps(net::InterfaceType::kWifi);
  const double cell = predictor_.predicted_mbps(net::InterfaceType::kLte);
  const PathUsage next = decide(wifi, cell);
  if (next != current_) {
    const PathUsage prev = current_;
    current_ = next;
    ++switches_;
    EMPTCP_TRACE(sim_, mode_change(sim_.now(), to_string(prev),
                                   to_string(next), wifi, cell));
    if (on_decision_) on_decision_(prev, next);
  }
}

PathUsage PathUsageController::decide(double wifi_mbps,
                                      double cell_mbps) const {
  const energy::WifiThresholds t = eib_.thresholds_at(cell_mbps);
  const double s = cfg_.safety_factor;

  switch (current_) {
    case PathUsage::kBoth:
      // Paper example: from `both`, WiFi-only needs x >= hi * 1.1.
      if (wifi_mbps >= t.wifi_only_at_least * (1.0 + s)) {
        return PathUsage::kWifiOnly;
      }
      if (cfg_.allow_cell_only &&
          wifi_mbps < t.cell_only_below * (1.0 - s)) {
        return PathUsage::kCellOnly;
      }
      return PathUsage::kBoth;

    case PathUsage::kWifiOnly:
      if (cfg_.allow_cell_only &&
          wifi_mbps < t.cell_only_below * (1.0 - s)) {
        return PathUsage::kCellOnly;
      }
      // Paper example: from WiFi-only, `both` needs x <= hi * 0.9.
      if (wifi_mbps <= t.wifi_only_at_least * (1.0 - s)) {
        return PathUsage::kBoth;
      }
      return PathUsage::kWifiOnly;

    case PathUsage::kCellOnly:
      if (wifi_mbps >= t.wifi_only_at_least * (1.0 + s)) {
        return PathUsage::kWifiOnly;
      }
      if (wifi_mbps >= t.cell_only_below * (1.0 + s)) {
        return PathUsage::kBoth;
      }
      return PathUsage::kCellOnly;
  }
  return current_;
}

}  // namespace emptcp::core
