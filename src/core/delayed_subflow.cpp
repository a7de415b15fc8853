#include "core/delayed_subflow.hpp"

#include <cmath>

#include "net/interface.hpp"

namespace emptcp::core {

DelayedSubflowManager::DelayedSubflowManager(sim::Simulation& sim,
                                             const EnergyInfoBase& eib,
                                             const BandwidthPredictor& predictor,
                                             Config cfg, Hooks hooks)
    : eib_(eib),
      predictor_(predictor),
      cfg_(cfg),
      hooks_(std::move(hooks)),
      tau_timer_(sim.scheduler(), [this] { on_tau(); }),
      recheck_timer_(sim.scheduler(), [this] { recheck(); }) {}

void DelayedSubflowManager::start() {
  tau_timer_.arm_in(sim::from_seconds(cfg_.tau_s));
}

void DelayedSubflowManager::on_progress() {
  if (established_) return;
  if (hooks_.bytes_received() < cfg_.kappa_bytes) return;
  // κ crossed: establish unless WiFi alone is the efficient choice — or
  // WiFi hasn't produced the φ samples Eq. 1 budgets for yet (a decision
  // on an unmeasured path would be guesswork; keep rechecking).
  if (!wifi_measured() || wifi_good_enough()) {
    if (!recheck_timer_.armed()) recheck_timer_.arm_in(cfg_.recheck_interval);
    return;
  }
  establish_now();
}

void DelayedSubflowManager::stop() {
  tau_timer_.cancel();
  recheck_timer_.cancel();
}

void DelayedSubflowManager::on_tau() {
  if (established_) return;
  timer_expired_ = true;
  recheck();
}

void DelayedSubflowManager::recheck() {
  if (established_) return;
  // §3.5: postpone while the connection is idle, even after τ.
  if (hooks_.is_idle()) {
    recheck_timer_.arm_in(cfg_.recheck_interval);
    return;
  }
  if (!wifi_measured() || wifi_good_enough()) {
    recheck_timer_.arm_in(cfg_.recheck_interval);
    return;
  }
  if (timer_expired_ || hooks_.bytes_received() >= cfg_.kappa_bytes) {
    establish_now();
    return;
  }
  recheck_timer_.arm_in(cfg_.recheck_interval);
}

bool DelayedSubflowManager::wifi_measured() const {
  return predictor_.has_measurement(net::InterfaceType::kWifi);
}

bool DelayedSubflowManager::wifi_good_enough() const {
  const double wifi = predictor_.predicted_mbps(net::InterfaceType::kWifi);
  const double cell = predictor_.predicted_mbps(net::InterfaceType::kLte);
  return eib_.lookup(wifi, cell) == energy::PathChoice::kWifiOnly;
}

void DelayedSubflowManager::establish_now() {
  established_ = true;
  tau_timer_.cancel();
  recheck_timer_.cancel();
  hooks_.establish();
}

double DelayedSubflowManager::minimum_tau_s(double bw_mbps, double rtt_s,
                                            double winit_bytes, int phi) {
  // Eq. 1: tau >= R_W * ( log2( (B_W * R_W + W_init) / W_init ) + phi ).
  const double bw_bytes_per_s = bw_mbps * 1e6 / 8.0;
  const double ratio = (bw_bytes_per_s * rtt_s + winit_bytes) / winit_bytes;
  return rtt_s * (std::log2(ratio) + static_cast<double>(phi));
}

}  // namespace emptcp::core
