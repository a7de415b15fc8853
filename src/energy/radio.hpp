// Radio state machines (paper §2.3).
//
// The 3GPP state machine: an idle cellular radio must be *promoted* to a
// high-power state before the first packet moves (the promotion delays that
// packet and burns promo power); after the last packet it lingers in the
// high-power *tail* before dropping back to idle. WiFi has the same shape
// with near-negligible constants (Fig. 1).
//
// The model plugs into a NetworkInterface as a RadioHook: every tx/rx
// refreshes the activity clock, and a transmission that finds the radio
// idle pays the promotion latency. The EnergyTracker queries state_at() and
// the params to integrate power.
#pragma once

#include "energy/power_model.hpp"
#include "net/interface.hpp"
#include "sim/time.hpp"

namespace emptcp::energy {

enum class RadioState { kIdle, kPromo, kActive, kTail };

const char* to_string(RadioState s);

class RadioModel : public net::RadioHook {
 public:
  explicit RadioModel(InterfacePowerParams params)
      : params_(std::move(params)),
        promo_(sim::from_seconds(params_.promo_s)),
        tail_(sim::from_seconds(params_.tail_s)),
        active_hold_(sim::milliseconds(100)) {}

  /// RadioHook: refreshes the activity clock; returns the promotion delay
  /// to impose on this packet if the radio was idle (tx only — a first
  /// incoming packet implies the network already paged the radio, and by
  /// then the promotion was paid on the request's way out).
  sim::Duration on_activity(sim::Time now, std::uint32_t wire_bytes,
                            bool is_tx) override;

  [[nodiscard]] RadioState state_at(sim::Time t) const;

  [[nodiscard]] const InterfacePowerParams& params() const { return params_; }

  /// Power draw at time t assuming `mbps` of throughput during the current
  /// sampling window ("active" iff any bytes moved in the window).
  [[nodiscard]] double power_mw_at(sim::Time t, double mbps,
                                   bool bytes_in_window) const;

  /// Number of idle->promo activations so far (each implies one promotion
  /// and, eventually, one tail: the paper's fixed overhead per activation).
  [[nodiscard]] int activations() const { return activations_; }

 private:
  InterfacePowerParams params_;
  sim::Duration promo_;
  sim::Duration tail_;
  sim::Duration active_hold_;
  sim::Time last_activity_ = -1;  ///< -1: never active
  sim::Time promo_until_ = -1;
  int activations_ = 0;
};

}  // namespace emptcp::energy
