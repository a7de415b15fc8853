#include "net/channel/wifi_channel.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace emptcp::net {

void WifiChannel::set_interferer_active(std::size_t idx, bool active) {
  if (idx >= active_.size()) return;
  if (active_[idx] == static_cast<bool>(active)) return;
  active_[idx] = active;
  apply();
}

std::size_t WifiChannel::active_interferers() const {
  return static_cast<std::size_t>(
      std::count(active_.begin(), active_.end(), true));
}

double WifiChannel::device_share_mbps() const {
  const auto k = static_cast<double>(active_interferers());
  return cfg_.capacity_mbps / (k + 1.0);
}

void WifiChannel::apply() {
  const double share = device_share_mbps();
  const double loss =
      cfg_.collision_loss * static_cast<double>(active_interferers());
  for (Link* l : links_) {
    l->set_rate(share);
    l->set_loss_prob(loss);
  }
  // Mobility re-applies the channel every tick; trace only real changes so
  // an enabled trace stays proportional to channel activity.
  if (share != last_traced_share_ || loss != last_traced_loss_) {
    last_traced_share_ = share;
    last_traced_loss_ = loss;
    EMPTCP_TRACE(sim_, channel_rate(sim_.now(), "wifi-share", share, loss));
  }
}

}  // namespace emptcp::net
