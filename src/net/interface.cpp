#include "net/interface.hpp"

#include <algorithm>

#include "net/node.hpp"

namespace emptcp::net {

const char* to_string(InterfaceType t) {
  switch (t) {
    case InterfaceType::kWifi: return "wifi";
    case InterfaceType::kLte: return "lte";
    case InterfaceType::kThreeG: return "3g";
    case InterfaceType::kEthernet: return "eth";
  }
  return "?";
}

NetworkInterface::NetworkInterface(sim::Simulation& sim, Node& node,
                                   Config cfg)
    : sim_(sim), node_(node), cfg_(std::move(cfg)) {}

void NetworkInterface::send(const Packet& pkt) {
  if (!up_) {
    ++dropped_down_;
    return;
  }
  Link* out = default_route_;
  if (auto it = routes_.find(pkt.dst); it != routes_.end()) out = it->second;
  if (out == nullptr) {
    ++dropped_down_;
    return;
  }
  tx_bytes_ += pkt.wire_bytes();
  if (radio_ != nullptr) {
    const sim::Duration extra =
        radio_->on_activity(sim_.now(), pkt.wire_bytes(), /*is_tx=*/true);
    if (extra > 0) out->add_pending_delay(extra);
  }
  out->send(pkt);
}

void NetworkInterface::deliver(const Packet& pkt) {
  if (!up_) {
    ++dropped_down_;
    return;
  }
  rx_bytes_ += pkt.wire_bytes();
  if (radio_ != nullptr) {
    radio_->on_activity(sim_.now(), pkt.wire_bytes(), /*is_tx=*/false);
  }
  node_.receive(pkt, *this);
}

void NetworkInterface::macro_account(std::uint64_t tx_wire_bytes,
                                     std::uint64_t rx_wire_bytes) {
  tx_bytes_ += tx_wire_bytes;
  rx_bytes_ += rx_wire_bytes;
  if (radio_ == nullptr) return;
  // One aggregated activity sample per direction. wire_bytes is a u32 in
  // the per-packet hook; a 100 ms quantum at link rates stays far below
  // that, but clamp defensively.
  constexpr std::uint64_t kMax = 0xffffffffull;
  if (tx_wire_bytes > 0) {
    radio_->on_activity(sim_.now(),
                        static_cast<std::uint32_t>(
                            std::min<std::uint64_t>(tx_wire_bytes, kMax)),
                        /*is_tx=*/true);
  }
  if (rx_wire_bytes > 0) {
    radio_->on_activity(sim_.now(),
                        static_cast<std::uint32_t>(
                            std::min<std::uint64_t>(rx_wire_bytes, kMax)),
                        /*is_tx=*/false);
  }
}

void NetworkInterface::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
}

}  // namespace emptcp::net
