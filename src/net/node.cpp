#include "net/node.hpp"

#include <stdexcept>
#include <string>

namespace emptcp::net {

NetworkInterface& Node::add_interface(NetworkInterface::Config cfg) {
  if (cfg.addr == kAddrInvalid) {
    throw std::invalid_argument("interface needs a valid address: " + cfg.name);
  }
  interfaces_.push_back(
      std::make_unique<NetworkInterface>(sim_, *this, std::move(cfg)));
  return *interfaces_.back();
}

NetworkInterface& Node::interface_for(Addr addr) {
  for (auto& ifc : interfaces_) {
    if (ifc->addr() == addr) return *ifc;
  }
  throw std::logic_error("node has no interface with address " +
                         std::to_string(addr));
}

NetworkInterface* Node::interface_of_type(InterfaceType t) {
  for (auto& ifc : interfaces_) {
    if (ifc->type() == t) return ifc.get();
  }
  return nullptr;
}

void Node::send(const Packet& pkt) { interface_for(pkt.src).send(pkt); }

void Node::register_flow(const FlowKey& key, PacketHandler handler) {
  flows_[key] = std::move(handler);
}

void Node::unregister_flow(const FlowKey& key) { flows_.erase(key); }

void Node::listen(Port port, PacketHandler handler) {
  listeners_[port] = std::move(handler);
}

void Node::receive(const Packet& pkt, NetworkInterface& /*in*/) {
  const FlowKey key = pkt.flow_at_receiver();
  if (auto it = flows_.find(key); it != flows_.end()) {
    // Copy the handler: it may unregister the flow (and invalidate the
    // iterator) while running, e.g. on RST or final FIN-ACK.
    auto handler = it->second;
    handler(pkt);
    return;
  }
  if (pkt.syn && !pkt.is_ack) {
    if (auto it = listeners_.find(pkt.dport); it != listeners_.end()) {
      auto handler = it->second;
      handler(pkt);
      return;
    }
  }
  ++unmatched_;
}

}  // namespace emptcp::net
