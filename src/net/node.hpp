// Node: an endpoint owning interfaces and demultiplexing packets to sockets.
//
// The client node owns the WiFi and LTE interfaces; the server node owns one
// Ethernet interface (the paper's servers have a single public address).
// Sockets register their 4-tuple here; SYNs that match no flow go to the
// listener on their destination port, which is how the server side accepts
// initial subflows and MP_JOINs.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/interface.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace emptcp::net {

class Node {
 public:
  using PacketHandler = std::function<void(const Packet&)>;

  explicit Node(sim::Simulation& sim) : sim_(sim) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NetworkInterface& add_interface(NetworkInterface::Config cfg);

  /// Finds the interface owning `addr`; throws if none.
  NetworkInterface& interface_for(Addr addr);
  /// Finds an interface by type; returns nullptr if absent.
  NetworkInterface* interface_of_type(InterfaceType t);

  /// Sends via the interface whose address matches pkt.src.
  void send(const Packet& pkt);

  /// Binds a handler for an established flow.
  void register_flow(const FlowKey& key, PacketHandler handler);
  void unregister_flow(const FlowKey& key);

  /// Binds a listener invoked for SYNs on `port` that match no flow.
  void listen(Port port, PacketHandler handler);

  /// Allocates a locally-unique ephemeral port.
  Port allocate_port() { return next_port_++; }

  /// Called by interfaces on packet arrival.
  void receive(const Packet& pkt, NetworkInterface& in);

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] std::uint64_t unmatched_packets() const { return unmatched_; }

 private:
  sim::Simulation& sim_;
  std::vector<std::unique_ptr<NetworkInterface>> interfaces_;
  std::unordered_map<FlowKey, PacketHandler, FlowKeyHash> flows_;
  std::unordered_map<Port, PacketHandler> listeners_;
  Port next_port_ = 40000;
  std::uint64_t unmatched_ = 0;
};

}  // namespace emptcp::net
