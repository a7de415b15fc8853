// Network interface: the attachment point between a node and its links.
//
// A mobile device in this system has a WiFi and an LTE (or 3G) interface;
// the server has an Ethernet interface. The interface is where two things
// the paper cares about are observed:
//   * byte counters, feeding throughput measurement, and
//   * radio activity, feeding the energy model (promotion / tail states).
// The energy subsystem attaches through the RadioHook so `net` does not
// depend on `energy`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace emptcp::net {

enum class InterfaceType { kWifi, kLte, kThreeG, kEthernet };

const char* to_string(InterfaceType t);

/// Hook by which the energy model observes interface activity. Returns the
/// extra latency the radio imposes on this packet (promotion delay when a
/// cellular radio wakes from idle; zero otherwise).
class RadioHook {
 public:
  virtual ~RadioHook() = default;
  virtual sim::Duration on_activity(sim::Time now, std::uint32_t wire_bytes,
                                    bool is_tx) = 0;
};

class Node;  // forward

class NetworkInterface {
 public:
  struct Config {
    InterfaceType type = InterfaceType::kEthernet;
    Addr addr = kAddrInvalid;
    std::string name = "if";
  };

  NetworkInterface(sim::Simulation& sim, Node& node, Config cfg);

  NetworkInterface(const NetworkInterface&) = delete;
  NetworkInterface& operator=(const NetworkInterface&) = delete;

  [[nodiscard]] InterfaceType type() const { return cfg_.type; }
  [[nodiscard]] Addr addr() const { return cfg_.addr; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }

  /// Adds a route: packets to `dst` leave through `out`.
  void add_route(Addr dst, Link& out) { routes_[dst] = &out; }
  /// Fallback route used when no specific entry matches.
  void set_default_route(Link& out) { default_route_ = &out; }

  /// Sends a packet out of this interface. Silently drops when the
  /// interface is down or unrouteable (counted).
  void send(const Packet& pkt);

  /// Entry point bound to the far end of incoming links.
  void deliver(const Packet& pkt);

  /// Interface administrative state; models WiFi AP association loss.
  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  void set_radio_hook(RadioHook* hook) { radio_ = hook; }

  [[nodiscard]] std::uint64_t tx_bytes() const { return tx_bytes_; }
  [[nodiscard]] std::uint64_t rx_bytes() const { return rx_bytes_; }
  [[nodiscard]] std::uint64_t dropped_down() const { return dropped_down_; }

  /// Hybrid-fidelity accounting: credits a macro-step's aggregated wire
  /// bytes to the counters and lets the radio model observe the activity
  /// (keeping cellular radios in their active state through a fluid
  /// interval). Promotion delays are ignored — a flow only macro-steps
  /// while its radio is already busy. No packets traverse any link.
  void macro_account(std::uint64_t tx_wire_bytes, std::uint64_t rx_wire_bytes);

  /// Zeroes the byte counters, as a driver reset/reattach would. Consumers
  /// that difference the counters (EnergyTracker) must tolerate the
  /// resulting backwards step.
  void reset_counters() {
    tx_bytes_ = 0;
    rx_bytes_ = 0;
    dropped_down_ = 0;
  }

 private:
  sim::Simulation& sim_;
  Node& node_;
  Config cfg_;
  std::unordered_map<Addr, Link*> routes_;
  Link* default_route_ = nullptr;
  RadioHook* radio_ = nullptr;
  bool up_ = true;

  std::uint64_t tx_bytes_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t dropped_down_ = 0;
};

}  // namespace emptcp::net
