// Shared test fixture topology: a client with WiFi + LTE interfaces and a
// single-homed server, mirroring the scenario harness but with direct
// access to every link so tests can mutate conditions mid-run.
#pragma once

#include <memory>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulation.hpp"

namespace emptcp::test {

inline constexpr net::Addr kWifiAddr = 1;
inline constexpr net::Addr kCellAddr = 2;
inline constexpr net::Addr kServerAddr = 10;
inline constexpr net::Port kPort = 80;

/// Two-path dumbbell: client(wifi,lte) <-> server. Each direction of each
/// path is one Link (no separate wan hop; tests set the RTT via the link
/// propagation delay).
struct TestNet {
  explicit TestNet(std::uint64_t seed = 1, double wifi_mbps = 10.0,
                   double cell_mbps = 10.0)
      : sim(seed), client(sim), server(sim) {
    wifi_if = &client.add_interface({net::InterfaceType::kWifi, kWifiAddr,
                                     "c-wifi"});
    cell_if = &client.add_interface({net::InterfaceType::kLte, kCellAddr,
                                     "c-lte"});
    srv_if = &server.add_interface({net::InterfaceType::kEthernet,
                                    kServerAddr, "s-eth"});

    auto mk = [this](double mbps, const char* name) {
      net::Link::Config cfg;
      cfg.rate_mbps = mbps;
      cfg.prop_delay = sim::milliseconds(10);
      cfg.queue_limit_bytes = 256 * 1024;
      cfg.name = name;
      return std::make_unique<net::Link>(sim, cfg);
    };
    wifi_up = mk(wifi_mbps, "wifi-up");
    wifi_down = mk(wifi_mbps, "wifi-down");
    cell_up = mk(cell_mbps, "cell-up");
    cell_down = mk(cell_mbps, "cell-down");

    wifi_if->set_default_route(*wifi_up);
    cell_if->set_default_route(*cell_up);
    wifi_up->set_receiver([this](const net::Packet& p) { srv_if->deliver(p); });
    cell_up->set_receiver([this](const net::Packet& p) { srv_if->deliver(p); });
    srv_if->add_route(kWifiAddr, *wifi_down);
    srv_if->add_route(kCellAddr, *cell_down);
    wifi_down->set_receiver(
        [this](const net::Packet& p) { wifi_if->deliver(p); });
    cell_down->set_receiver(
        [this](const net::Packet& p) { cell_if->deliver(p); });
  }

  sim::Simulation sim;
  net::Node client;
  net::Node server;
  net::NetworkInterface* wifi_if = nullptr;
  net::NetworkInterface* cell_if = nullptr;
  net::NetworkInterface* srv_if = nullptr;
  std::unique_ptr<net::Link> wifi_up, wifi_down, cell_up, cell_down;
};

}  // namespace emptcp::test
