// World: the per-run testbed every experiment builds on.
//
// Reproduces the paper's §4.1 setup as a reusable object: a mobile client
// with WiFi and LTE interfaces, a wired server reachable over both paths,
// the access/WAN link chains, the contended WiFi channel, the device
// radios and the energy tracker. Scenario (one client's one flow) and the
// fleets (multi-flow populations) instantiate one World per (config, seed),
// or per cell, and drive their applications inside it through
// workload::FlowLoop.
//
// The client-connection factory lives here too: make_client() returns the
// protocol-appropriate ClientConnHandle (plain TCP, MPTCP, eMPTCP,
// WiFi-First, MDP) wired into the world's shared eMPTCP state (EIB +
// device-wide bandwidth predictor).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "app/client_handle.hpp"
#include "app/onoff_udp.hpp"
#include "app/scenario.hpp"
#include "core/bandwidth_predictor.hpp"
#include "core/energy_info_base.hpp"
#include "energy/energy_tracker.hpp"
#include "energy/radio.hpp"
#include "net/channel/mobility.hpp"
#include "net/channel/onoff_bandwidth.hpp"
#include "net/channel/wifi_channel.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulation.hpp"

namespace emptcp::app {

class FastPath;

/// Fixed addressing of the testbed (the paper's single-server topology).
inline constexpr net::Addr kWifiAddr = 1;
inline constexpr net::Addr kCellAddr = 2;
inline constexpr net::Addr kServerAddr = 10;
inline constexpr net::Port kPort = 80;

/// Address-space stride between cells of a sharded fleet: cell i owns
/// [i*kAddrStride, (i+1)*kAddrStride), with the classic offsets (wifi +1,
/// cell +2, server +10) inside each block. Cell 0 is therefore exactly the
/// legacy single-cell layout, and classify_client_addr reduces to a modulo.
inline constexpr net::Addr kAddrStride = 16;

/// The addresses one World instance uses; defaults to the legacy layout.
struct Addressing {
  net::Addr wifi = kWifiAddr;
  net::Addr cell = kCellAddr;
  net::Addr server = kServerAddr;
};

/// Addressing of the i-th cell of a sharded fleet.
[[nodiscard]] inline Addressing cell_addressing(std::size_t cell) {
  const auto base = static_cast<net::Addr>(cell) * kAddrStride;
  return Addressing{base + kWifiAddr, base + kCellAddr, base + kServerAddr};
}

/// Maps a client address to the interface type it belongs to; used as the
/// MPTCP peer classifier on both ends. Works for any cell's address block.
net::InterfaceType classify_client_addr(net::Addr a);

/// The scenario's MPTCP knobs with the coupling flag and peer classifier
/// applied — what every connection (client or server side) is built from.
mptcp::MptcpConnection::Config make_mptcp_cfg(const ScenarioConfig& cfg,
                                              bool coupled);

/// The per-run world: fresh simulation, topology, radios and tracker.
struct World {
  World(const ScenarioConfig& cfg, std::uint64_t seed, Addressing addr = {});
  ~World();  // out of line: FastPath is incomplete here

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Starts the configured environment dynamics (on-off WiFi, interfering
  /// stations, the walking route). Call once, after construction.
  void start_dynamics();

  /// Shared eMPTCP state: the EIB (lazily generated, or adopted via
  /// share_eib) and the device-wide predictor.
  const core::EnergyInfoBase& eib();
  core::BandwidthPredictor& predictor();

  /// Adopts an externally generated EIB instead of generating one —
  /// generation is the expensive part and lookups are const, so a sharded
  /// fleet builds it once and shares it across every cell. Must be called
  /// before the first eib() use; `shared` must outlive the world.
  void share_eib(const core::EnergyInfoBase& shared) { shared_eib_ = &shared; }

  const ScenarioConfig& scfg;
  const Addressing addrs;
  sim::Simulation sim;
  net::Node client;
  net::Node server;
  net::NetworkInterface* wifi_if = nullptr;
  net::NetworkInterface* cell_if = nullptr;
  net::NetworkInterface* srv_if = nullptr;
  std::unique_ptr<net::Link> wifi_acc_up, wifi_wan_up, wifi_wan_down,
      wifi_acc_down;
  std::unique_ptr<net::Link> cell_acc_up, cell_wan_up, cell_wan_down,
      cell_acc_down;
  net::WifiChannel channel;
  energy::RadioModel wifi_radio;
  energy::RadioModel cell_radio;
  energy::EnergyTracker tracker;
  std::optional<net::OnOffBandwidth> onoff;
  std::vector<std::unique_ptr<OnOffUdpSource>> interferers;
  std::optional<net::MobilityModel> mobility;
  /// Hybrid-fidelity coordinator; non-null iff scfg.fidelity == kHybrid.
  /// Declared after the links and tracker it references so it is destroyed
  /// first (its destructor detaches from the hooks and clears fluid rates).
  std::unique_ptr<FastPath> fast_path;

 private:
  std::optional<core::EnergyInfoBase> eib_;
  const core::EnergyInfoBase* shared_eib_ = nullptr;
  std::unique_ptr<core::BandwidthPredictor> predictor_;
};

/// Builds the protocol-appropriate client connection inside `w`, targeting
/// `server`: the world's own, or another cell's file server in a sharded
/// fleet, reached over the cross-shard backbone.
std::unique_ptr<ClientConnHandle> make_client(World& w, Protocol p,
                                              net::Addr server);

/// World-level totals summed over `worlds` (one world, or every cell of a
/// sharded fleet): device energy, mean interface rates over
/// download_time_s, LTE use, and slab and pool high-water marks.
RunMetrics collect_totals(const std::vector<World*>& worlds, bool completed,
                          double download_time_s,
                          std::uint64_t bytes_received);

/// One world's run collection: everything derivable from the world plus
/// the caller-supplied completion state, byte count and controller
/// switches.
RunMetrics collect_core(World& w, bool completed, double download_time_s,
                        std::uint64_t bytes_received,
                        std::uint64_t controller_switches);

/// Advances the simulation in 200 ms slices until `done()` or `deadline`,
/// never past `deadline`.
void advance_until(World& w, const std::function<bool()>& done,
                   sim::Time deadline);

/// Runs until every tracked radio has fallen back to idle (the paper's
/// post-download tail energy), bounded by `max_drain`.
void drain_tails(World& w, sim::Duration max_drain);

}  // namespace emptcp::app
