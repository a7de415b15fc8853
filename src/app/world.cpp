#include "app/world.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "app/fast_path.hpp"
#include "baselines/mdp_scheduler.hpp"
#include "baselines/wifi_first.hpp"
#include "net/packet_pool.hpp"

namespace emptcp::app {
namespace {

constexpr sim::Duration kWifiAccessDelay = sim::milliseconds(2);
constexpr sim::Duration kCellAccessDelay = sim::milliseconds(15);

sim::Duration wan_delay(sim::Duration rtt, sim::Duration access) {
  const sim::Duration one_way = rtt / 2;
  return one_way > access ? one_way - access : sim::microseconds(100);
}

}  // namespace

net::InterfaceType classify_client_addr(net::Addr a) {
  switch (a % kAddrStride) {
    case kWifiAddr:
      return net::InterfaceType::kWifi;
    case kCellAddr:
      return net::InterfaceType::kLte;
    default:
      return net::InterfaceType::kEthernet;
  }
}

mptcp::MptcpConnection::Config make_mptcp_cfg(const ScenarioConfig& cfg,
                                              bool coupled) {
  mptcp::MptcpConnection::Config c = cfg.emptcp.mptcp;
  c.coupled_cc = coupled;
  c.classify_peer = classify_client_addr;
  return c;
}

World::World(const ScenarioConfig& cfg, std::uint64_t seed, Addressing addr)
    : scfg(cfg),
      addrs(addr),
      sim(seed),
      client(sim),
      server(sim),
      channel(sim, net::WifiChannel::Config{cfg.wifi.down_mbps, 0.008}),
      wifi_radio(cfg.device.wifi),
      cell_radio(cfg.cell_tech == energy::CellTech::kLte
                     ? cfg.device.lte
                     : cfg.device.threeg),
      tracker(sim, energy::EnergyTracker::Config{
                       sim::milliseconds(100), cfg.device.platform_mw,
                       cfg.record_series}) {
  // Enable tracing before any instrumented object exists so construction
  // -time events (handshakes scheduled at t=0) are captured too.
  if (cfg.trace) {
    sim.trace().set_level(cfg.trace_level);
    sim.trace().enable();
  }
  wifi_if = &client.add_interface(
      {net::InterfaceType::kWifi, addrs.wifi, "client-wifi"});
  // The cellular interface is typed kLte regardless of cell_tech: the
  // eMPTCP components key their cellular lookups on kLte, and the tech
  // only changes the energy parameters (cell_radio above).
  cell_if = &client.add_interface(
      {net::InterfaceType::kLte, addrs.cell, "client-cell"});
  srv_if = &server.add_interface(
      {net::InterfaceType::kEthernet, addrs.server, "server-eth"});

  auto mk = [this](double mbps, sim::Duration delay, double loss,
                   std::size_t queue, const char* name) {
    net::Link::Config lc;
    lc.rate_mbps = mbps;
    lc.prop_delay = delay;
    lc.loss_prob = loss;
    lc.queue_limit_bytes = queue;
    lc.name = name;
    return std::make_unique<net::Link>(sim, lc);
  };

  // WiFi path: client <-> AP (access) <-> Internet (wan) <-> server.
  wifi_acc_up = mk(cfg.wifi.up_mbps, kWifiAccessDelay, 0.0,
                   cfg.wifi.queue_bytes, "wifi-acc-up");
  wifi_wan_up = mk(1000.0, wan_delay(cfg.wifi.rtt, kWifiAccessDelay), 0.0,
                   1 << 20, "wifi-wan-up");
  wifi_wan_down = mk(1000.0, wan_delay(cfg.wifi.rtt, kWifiAccessDelay),
                     0.0, 1 << 20, "wifi-wan-down");
  wifi_acc_down = mk(cfg.wifi.down_mbps, kWifiAccessDelay, cfg.wifi.loss,
                     cfg.wifi.queue_bytes, "wifi-acc-down");

  // Cellular path.
  cell_acc_up = mk(cfg.cell.up_mbps, kCellAccessDelay, 0.0,
                   cfg.cell.queue_bytes, "cell-acc-up");
  cell_wan_up = mk(1000.0, wan_delay(cfg.cell.rtt, kCellAccessDelay), 0.0,
                   1 << 20, "cell-wan-up");
  cell_wan_down = mk(1000.0, wan_delay(cfg.cell.rtt, kCellAccessDelay),
                     0.0, 1 << 20, "cell-wan-down");
  cell_acc_down = mk(cfg.cell.down_mbps, kCellAccessDelay, cfg.cell.loss,
                     cfg.cell.queue_bytes, "cell-acc-down");

  // Wire the chains. Intermediate hops forward the pooled buffer with
  // chain_to (no per-hop copy); only the endpoints deliver by reference.
  wifi_if->set_default_route(*wifi_acc_up);
  wifi_acc_up->chain_to(*wifi_wan_up);
  wifi_wan_up->set_receiver(
      [this](const net::Packet& p) { srv_if->deliver(p); });
  cell_if->set_default_route(*cell_acc_up);
  cell_acc_up->chain_to(*cell_wan_up);
  cell_wan_up->set_receiver(
      [this](const net::Packet& p) { srv_if->deliver(p); });

  srv_if->add_route(addrs.wifi, *wifi_wan_down);
  srv_if->add_route(addrs.cell, *cell_wan_down);
  wifi_wan_down->chain_to(*wifi_acc_down);
  wifi_acc_down->set_receiver(
      [this](const net::Packet& p) { wifi_if->deliver(p); });
  cell_wan_down->chain_to(*cell_acc_down);
  cell_acc_down->set_receiver(
      [this](const net::Packet& p) { cell_if->deliver(p); });

  // The WiFi downlink is the contended medium the channel governs.
  channel.govern(*wifi_acc_down);

  tracker.track(*wifi_if, wifi_radio);
  tracker.track(*cell_if, cell_radio);

  if (cfg.fidelity == sim::Fidelity::kHybrid) {
    fast_path = std::make_unique<FastPath>(*this);
    // Any path-property change anywhere in the topology is a transient:
    // flows advancing analytically must drop back to packet level and
    // re-measure against the new path.
    const auto kick = [this] { fast_path->kick_all(); };
    for (net::Link* l :
         {wifi_acc_up.get(), wifi_wan_up.get(), wifi_wan_down.get(),
          wifi_acc_down.get(), cell_acc_up.get(), cell_wan_up.get(),
          cell_wan_down.get(), cell_acc_down.get()}) {
      l->set_transient_listener(kick);
    }
  }
}

World::~World() = default;

void World::start_dynamics() {
  if (scfg.wifi_onoff) {
    onoff.emplace(sim, *wifi_acc_down, scfg.onoff);
    onoff->also_govern(*wifi_acc_up);
    onoff->start();
  }
  for (int i = 0; i < scfg.interferers; ++i) {
    OnOffUdpSource::Config icfg;
    icfg.lambda_on = scfg.lambda_on;
    icfg.lambda_off = scfg.lambda_off;
    interferers.push_back(
        std::make_unique<OnOffUdpSource>(sim, channel, icfg));
    interferers.back()->start();
  }
  if (scfg.mobility) {
    mobility.emplace(sim, channel,
                     net::MobilityModel::umass_corridor_route());
    mobility->start();
  }
}

const core::EnergyInfoBase& World::eib() {
  if (shared_eib_) return *shared_eib_;
  if (!eib_) {
    eib_ = core::EnergyInfoBase::generate(
        scfg.device.model(scfg.cell_tech));
  }
  return *eib_;
}

core::BandwidthPredictor& World::predictor() {
  if (!predictor_) {
    predictor_ = std::make_unique<core::BandwidthPredictor>(
        sim, scfg.emptcp.predictor);
  }
  return *predictor_;
}

namespace {

/// Synthesises the 1-second (wifi, cell) bandwidth trace the MDP scheduler
/// learns its transition matrix from — the paper's "finite state machine of
/// throughput changes" — by replaying the scenario's configured dynamics.
std::vector<std::pair<double, double>> bandwidth_trace(
    const ScenarioConfig& cfg, std::uint64_t seed, int seconds = 900) {
  sim::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<std::pair<double, double>> trace;
  trace.reserve(static_cast<std::size_t>(seconds));

  bool onoff_high = cfg.onoff.start_high;
  double onoff_next = 0.0;
  std::vector<bool> station_on(static_cast<std::size_t>(cfg.interferers),
                               false);
  std::vector<double> station_next(
      static_cast<std::size_t>(cfg.interferers), 0.0);

  const net::MobilityModel::Config mob =
      net::MobilityModel::umass_corridor_route();

  for (int t = 0; t < seconds; ++t) {
    double wifi = cfg.wifi.down_mbps;
    if (cfg.wifi_onoff) {
      if (static_cast<double>(t) >= onoff_next) {
        onoff_high = !onoff_high;
        onoff_next = static_cast<double>(t) +
                     rng.exponential(onoff_high ? cfg.onoff.mean_high_s
                                                : cfg.onoff.mean_low_s);
      }
      wifi = onoff_high ? cfg.onoff.high_mbps : cfg.onoff.low_mbps;
    }
    int active = 0;
    for (std::size_t i = 0; i < station_on.size(); ++i) {
      if (static_cast<double>(t) >= station_next[i]) {
        station_on[i] = !station_on[i];
        const double rate = station_on[i] ? cfg.lambda_on : cfg.lambda_off;
        station_next[i] =
            static_cast<double>(t) + rng.exponential(1.0 / rate);
      }
      if (station_on[i]) ++active;
    }
    if (active > 0) wifi /= static_cast<double>(active + 1);
    if (cfg.mobility) {
      // Rate along the walking route, looped over the trace length.
      wifi = mob.rate_at(
          std::fmod(static_cast<double>(t), mob.route.back().t_s));
    }
    trace.emplace_back(wifi, cfg.cell.down_mbps);
  }
  return trace;
}

/// Standard MPTCP / single-path TCP / MDP client.
class MetaHandle final : public ClientConnHandle {
 public:
  MetaHandle(World& w, Protocol p, net::Addr server)
      : w_(w), proto_(p), server_(server) {
    const bool coupled = p == Protocol::kMptcp || p == Protocol::kMdp;
    meta_ = std::make_unique<mptcp::MptcpConnection>(
        w.sim, w.client, make_mptcp_cfg(w.scfg, coupled));

    if (p == Protocol::kMdp) {
      baseline::MdpScheduler::Config mcfg;
      mdp_.emplace(w.scfg.device.model(w.scfg.cell_tech), mcfg);
      mdp_->fit(bandwidth_trace(w.scfg, 12345));
      mdp_->solve();
      runner_ = std::make_unique<baseline::MdpRunner>(
          w.sim, *mdp_, *meta_, *w.wifi_if, *w.cell_if);
    }

    mptcp::MptcpConnection::Callbacks mcb;
    mcb.on_established = [this] {
      if (proto_ == Protocol::kMptcp || proto_ == Protocol::kMdp) {
        meta_->add_subflow(w_.addrs.cell);
      }
      if (cb_.on_established) cb_.on_established();
    };
    mcb.on_subflow_established = [this](mptcp::Subflow& sf) {
      if (runner_ && sf.iface() != net::InterfaceType::kWifi) {
        runner_->start();
      }
    };
    mcb.on_data = [this](std::uint64_t n) {
      if (cb_.on_data) cb_.on_data(n);
    };
    mcb.on_eof = [this] {
      if (cb_.on_eof) cb_.on_eof();
    };
    mcb.on_closed = [this] {
      if (runner_) runner_->stop();
      if (cb_.on_closed) cb_.on_closed();
    };
    meta_->set_callbacks(std::move(mcb));
  }

  void set_callbacks(Callbacks cb) override { cb_ = std::move(cb); }
  void set_app_tag(std::uint32_t tag) override { meta_->set_app_tag(tag); }
  void connect() override {
    const net::Addr local =
        proto_ == Protocol::kTcpLte ? w_.addrs.cell : w_.addrs.wifi;
    meta_->connect(local, server_, kPort);
  }
  void send(std::uint64_t bytes) override { meta_->send(bytes); }
  void shutdown_write() override { meta_->shutdown_write(); }
  [[nodiscard]] std::uint64_t bytes_received() const override {
    return meta_->data_bytes_received();
  }
  [[nodiscard]] std::uint64_t bytes_acked() const override {
    return meta_->data_bytes_acked();
  }

 private:
  World& w_;
  Protocol proto_;
  net::Addr server_;
  Callbacks cb_;
  std::unique_ptr<mptcp::MptcpConnection> meta_;
  std::optional<baseline::MdpScheduler> mdp_;
  std::unique_ptr<baseline::MdpRunner> runner_;
};

/// eMPTCP and WiFi-First: connections that open both subflows themselves,
/// from the device's two addresses, behind the same API.
template <class Conn>
class DualPathHandle final : public ClientConnHandle {
 public:
  DualPathHandle(World& w, net::Addr server, std::unique_ptr<Conn> conn)
      : w_(w), server_(server), conn_(std::move(conn)) {}

  void set_callbacks(Callbacks cb) override {
    typename Conn::Callbacks c;
    c.on_established = std::move(cb.on_established);
    c.on_data = std::move(cb.on_data);
    c.on_eof = std::move(cb.on_eof);
    c.on_closed = std::move(cb.on_closed);
    conn_->set_callbacks(std::move(c));
  }
  void set_app_tag(std::uint32_t tag) override {
    conn_->mptcp().set_app_tag(tag);
  }
  void connect() override {
    conn_->connect(w_.addrs.wifi, w_.addrs.cell, server_, kPort);
  }
  void send(std::uint64_t bytes) override { conn_->send(bytes); }
  void shutdown_write() override { conn_->shutdown_write(); }
  [[nodiscard]] std::uint64_t bytes_received() const override {
    return conn_->mptcp().data_bytes_received();
  }
  [[nodiscard]] std::uint64_t bytes_acked() const override {
    return conn_->mptcp().data_bytes_acked();
  }
  [[nodiscard]] std::uint64_t controller_switches() const override {
    if constexpr (std::is_same_v<Conn, core::EmptcpConnection>) {
      return conn_->controller().switch_count();
    }
    return 0;
  }

 private:
  World& w_;
  net::Addr server_;
  std::unique_ptr<Conn> conn_;
};

stats::Series to_series(
    const std::vector<energy::EnergyTracker::SeriesPoint>& pts) {
  stats::Series s;
  s.reserve(pts.size());
  for (const auto& p : pts) s.push_back(stats::Point{p.t_s, p.cumulative_j});
  return s;
}

stats::Series to_series(
    const std::vector<energy::EnergyTracker::RatePoint>& pts) {
  stats::Series s;
  s.reserve(pts.size());
  for (const auto& p : pts) s.push_back(stats::Point{p.t_s, p.mbps});
  return s;
}

}  // namespace

std::unique_ptr<ClientConnHandle> make_client(World& w, Protocol p,
                                              net::Addr server) {
  switch (p) {
    case Protocol::kEmptcp: {
      core::EmptcpConfig cfg = w.scfg.emptcp;
      cfg.mptcp = make_mptcp_cfg(w.scfg, /*coupled=*/true);
      return std::make_unique<DualPathHandle<core::EmptcpConnection>>(
          w, server,
          std::make_unique<core::EmptcpConnection>(
              w.sim, w.client, std::move(cfg), w.eib(), &w.predictor()));
    }
    case Protocol::kWifiFirst:
      return std::make_unique<DualPathHandle<baseline::WifiFirstConnection>>(
          w, server,
          std::make_unique<baseline::WifiFirstConnection>(
              w.sim, w.client, make_mptcp_cfg(w.scfg, /*coupled=*/true)));
    default:
      return std::make_unique<MetaHandle>(w, p, server);
  }
}

RunMetrics collect_totals(const std::vector<World*>& worlds, bool completed,
                          double download_time_s,
                          std::uint64_t bytes_received) {
  RunMetrics m;
  m.completed = completed;
  m.download_time_s = download_time_s;
  m.bytes_received = bytes_received;
  std::uint64_t wifi_rx = 0;
  std::uint64_t cell_rx = 0;
  for (World* w : worlds) {
    m.energy_j += w->tracker.total_j();
    m.wifi_j += w->tracker.iface_j(w->wifi_if->type());
    m.cell_j += w->tracker.iface_j(w->cell_if->type());
    wifi_rx += w->wifi_if->rx_bytes();
    cell_rx += w->cell_if->rx_bytes();
    m.cellular_used = m.cellular_used || w->cell_if->rx_bytes() > 5000;
    m.cellular_activations += static_cast<int>(w->cell_radio.activations());
    m.profile.sched_slab_slots += w->sim.scheduler().slab_size();
    m.profile.packet_pool_slots +=
        w->sim.context<net::PacketPool>().allocated();
  }
  if (download_time_s > 0.0) {
    m.mean_wifi_mbps =
        static_cast<double>(wifi_rx) * 8.0 / 1e6 / download_time_s;
    m.mean_cell_mbps =
        static_cast<double>(cell_rx) * 8.0 / 1e6 / download_time_s;
  }
  return m;
}

RunMetrics collect_core(World& w, bool completed, double download_time_s,
                        std::uint64_t bytes_received,
                        std::uint64_t controller_switches) {
  RunMetrics m =
      collect_totals({&w}, completed, download_time_s, bytes_received);
  m.controller_switches = controller_switches;
  m.profile.events_executed = w.sim.scheduler().events_executed();
  if (w.scfg.record_series) {
    m.energy_series = to_series(w.tracker.energy_series());
    m.wifi_rate_series = to_series(w.tracker.rate_series(w.wifi_if->type()));
    m.cell_rate_series = to_series(w.tracker.rate_series(w.cell_if->type()));
  }
  if (w.scfg.trace) {
    // Record the headline results as run.* gauges before snapshotting, so
    // the serialized trace carries them and the analysis layer can rebuild
    // every reported number from the trace alone.
    trace::Metrics& reg = w.sim.trace().metrics();
    reg.gauge("run.completed").set(completed ? 1.0 : 0.0);
    reg.gauge("run.download_time_s").set(download_time_s);
    reg.gauge("run.energy_j").set(m.energy_j);
    reg.gauge("run.wifi_j").set(m.wifi_j);
    reg.gauge("run.cell_j").set(m.cell_j);
    reg.gauge("run.bytes_received")
        .set(static_cast<double>(bytes_received));
    reg.gauge("sim.events_executed")
        .set(static_cast<double>(m.profile.events_executed));
    if (w.fast_path != nullptr) {
      reg.gauge("run.fluid_bytes")
          .set(static_cast<double>(w.fast_path->fluid_bytes()));
      reg.gauge("run.fluid_entries")
          .set(static_cast<double>(w.fast_path->fluid_entries()));
    }
    m.trace_events = w.sim.trace().events();
    m.trace_metrics = reg.snapshot();
    m.profile.trace_events = m.trace_events.size();
  }
  return m;
}

void advance_until(World& w, const std::function<bool()>& done,
                   sim::Time deadline) {
  while (!done() && w.sim.now() < deadline) {
    w.sim.run_until(std::min(w.sim.now() + sim::milliseconds(200), deadline));
  }
}

void drain_tails(World& w, sim::Duration max_drain) {
  const sim::Time end = w.sim.now() + max_drain;
  advance_until(
      w, [&] { return w.tracker.all_idle(); }, end);
}

}  // namespace emptcp::app
