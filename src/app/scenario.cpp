#include "app/scenario.hpp"

#include <optional>

#include "app/world.hpp"
#include "workload/flow_loop.hpp"

namespace emptcp::app {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kTcpWifi: return "TCP/WiFi";
    case Protocol::kTcpLte: return "TCP/LTE";
    case Protocol::kMptcp: return "MPTCP";
    case Protocol::kEmptcp: return "eMPTCP";
    case Protocol::kWifiFirst: return "WiFi-First";
    case Protocol::kMdp: return "MDP";
  }
  return "?";
}

std::optional<Protocol> protocol_from_string(std::string_view name) {
  // Accepts both the display names above and spec-friendly lowercase
  // aliases (no slashes), so campaign files read naturally.
  constexpr std::pair<std::string_view, Protocol> kNames[] = {
      {"TCP/WiFi", Protocol::kTcpWifi}, {"tcp-wifi", Protocol::kTcpWifi},
      {"TCP/LTE", Protocol::kTcpLte},   {"tcp-lte", Protocol::kTcpLte},
      {"MPTCP", Protocol::kMptcp},      {"mptcp", Protocol::kMptcp},
      {"eMPTCP", Protocol::kEmptcp},    {"emptcp", Protocol::kEmptcp},
      {"WiFi-First", Protocol::kWifiFirst},
      {"wifi-first", Protocol::kWifiFirst},
      {"MDP", Protocol::kMdp},          {"mdp", Protocol::kMdp},
  };
  for (const auto& [n, p] : kNames) {
    if (name == n) return p;
  }
  return std::nullopt;
}

namespace {

/// One client running one flow of `application` (of `bytes`, for a
/// download or an upload) through World + workload::FlowLoop: until the
/// flow completes, then through the radio tails, or with a `horizon`
/// exactly that long. The run's time is its flow's completion, not the end
/// of the drain as for a fleet.
RunMetrics run_flow(const ScenarioConfig& cfg, Protocol p,
                    workload::Application application, std::uint64_t bytes,
                    std::uint64_t seed,
                    std::optional<sim::Duration> horizon = std::nullopt) {
  workload::FleetConfig fc;
  fc.scenario = cfg;
  fc.protocol = p;
  fc.application = application;
  fc.clients = 1;
  fc.flows_per_client = 1;
  fc.flow_size = {.mean_bytes = bytes, .min_bytes = 0, .max_bytes = ~0ULL};
  World w(fc.scenario, seed);
  workload::FlowLoop loop(fc, w, {.clients = 1}, {});
  loop.start();
  if (horizon) {
    w.sim.run_until(*horizon);
  } else {
    advance_until(w, [&] { return loop.done(); }, cfg.max_sim_time);
    if (loop.done()) drain_tails(w, cfg.max_drain);
  }
  w.tracker.stop();

  const workload::FlowRecord& f = loop.collect().front();
  const double time_s = horizon       ? sim::to_seconds(*horizon)
                        : f.completed ? f.end_s
                                      : sim::to_seconds(w.sim.now());
  RunMetrics m = collect_core(w, horizon || f.completed, time_s, f.delivered,
                              loop.controller_switches(0));
  if (const VideoStreamClient* player = loop.player(0)) {
    m.startup_delay_s = player->stats().started_at_s;
    m.stall_time_s = player->stats().stall_time_s;
    m.rebuffer_events = player->stats().rebuffer_events;
  }
  if (application.kind == workload::Application::Kind::kUpload &&
      time_s > 0.0) {
    // An upload's rates are what the device sent.
    m.mean_wifi_mbps =
        static_cast<double>(w.wifi_if->tx_bytes()) * 8.0 / 1e6 / time_s;
    m.mean_cell_mbps =
        static_cast<double>(w.cell_if->tx_bytes()) * 8.0 / 1e6 / time_s;
  }
  return m;
}

}  // namespace

RunMetrics Scenario::run_download(Protocol p, std::uint64_t bytes,
                                  std::uint64_t seed) {
  return run_flow(cfg_, p, {}, bytes, seed);
}

RunMetrics Scenario::run_upload(Protocol p, std::uint64_t bytes,
                                std::uint64_t seed) {
  return run_flow(cfg_, p, {.kind = workload::Application::Kind::kUpload},
                  bytes, seed);
}

RunMetrics Scenario::run_timed(Protocol p, sim::Duration duration,
                               std::uint64_t seed) {
  return run_flow(cfg_, p, {}, std::uint64_t{1} << 40, seed, duration);
}

RunMetrics Scenario::run_stream(Protocol p,
                                VideoStreamClient::Config stream,
                                std::uint64_t seed) {
  return run_flow(cfg_, p,
                  {.kind = workload::Application::Kind::kStream,
                   .stream = stream},
                  0, seed);
}

RunMetrics Scenario::run_web_page(Protocol p, const WebPage& page,
                                  std::size_t parallel, std::uint64_t seed) {
  return run_flow(cfg_, p,
                  {.kind = workload::Application::Kind::kWebPage,
                   .page = &page,
                   .parallel = parallel},
                  0, seed);
}

}  // namespace emptcp::app
