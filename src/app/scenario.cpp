#include "app/scenario.hpp"

#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "app/bulk_download.hpp"
#include "app/world.hpp"

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

/// The skeleton every Scenario::run_* shares: the world and its file
/// server, then the caller's application (built before drive(), so its
/// clients exist before the tracker starts), then drive().
struct Run {
  Run(const ScenarioConfig& cfg, std::uint64_t seed, bool close_after_response,
      std::function<std::uint64_t(std::size_t, std::size_t)> resolver,
      std::uint64_t request_bytes)
      : w(cfg, seed),
        server(w.sim, w.server,
               {.port = kPort,
                .request_bytes = request_bytes,
                .close_after_response = close_after_response,
                .resolver = std::move(resolver),
                .mptcp = make_mptcp_cfg(cfg, true)}) {}

  /// Starts the tracker, the dynamics and then the application; runs until
  /// finish() (bounded by max_sim_time), then through the radio tails if it
  /// finished. With a `horizon`, runs exactly that long instead, with no
  /// drain. Returns whether the application finished.
  bool drive(const std::function<void()>& start_app,
             std::optional<sim::Duration> horizon = std::nullopt) {
    w.tracker.start();
    w.start_dynamics();
    start_app();
    if (horizon) {
      w.sim.run_until(*horizon);
    } else {
      advance_until(w, [this] { return done_at.has_value(); },
                    w.scfg.max_sim_time);
      if (done_at) drain_tails(w, w.scfg.max_drain);
    }
    w.tracker.stop();
    return horizon || done_at;
  }

  /// The application's completion callback.
  void finish() { done_at = sim::to_seconds(w.sim.now()); }
  /// When the application finished, or now if it never did.
  [[nodiscard]] double end_s() const {
    return done_at.value_or(sim::to_seconds(w.sim.now()));
  }

  World w;
  FileServer server;
  std::optional<double> done_at;
};

}  // namespace

RunMetrics Scenario::run_download(Protocol p, std::uint64_t bytes,
                                  std::uint64_t seed) {
  Run run(
      cfg_, seed, /*close_after_response=*/true,
      [bytes](std::size_t, std::size_t req) { return req == 0 ? bytes : 0; },
      cfg_.request_bytes);
  auto client = make_client(run.w, p);
  ClientConnHandle::Callbacks cb;
  cb.on_established = [&] { client->send(cfg_.request_bytes); };
  cb.on_eof = [&] {
    run.finish();
    client->shutdown_write();
  };
  client->set_callbacks(std::move(cb));
  const bool completed = run.drive([&] { client->connect(); });
  return collect(run.w, *client, completed, run.end_s());
}

RunMetrics Scenario::run_upload(Protocol p, std::uint64_t bytes,
                                std::uint64_t seed) {
  // The server is a pure sink: it never responds, and half-closes its own
  // write side once the client finishes uploading.
  Run run(
      cfg_, seed, /*close_after_response=*/false,
      [](std::size_t, std::size_t) { return 0; }, cfg_.request_bytes);
  auto client = make_client(run.w, p);
  ClientConnHandle::Callbacks cb;
  cb.on_established = [&] {
    client->send(bytes);
    client->shutdown_write();
  };
  cb.on_closed = [&] { run.finish(); };
  client->set_callbacks(std::move(cb));
  const bool completed = run.drive([&] { client->connect(); });

  RunMetrics m = collect(run.w, *client, completed, run.end_s());
  // For uploads the interesting byte count is what the device pushed out.
  m.bytes_received = completed ? bytes : 0;
  if (m.download_time_s > 0.0) {
    m.mean_wifi_mbps = static_cast<double>(run.w.wifi_if->tx_bytes()) *
                       8.0 / 1e6 / m.download_time_s;
    m.mean_cell_mbps = static_cast<double>(run.w.cell_if->tx_bytes()) *
                       8.0 / 1e6 / m.download_time_s;
  }
  return m;
}

RunMetrics Scenario::run_timed(Protocol p, sim::Duration duration,
                               std::uint64_t seed) {
  // An endless stream: one effectively unbounded response.
  Run run(
      cfg_, seed, /*close_after_response=*/false,
      [](std::size_t, std::size_t req) {
        return req == 0 ? std::uint64_t{1} << 40 : 0;
      },
      cfg_.request_bytes);
  auto client = make_client(run.w, p);
  ClientConnHandle::Callbacks cb;
  cb.on_established = [&] { client->send(cfg_.request_bytes); };
  client->set_callbacks(std::move(cb));
  run.drive([&] { client->connect(); }, duration);
  return collect(run.w, *client, true, sim::to_seconds(duration));
}

RunMetrics Scenario::run_stream(Protocol p,
                                VideoStreamClient::Config stream,
                                std::uint64_t seed) {
  // The server answers every request with one media chunk.
  Run run(
      cfg_, seed, /*close_after_response=*/false,
      [chunk = stream.chunk_bytes](std::size_t, std::size_t) { return chunk; },
      stream.request_bytes);
  VideoStreamClient player(run.w.sim, stream, make_client(run.w, p),
                           [&] { run.finish(); });
  const bool completed = run.drive([&] { player.start(); });

  RunMetrics m = collect(run.w, player.connection(), completed, run.end_s());
  m.startup_delay_s = player.stats().started_at_s;
  m.stall_time_s = player.stats().stall_time_s;
  m.rebuffer_events = player.stats().rebuffer_events;
  return m;
}

RunMetrics Scenario::run_web_page(Protocol p, const WebPage& page,
                                  std::size_t parallel, std::uint64_t seed) {
  // Persistent connections: the server half-closes only when the client
  // does.
  Run run(
      cfg_, seed, /*close_after_response=*/false,
      [&page, parallel](std::size_t conn, std::size_t req) {
        return page.object_for(conn, req, parallel);
      },
      cfg_.request_bytes);
  WebBrowserClient::Config bcfg;
  bcfg.parallel = parallel;
  bcfg.request_bytes = cfg_.request_bytes;
  // The browser opens its connections in start(), after the tracker.
  WebBrowserClient browser(
      page, bcfg, [&] { return make_client(run.w, p); },
      [&] { run.finish(); });
  const bool completed = run.drive([&] { browser.start(); });
  return collect_core(run.w, completed, run.end_s(), browser.bytes_received(),
                      0);
}

}  // namespace emptcp::app
