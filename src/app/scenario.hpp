// Scenario: one self-contained experiment run.
//
// Reproduces the paper's testbed (§4.1): a mobile client with WiFi and LTE
// interfaces, a wired server reachable over both paths, a device energy
// model, and the workload applications. Each run builds a fresh World from
// (config, seed) and runs one client's one flow of its application —
// download, upload, stream or web page — through workload::FlowLoop, the
// flow driver the fleets and campaign cells share, so a one-client,
// one-flow campaign cell is the same run. It returns the measurements the
// paper reports: total energy, the flow's completion time (not the end of
// the radio-tail drain, which a fleet's time is), bytes, and the trace
// series behind the time-series figures.
//
// Scenario knobs map one-to-one onto the paper's experiments:
//   * static good/bad WiFi          -> PathParams rates (Figs. 5, 6)
//   * random on-off WiFi bandwidth  -> wifi_onoff (Figs. 7, 8)
//   * interfering stations          -> interferers + lambdas (Figs. 9, 10)
//   * walking route                 -> mobility (Figs. 12, 13)
//   * server location               -> PathParams RTTs (Figs. 14-16)
//   * web page                      -> run_web_page (Fig. 17)
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "app/streaming.hpp"
#include "app/web_browser.hpp"
#include "core/emptcp_connection.hpp"
#include "energy/device_profile.hpp"
#include "net/channel/mobility.hpp"
#include "net/channel/onoff_bandwidth.hpp"
#include "sim/fidelity.hpp"
#include "stats/timeseries.hpp"
#include "trace/sink.hpp"

namespace emptcp::app {

enum class Protocol {
  kTcpWifi,     ///< single-path TCP over WiFi (paper baseline)
  kTcpLte,      ///< single-path TCP over LTE
  kMptcp,       ///< standard MPTCP, both subflows from the start
  kEmptcp,      ///< the paper's system
  kWifiFirst,   ///< Raiciu et al. [28] (§4.6)
  kMdp,         ///< Pluntke et al. [24] MDP scheduler (§4.6)
};

const char* to_string(Protocol p);

/// Inverse of to_string, also accepting lowercase spec aliases
/// ("tcp-wifi", "emptcp", ...); nullopt for unknown names.
std::optional<Protocol> protocol_from_string(std::string_view name);

struct PathParams {
  double down_mbps = 10.0;
  double up_mbps = 6.0;
  sim::Duration rtt = sim::milliseconds(30);  ///< end-to-end propagation RTT
  double loss = 0.0;
  std::size_t queue_bytes = 192 * 1024;
};

struct ScenarioConfig {
  PathParams wifi;
  PathParams cell{.down_mbps = 9.0,
                  .up_mbps = 5.0,
                  .rtt = sim::milliseconds(60),
                  .loss = 0.0,
                  .queue_bytes = 256 * 1024};
  energy::DeviceProfile device = energy::DeviceProfile::galaxy_s3();
  energy::CellTech cell_tech = energy::CellTech::kLte;

  // Dynamics (mutually combinable, though the paper uses one at a time).
  bool wifi_onoff = false;
  net::OnOffBandwidth::Config onoff;
  int interferers = 0;
  double lambda_on = 0.05;
  double lambda_off = 0.05;
  bool mobility = false;

  // Protocol parameters.
  core::EmptcpConfig emptcp;
  std::uint64_t request_bytes = 200;

  // Run control.
  /// Simulation fidelity: kPacket is the full per-packet model; kHybrid
  /// adds the macro-step fast path (app::FastPath, DESIGN.md §13) that
  /// advances quiescent flows analytically. Metrics must agree within the
  /// documented tolerances; traces legitimately differ.
  sim::Fidelity fidelity = sim::Fidelity::kPacket;
  sim::Duration max_sim_time = sim::seconds(4 * 3600);
  sim::Duration max_drain = sim::seconds(20);
  bool record_series = true;
  /// Enable the structured trace sink for the run; the recorded events and
  /// metric snapshot come back in RunMetrics::trace_events/trace_metrics.
  bool trace = false;
  /// What a traced run keeps (trace::Level): kFull, every kind, for the
  /// benches, goldens and the fuzzer's digests; kDecisions, without the
  /// per-ACK kinds (counted instead), for campaign cells.
  trace::Level trace_level = trace::Level::kFull;
};

/// Simulator-internals snapshot taken at the end of a run: how much work
/// the event core did and how large the run-scoped slabs grew. These are
/// self-profiling diagnostics (deterministic per (scenario, seed)), not
/// measurements of the modeled system.
struct SimProfile {
  std::uint64_t events_executed = 0;   ///< scheduler actions fired
  std::size_t sched_slab_slots = 0;    ///< event-slab high-water mark
  std::size_t packet_pool_slots = 0;   ///< PacketPool high-water mark
  std::size_t trace_events = 0;        ///< retained trace records
};

struct RunMetrics {
  bool completed = false;
  double download_time_s = 0.0;
  double energy_j = 0.0;
  double wifi_j = 0.0;
  double cell_j = 0.0;
  std::uint64_t bytes_received = 0;
  double mean_wifi_mbps = 0.0;  ///< rx (an upload's tx) average over the run
  double mean_cell_mbps = 0.0;
  bool cellular_used = false;
  std::uint64_t controller_switches = 0;
  int cellular_activations = 0;

  // Streaming-only metrics (run_stream).
  double startup_delay_s = 0.0;
  double stall_time_s = 0.0;
  int rebuffer_events = 0;

  stats::Series energy_series;     ///< cumulative joules vs seconds
  stats::Series wifi_rate_series;  ///< Mbps vs seconds
  stats::Series cell_rate_series;

  // Populated when ScenarioConfig::trace is set (serialize with
  // stats::trace_to_jsonl). The metric snapshot includes
  // the run.* summary gauges, so a serialized trace alone is sufficient to
  // reproduce the headline numbers (see analysis/rollup.hpp).
  std::vector<trace::Event> trace_events;
  std::vector<trace::MetricSnapshot> trace_metrics;

  SimProfile profile;

  [[nodiscard]] double energy_per_mb() const {
    return bytes_received > 0
               ? energy_j / (static_cast<double>(bytes_received) / 1e6)
               : 0.0;
  }
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg) : cfg_(std::move(cfg)) {}

  /// Download `bytes` once; measures completion time and energy including
  /// the post-download radio tail (as the paper's measurements do).
  RunMetrics run_download(Protocol p, std::uint64_t bytes,
                          std::uint64_t seed);

  /// Mobility-style run: download an effectively unbounded file for a fixed
  /// wall-clock duration; reports bytes moved and energy in that window.
  RunMetrics run_timed(Protocol p, sim::Duration duration,
                       std::uint64_t seed);

  /// Upload `bytes` from the device to the server (the paper's §7 "upload
  /// scenarios" future work). Completion is the device's write side fully
  /// acknowledged and closed; energy includes the radio tails.
  RunMetrics run_upload(Protocol p, std::uint64_t bytes, std::uint64_t seed);

  /// Fetch a whole page over `parallel` persistent connections (§5.4).
  RunMetrics run_web_page(Protocol p, const WebPage& page,
                          std::size_t parallel, std::uint64_t seed);

  /// Play a chunked video stream to completion (§7 future work). Reports
  /// startup delay, rebuffering and energy.
  RunMetrics run_stream(Protocol p, VideoStreamClient::Config stream,
                        std::uint64_t seed);

 private:
  ScenarioConfig cfg_;
};

}  // namespace emptcp::app
