// ClientFleet: a population of concurrent connections in one simulation.
//
// Scales the paper's single-connection testbed to N independent clients
// (each its own eMPTCP / baseline-TCP connection) contending on the shared
// WiFi/LTE bottlenecks of one World. Two driving disciplines:
//   * closed loop — each client cycles request -> download -> think ->
//     next request, the classic closed queueing model for user sessions;
//   * open loop — an arrival process (Poisson / deterministic / trace)
//     injects flows regardless of completions, the load model for
//     aggregate-traffic experiments.
//
// Every flow runs the fleet's application (a download of a sampled size by
// default; an upload, a stream or a web page) on fresh connections against
// the shared FileServer, and its completion yields a FlowRecord (FCT +
// estimated energy share). Records feed the trace sink as
// flow_start/flow_complete events, so campaign rollups rebuild per-flow FCT
// and energy-per-bit distributions (analysis::LogHistogram) from the
// serialized trace alone.
// The flows themselves are driven by workload::FlowLoop (flow_loop.hpp),
// the loop ShardedFleet runs per cell; ClientFleet owns the one-cell case.
//
// Determinism: all draws come from the World's seeded Rng in simulation
// order, so fleet output is a pure function of (config, seed) — the same
// guarantee single runs have, preserved under parallel replication.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/histogram.hpp"
#include "analysis/perf_report.hpp"
#include "app/scenario.hpp"
#include "workload/distributions.hpp"

namespace emptcp::app {
struct World;
class FileServer;
}  // namespace emptcp::app

namespace emptcp::workload {

/// How a fleet is partitioned across ShardEngine places (workload::
/// ShardedFleet). Results are a pure function of the *cell* structure
/// (clients_per_cell, cross_every, backbone parameters); `shards` only
/// maps cells onto worker threads and never changes any output byte.
struct ShardingConfig {
  /// Clients hosted per cell; 0 = unsharded (single-World ClientFleet).
  std::size_t clients_per_cell = 0;
  /// Worker threads executing the cells (0 = EMPTCP_JOBS-derived default).
  std::size_t shards = 1;
  /// Every cross_every-th flow of cell i fetches from cell (i+1)%C's
  /// server over the backbone; 0 = all traffic stays cell-local.
  std::size_t cross_every = 0;
  /// Backbone ring links coupling adjacent cells.
  double backbone_mbps = 1000.0;
  sim::Duration backbone_delay = sim::milliseconds(10);
};

/// The application every flow of a fleet runs (DESIGN.md §9.1).
struct Application {
  enum class Kind : std::uint8_t {
    kDownload,  ///< fetch the flow's size; done at EOF
    kUpload,    ///< send the flow's size and half-close; done at close
    kStream,    ///< play `stream`, one chunk per request; done at its end
    kWebPage,   ///< load `page` over `parallel` connections
  };
  Kind kind = Kind::kDownload;
  app::VideoStreamClient::Config stream{};
  const app::WebPage* page = nullptr;  ///< must outlive the fleet
  std::size_t parallel = 6;
};

struct FleetConfig {
  app::ScenarioConfig scenario;
  app::Protocol protocol = app::Protocol::kEmptcp;
  Application application;

  enum class Mode : std::uint8_t { kClosed, kOpen };
  Mode mode = Mode::kClosed;

  std::size_t clients = 8;          ///< concurrent sessions (closed loop)
  std::size_t flows_per_client = 4; ///< flow budget per client; 0 = endless
  SizeDist flow_size;
  ThinkTime think;                  ///< closed loop only
  ArrivalProcess arrival;           ///< open loop only
  ShardingConfig sharding;          ///< cell partitioning (ShardedFleet)

  [[nodiscard]] std::size_t total_flows() const {
    return flows_per_client == 0 ? 0 : clients * flows_per_client;
  }
  /// Number of cells the sharded engine would partition this fleet into.
  [[nodiscard]] std::size_t cell_count() const {
    if (sharding.clients_per_cell == 0) return 1;
    const std::size_t c =
        (clients + sharding.clients_per_cell - 1) / sharding.clients_per_cell;
    return c == 0 ? 1 : c;
  }
};

struct FlowRecord {
  std::uint32_t id = 0;       ///< flow index == server connection index
  std::uint32_t client = 0;
  std::uint64_t bytes = 0;    ///< sampled size (a stream's or page's total)
  /// In-order bytes the client received; for an upload, the bytes the
  /// server acknowledged.
  std::uint64_t delivered = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  bool completed = false;
  double energy_j_est = 0.0;  ///< device energy share (overlap-weighted)

  [[nodiscard]] double fct_s() const { return end_s - start_s; }
  [[nodiscard]] double energy_per_bit_uj() const {
    return bytes > 0 ? energy_j_est * 1e6 / (static_cast<double>(bytes) * 8.0)
                     : 0.0;
  }
};

struct FleetMetrics {
  app::RunMetrics run;           ///< world-level totals (shared semantics)
  std::vector<FlowRecord> flows;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  analysis::LogHistogram fct_hist;      ///< completed-flow FCT (seconds)
  analysis::LogHistogram epb_hist;      ///< completed-flow energy (µJ/bit)
  /// Engine telemetry sidecar (sharded runs with runtime::Telemetry
  /// enabled only). Wall-clock data: never serialized into deterministic
  /// artifacts — campaign/bench writers route it to EMPTCP_PERF_DIR.
  std::optional<analysis::PerfDoc> perf;
};

class FlowLoop;

class ClientFleet {
 public:
  explicit ClientFleet(FleetConfig cfg);
  ~ClientFleet();

  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  /// Runs the whole fleet to completion (done(), or scenario.max_sim_time
  /// reached) and collects.
  FleetMetrics run(std::uint64_t seed);

  // Incremental driving, for harnesses that measure steady state
  // (bench_micro): start() builds the world and launches the workload,
  // run_until() advances, finish() collects. run() is the composition.
  void start(std::uint64_t seed);
  void run_until(double t_s);
  FleetMetrics finish();

  [[nodiscard]] app::World& world();
  /// run()'s stop predicate: no flow is in progress and none will start
  /// (FlowLoop::done). Drivers that advance world() themselves, such as
  /// the fuzzer, stop on it too.
  [[nodiscard]] bool done() const;

 private:
  FleetConfig cfg_;
  std::unique_ptr<app::World> world_;
  std::unique_ptr<FlowLoop> flows_;  ///< the one cell: every client
};

}  // namespace emptcp::workload
