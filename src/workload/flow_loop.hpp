// FlowLoop: the per-World flow driver both fleets share.
//
// One loop serves its world's flows from the world's FileServer, launches
// each as the configured application (FleetConfig::application: download,
// upload, stream or web page) on fresh client connections, with a
// FlowRecord and flow_start / flow_complete trace events (plus a stream
// record for a stream), attributes it an energy share, and keeps the
// workload going: the next request after a think time (closed loop) or the
// next arrival (open loop). It is written in the sharded form: the world is
// cell `cell` of `cells` and its k-th flow has global id g = cell + k*cells.
// ClientFleet owns the one-cell case (g = k), ShardedFleet one loop per
// cell, and Scenario one client's one flow; the owners keep what differs —
// World seeds, how sizes are drawn and resolved, and how the worlds
// advance.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "workload/fleet.hpp"

namespace emptcp::workload {

class FlowLoop {
 public:
  /// The world is cell `cell` of `cells`, hosting `clients` clients
  /// numbered from `client_base`.
  struct Place {
    std::size_t cell = 0, cells = 1, clients = 0;
    std::uint32_t client_base = 0;
  };
  /// Size of global flow g: a download's response, an upload's payload.
  using SizeFn = std::function<std::uint64_t(std::uint64_t g)>;

  /// Builds the world's FileServer; nothing runs until start(). `cfg`
  /// must outlive the loop; `arrival` is this world's open-loop process.
  /// A given `size` must be a pure function of g: the server then answers
  /// any cell's flow from it, cross-cell requests included. Without one,
  /// sizes come from cfg.flow_size, drawn from the world's Rng at launch,
  /// and the server answers from the records. Either way a flow names
  /// itself by its app tag (g + 1): accept order follows connect order only
  /// on loss-free paths, and a dropped SYN would permute the served sizes.
  FlowLoop(const FleetConfig& cfg, app::World& w, Place place,
           ArrivalProcess arrival, SizeFn size = {});
  ~FlowLoop();

  /// Starts the tracker and the dynamics, then every closed-loop client's
  /// first flow or the first open-loop arrival.
  void start();
  /// No flow is in progress and none will start: a finite closed-loop
  /// budget is spent, or open-loop arrivals ended and all flows completed.
  [[nodiscard]] bool done() const;

  [[nodiscard]] std::uint64_t started() const { return records_.size(); }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// The flow records, in-progress flows stamped with the bytes delivered
  /// so far (delivered <= bytes, equal on completion).
  const std::vector<FlowRecord>& collect();

  /// Path-usage switches of flow k's connection (0 for a web page).
  [[nodiscard]] std::uint64_t controller_switches(std::size_t k) const;
  /// Flow k's stream player; nullptr unless the application streams.
  [[nodiscard]] const app::VideoStreamClient* player(std::size_t k) const;

 private:
  struct Flow;

  void launch(std::uint32_t local_client);
  /// Bytes flow k moved so far (FlowRecord::delivered).
  [[nodiscard]] std::uint64_t delivered(std::size_t k) const;
  /// The device's bytes that weigh a flow's energy share: received, or
  /// sent for uploads.
  [[nodiscard]] std::uint64_t device_bytes() const;
  void on_done(std::size_t k);
  void schedule_next_arrival();

  const FleetConfig& cfg_;
  app::World& w_;
  const Place place_;
  const ArrivalProcess arrival_;
  const SizeFn size_;  ///< empty: cfg.flow_size
  const std::size_t budget_;  ///< clients * flows_per_client; 0 = endless
  std::unique_ptr<app::FileServer> server_;
  std::vector<FlowRecord> records_;  ///< k-th launched flow; id is g
  std::vector<Flow> flows_;          ///< parallel to records_
  std::vector<std::size_t> done_per_client_;  ///< closed loop
  std::uint64_t completed_ = 0;
  std::size_t arrivals_issued_ = 0;
  double last_arrival_s_ = 0.0;
  bool arrivals_done_ = false;  ///< open loop: no further arrivals coming
};

/// Folds completed flows into `m`'s FCT and energy-per-bit histograms and
/// returns their bytes.
std::uint64_t fold_flows(FleetMetrics& m);

}  // namespace emptcp::workload
