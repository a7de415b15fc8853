// ShardedFleet: one fleet simulation partitioned into cells and executed
// concurrently on a conservative ShardEngine.
//
// The fleet's client population is split into C cells of up to
// clients_per_cell clients. Each cell is a full World (its own Simulation,
// WiFi channel, radios, tracker and FileServer) registered as one engine
// place; adjacent cells are coupled by a backbone ring of CrossShardLinks
// (cell i -> i+1 carries requests, cell i -> i-1 carries responses), and
// every cross_every-th flow of cell i fetches from cell (i+1)%C's server
// over it, so the partition is genuinely load-bearing, not embarrassingly
// parallel. Each cell's flows run on its own workload::FlowLoop, the loop
// ClientFleet runs for its single world.
//
// Sharded fleets run at packet fidelity only: start() refuses hybrid.
//
// Determinism contract: every output — flow records, merged trace stream,
// metric snapshot, per-cell oracle verdicts — is a pure function of
// (config, seed). The number of cells is a function of fleet size only;
// `shards` (worker threads) never changes a byte:
//   * per-cell randomness comes from per-cell seeded Rngs in cell event
//     order (unchanged by which thread runs the cell);
//   * flow sizes are a pure function of the global flow id g = cell + k*C,
//     so a remote FileServer resolves a cross flow's size with no shared
//     state;
//   * cross-place delivery order is fixed by the engine's (time, edge,
//     seq) drain order;
//   * the merged trace is cell-order-stable-sorted by virtual time, and
//     merged metrics sum counters in first-seen cell order.
// The artifacts deliberately never record the shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/shard_engine.hpp"
#include "workload/fleet.hpp"

namespace emptcp::net {
class CrossShardLink;
}  // namespace emptcp::net

namespace emptcp::core {
class EnergyInfoBase;
}  // namespace emptcp::core

namespace emptcp::workload {

class ShardedFleet {
 public:
  explicit ShardedFleet(FleetConfig cfg);
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  /// Runs the whole fleet to completion (flow budgets exhausted or
  /// scenario.max_sim_time reached) and collects merged metrics.
  FleetMetrics run(std::uint64_t seed);

  // Incremental driving (bench_micro's fleet_10k/fleet_100k and perfbench's
  // sharded_fleet time steady-state windows):
  // start() builds cells + backbone and launches the workload, run_until()
  // advances all cells to t_s, finish() merges and collects.
  void start(std::uint64_t seed);
  void run_until(double t_s);
  FleetMetrics finish();

  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  [[nodiscard]] sim::ShardEngine& engine() { return *engine_; }
  [[nodiscard]] const sim::ShardEngine& engine() const { return *engine_; }
  [[nodiscard]] app::World& cell_world(std::size_t cell);
  [[nodiscard]] std::uint64_t flows_started() const;
  [[nodiscard]] std::uint64_t flows_completed() const;

  /// The response size of global flow `g` — a pure function of (seed, g),
  /// which is what lets a remote cell's server resolve sizes locally.
  [[nodiscard]] std::uint64_t flow_bytes(std::uint64_t g) const;

 private:
  struct Cell;

  void build_cell(std::size_t index, std::size_t clients,
                  std::uint32_t client_base);
  void wire_backbone();
  [[nodiscard]] bool all_flows_done() const;
  FleetMetrics merge(bool all_done);

  FleetConfig cfg_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<sim::ShardEngine> engine_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::unique_ptr<core::EnergyInfoBase> eib_;  ///< shared across cells
};

/// Dispatch: ShardedFleet when cfg.sharding.clients_per_cell != 0, plain
/// single-World ClientFleet otherwise.
FleetMetrics run_fleet(const FleetConfig& cfg, std::uint64_t seed);

}  // namespace emptcp::workload
