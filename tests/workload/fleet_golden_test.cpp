// Fleet goldens: the serialized trace of four small fleets, pinned by
// digest. The fleet tests elsewhere check properties (budgets, energy
// shares, shard-count invariance); these pin the exact output, so any
// deterministic change in how either fleet launches, completes, sizes or
// schedules flows shows up in tier-1 — a closed loop with think times,
// Poisson and trace-schedule open loops, and a two-cell sharded fleet
// with cross-cell traffic.
//
// A deliberate behaviour change must re-pin the digests and say why.
#include <gtest/gtest.h>

#include <string>

#include "stats/digest.hpp"
#include "stats/trace_export.hpp"
#include "workload/fleet.hpp"
#include "workload/sharded_fleet.hpp"

namespace emptcp::workload {
namespace {

FleetConfig small_fleet(app::Protocol protocol) {
  FleetConfig cfg;
  cfg.scenario.wifi.down_mbps = 20.0;
  cfg.scenario.cell.down_mbps = 10.0;
  cfg.scenario.record_series = false;
  cfg.scenario.trace = true;
  cfg.protocol = protocol;
  cfg.clients = 4;
  cfg.flows_per_client = 2;
  cfg.flow_size.kind = SizeDist::Kind::kLognormal;
  cfg.flow_size.log_mu = 11.0;
  cfg.flow_size.log_sigma = 1.0;
  cfg.flow_size.min_bytes = 16 * 1024;
  cfg.flow_size.max_bytes = 256 * 1024;
  return cfg;
}

std::string digest(const FleetMetrics& m) {
  return stats::fnv1a64_hex(
      stats::trace_to_jsonl(m.run.trace_events, m.run.trace_metrics));
}

TEST(FleetGoldenTest, ClosedLoopWithThinkTimes) {
  FleetConfig cfg = small_fleet(app::Protocol::kEmptcp);
  cfg.mode = FleetConfig::Mode::kClosed;
  cfg.think.kind = ThinkTime::Kind::kExponential;
  cfg.think.mean_s = 0.1;
  ClientFleet fleet(cfg);
  const FleetMetrics m = fleet.run(31);
  EXPECT_EQ(m.flows_completed, 8u);
  EXPECT_EQ(digest(m), "fnv1a64:ab3487953c27d195");
}

TEST(FleetGoldenTest, OpenLoopPoissonArrivals) {
  FleetConfig cfg = small_fleet(app::Protocol::kMptcp);
  cfg.mode = FleetConfig::Mode::kOpen;
  cfg.arrival.kind = ArrivalProcess::Kind::kPoisson;
  cfg.arrival.rate_per_s = 10.0;
  ClientFleet fleet(cfg);
  const FleetMetrics m = fleet.run(32);
  EXPECT_EQ(m.flows_completed, 8u);
  EXPECT_EQ(digest(m), "fnv1a64:6e5c7d7c896b5da6");
}

TEST(FleetGoldenTest, OpenLoopTraceSchedule) {
  FleetConfig cfg = small_fleet(app::Protocol::kEmptcp);
  cfg.mode = FleetConfig::Mode::kOpen;
  cfg.clients = 3;
  cfg.flows_per_client = 0;  // the schedule, not a budget, ends the run
  cfg.arrival.kind = ArrivalProcess::Kind::kTrace;
  cfg.arrival.times_s = {0.0, 0.05, 0.3, 0.31, 1.0};
  ClientFleet fleet(cfg);
  const FleetMetrics m = fleet.run(33);
  EXPECT_EQ(m.flows_completed, 5u);
  EXPECT_EQ(digest(m), "fnv1a64:31129493248ed659");
}

TEST(FleetGoldenTest, TwoCellShardedFleetWithCrossTraffic) {
  FleetConfig cfg = small_fleet(app::Protocol::kEmptcp);
  cfg.mode = FleetConfig::Mode::kClosed;
  cfg.sharding.clients_per_cell = 2;  // -> 2 cells
  cfg.sharding.cross_every = 2;       // every 2nd flow of a cell is remote
  cfg.sharding.backbone_mbps = 400.0;
  ShardedFleet fleet(cfg);
  const FleetMetrics m = fleet.run(34);
  EXPECT_EQ(m.flows_completed, 8u);
  EXPECT_EQ(digest(m), "fnv1a64:e623496703eaea64");
}

}  // namespace
}  // namespace emptcp::workload
