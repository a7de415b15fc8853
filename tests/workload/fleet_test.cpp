// ClientFleet: many concurrent connections multiplexed on one client node.
//
// Exercises the Node 4-tuple demux and PacketPool slot reuse under fleet
// load (>= 64 simultaneous flows), the per-flow record/histogram pipeline,
// and the determinism contract for whole fleets.
#include "workload/fleet.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "app/world.hpp"
#include "net/packet_pool.hpp"
#include "trace/event.hpp"
#include "workload/sharded_fleet.hpp"

namespace emptcp::workload {
namespace {

FleetConfig many_flow_config(std::size_t clients) {
  FleetConfig cfg;
  cfg.scenario.wifi.down_mbps = 50.0;
  cfg.scenario.cell.down_mbps = 20.0;
  cfg.scenario.record_series = false;
  cfg.protocol = app::Protocol::kEmptcp;
  cfg.mode = FleetConfig::Mode::kClosed;
  cfg.clients = clients;
  cfg.flows_per_client = 1;
  cfg.flow_size.kind = SizeDist::Kind::kFixed;
  cfg.flow_size.mean_bytes = 100 * 1024;
  return cfg;
}

TEST(ClientFleetTest, SixtyFourConcurrentFlowsAllComplete) {
  ClientFleet fleet(many_flow_config(64));
  const FleetMetrics m = fleet.run(11);

  EXPECT_EQ(m.flows_started, 64u);
  EXPECT_EQ(m.flows_completed, 64u);
  ASSERT_EQ(m.flows.size(), 64u);
  std::set<std::uint32_t> ids;
  for (const FlowRecord& f : m.flows) {
    EXPECT_TRUE(f.completed);
    EXPECT_EQ(f.bytes, 100u * 1024u);
    EXPECT_GT(f.fct_s(), 0.0);
    EXPECT_GE(f.energy_j_est, 0.0);
    ids.insert(f.id);
  }
  EXPECT_EQ(ids.size(), 64u);  // one server connection per flow

  // Every packet must have demuxed to a registered flow or listener:
  // 64 concurrent connections on two interfaces may not leak a single
  // packet past the 4-tuple tables.
  app::World& w = fleet.world();
  EXPECT_EQ(w.client.unmatched_packets(), 0u);
  EXPECT_EQ(w.server.unmatched_packets(), 0u);

  // PacketPool reuse: after the run nearly every pooled slot is back on
  // the freelist (the run halts at completion, so a few handles may sit
  // in never-executed delivery events), and the high-water mark stays far
  // below total traffic (~70 packets per flow if slots were never reused).
  auto& pool = w.sim.context<net::PacketPool>();
  EXPECT_GT(pool.allocated(), 0u);
  EXPECT_GE(pool.idle() + 4, pool.allocated());
  EXPECT_LT(pool.allocated(), 64u * 70u / 4u);

  // World totals line up with the per-flow records.
  EXPECT_TRUE(m.run.completed);
  EXPECT_EQ(m.run.bytes_received, 64u * 100u * 1024u);
  EXPECT_EQ(m.fct_hist.count(), 64u);
  EXPECT_EQ(m.epb_hist.count(), 64u);
}

TEST(ClientFleetTest, EveryApplicationCompletesInBothFleets) {
  // Concurrent closed-loop flows of each non-download application, in one
  // World and in two cells with cross-cell traffic: every flow completes
  // having moved exactly its size.
  const app::WebPage page = app::WebPage::cnn_like(5, 20);
  for (const Application::Kind kind :
       {Application::Kind::kUpload, Application::Kind::kStream,
        Application::Kind::kWebPage}) {
    FleetConfig cfg = many_flow_config(4);
    cfg.flows_per_client = 2;
    cfg.scenario.wifi.up_mbps = 20.0;
    cfg.application.kind = kind;
    cfg.application.stream.chunk_bytes = 128 * 1024;
    cfg.application.stream.media_duration_s = 6.0;
    cfg.application.stream.startup_s = 1.0;
    cfg.application.stream.buffer_target_s = 3.0;
    cfg.application.page = &page;
    cfg.sharding.cross_every = 2;
    for (const std::size_t per_cell : {0, 2}) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                   ", clients per cell " + std::to_string(per_cell));
      cfg.sharding.clients_per_cell = per_cell;
      const FleetMetrics m = run_fleet(cfg, 3);
      EXPECT_TRUE(m.run.completed);
      EXPECT_EQ(m.flows_completed, 8u);
      for (const FlowRecord& f : m.flows) {
        EXPECT_TRUE(f.completed) << f.id;
        EXPECT_EQ(f.delivered, f.bytes) << f.id;
        EXPECT_GT(f.energy_j_est, 0.0) << f.id;
      }
    }
  }
}

TEST(ClientFleetTest, FleetRunsAreDeterministic) {
  FleetConfig cfg = many_flow_config(16);
  cfg.flow_size.kind = SizeDist::Kind::kLognormal;
  cfg.flow_size.log_mu = 11.0;
  cfg.flow_size.log_sigma = 1.0;
  cfg.flow_size.min_bytes = 10 * 1024;
  cfg.flow_size.max_bytes = 512 * 1024;
  cfg.flows_per_client = 2;
  cfg.think.kind = ThinkTime::Kind::kExponential;
  cfg.think.mean_s = 0.05;

  ClientFleet a(cfg);
  ClientFleet b(cfg);
  const FleetMetrics ma = a.run(21);
  const FleetMetrics mb = b.run(21);
  ASSERT_EQ(ma.flows.size(), mb.flows.size());
  for (std::size_t i = 0; i < ma.flows.size(); ++i) {
    EXPECT_EQ(ma.flows[i].bytes, mb.flows[i].bytes);
    EXPECT_DOUBLE_EQ(ma.flows[i].start_s, mb.flows[i].start_s);
    EXPECT_DOUBLE_EQ(ma.flows[i].end_s, mb.flows[i].end_s);
    EXPECT_DOUBLE_EQ(ma.flows[i].energy_j_est, mb.flows[i].energy_j_est);
  }
  EXPECT_DOUBLE_EQ(ma.run.energy_j, mb.run.energy_j);
}

TEST(ClientFleetTest, OpenLoopDeterministicArrivalsRunToBudget) {
  FleetConfig cfg = many_flow_config(4);
  cfg.mode = FleetConfig::Mode::kOpen;
  cfg.flows_per_client = 3;  // 12-flow budget
  cfg.arrival.kind = ArrivalProcess::Kind::kDeterministic;
  cfg.arrival.rate_per_s = 20.0;
  cfg.flow_size.mean_bytes = 50 * 1024;

  ClientFleet fleet(cfg);
  const FleetMetrics m = fleet.run(5);
  EXPECT_EQ(m.flows_started, 12u);
  EXPECT_EQ(m.flows_completed, 12u);
  // Arrivals are spaced 50 ms apart regardless of completions.
  ASSERT_GE(m.flows.size(), 2u);
  EXPECT_NEAR(m.flows[1].start_s - m.flows[0].start_s, 0.05, 1e-9);
}

TEST(ClientFleetTest, PerFlowEnergySharesSumToTrackerDelta) {
  ClientFleet fleet(many_flow_config(8));
  const FleetMetrics m = fleet.run(3);
  double sum = 0.0;
  for (const FlowRecord& f : m.flows) sum += f.energy_j_est;
  // Attribution splits download-window energy across overlapping flows;
  // the shares must not exceed the device total (tail/idle energy after
  // the last completion belongs to no flow).
  EXPECT_GT(sum, 0.0);
  EXPECT_LE(sum, m.run.energy_j * 1.001);
}

TEST(ClientFleetTest, TraceEventsCarryFlowLifecycles) {
  FleetConfig cfg = many_flow_config(4);
  cfg.scenario.trace = true;
  ClientFleet fleet(cfg);
  const FleetMetrics m = fleet.run(2);
  std::size_t starts = 0;
  std::size_t completes = 0;
  for (const trace::Event& e : m.run.trace_events) {
    if (e.kind == trace::Kind::kFlowStart) ++starts;
    if (e.kind == trace::Kind::kFlowComplete) ++completes;
  }
  EXPECT_EQ(starts, 4u);
  EXPECT_EQ(completes, 4u);
}

}  // namespace
}  // namespace emptcp::workload
