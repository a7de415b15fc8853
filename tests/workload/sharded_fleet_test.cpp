// ShardedFleet: one fleet partitioned into cells on the conservative
// ShardEngine. The headline contract under test is determinism: every
// output byte — flow records, merged JSONL trace, metric snapshot — is
// identical for any worker-shard count, including the EMPTCP_JOBS-derived
// default (this suite is re-run under EMPTCP_JOBS=4 by ctest). The
// backbone coupling must be genuinely load-bearing (cross-cell flows move
// real bytes) and the per-cell invariant oracles must hold regardless of
// how cells are mapped onto threads.
#include "workload/sharded_fleet.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/world.hpp"
#include "check/oracle.hpp"
#include "runtime/telemetry.hpp"
#include "stats/trace_export.hpp"

namespace emptcp::workload {
namespace {

FleetConfig sharded_config(std::size_t shards) {
  FleetConfig cfg;
  cfg.scenario.wifi.down_mbps = 50.0;
  cfg.scenario.cell.down_mbps = 20.0;
  cfg.scenario.record_series = false;
  cfg.scenario.trace = true;
  cfg.protocol = app::Protocol::kEmptcp;
  cfg.mode = FleetConfig::Mode::kClosed;
  cfg.clients = 8;
  cfg.flows_per_client = 1;
  cfg.flow_size.kind = SizeDist::Kind::kFixed;
  cfg.flow_size.mean_bytes = 50 * 1024;
  cfg.sharding.clients_per_cell = 2;  // -> 4 cells
  cfg.sharding.shards = shards;
  // Each cell launches 2 flows (2 clients x 1); cross_every=2 makes the
  // second one fetch from the neighbour cell over the backbone.
  cfg.sharding.cross_every = 2;
  return cfg;
}

std::string run_and_serialize(std::size_t shards, FleetMetrics* out = nullptr) {
  ShardedFleet fleet(sharded_config(shards));
  FleetMetrics m = fleet.run(17);
  std::string jsonl =
      stats::trace_to_jsonl(m.run.trace_events, m.run.trace_metrics);
  if (out != nullptr) *out = std::move(m);
  return jsonl;
}

TEST(ShardedFleetTest, AllFlowsCompleteAcrossCellsIncludingCrossTraffic) {
  ShardedFleet fleet(sharded_config(2));
  EXPECT_EQ(sharded_config(2).cell_count(), 4u);
  const FleetMetrics m = fleet.run(7);

  EXPECT_EQ(fleet.cell_count(), 4u);
  EXPECT_EQ(m.flows_started, 8u);
  EXPECT_EQ(m.flows_completed, 8u);
  EXPECT_TRUE(m.run.completed);
  ASSERT_EQ(m.flows.size(), 8u);

  std::set<std::uint32_t> ids;
  for (const FlowRecord& f : m.flows) {
    EXPECT_TRUE(f.completed);
    EXPECT_EQ(f.bytes, 50u * 1024u);
    EXPECT_EQ(f.delivered, f.bytes);
    EXPECT_GT(f.fct_s(), 0.0);
    ids.insert(f.id);
  }
  EXPECT_EQ(ids.size(), 8u);  // global ids g = cell + k*C are unique
  EXPECT_EQ(m.run.bytes_received, 8u * 50u * 1024u);

  // cross_every=2 with 2 launches per cell makes every cell's second flow
  // remote: the backbone must have carried real traffic.
  EXPECT_GT(fleet.engine().cross_messages(), 0u);
  EXPECT_GT(fleet.engine().epochs(), 0u);
}

TEST(ShardedFleetTest, OutputsAreByteIdenticalForAnyShardCount) {
  FleetMetrics m1;
  FleetMetrics m4;
  const std::string one = run_and_serialize(1, &m1);
  const std::string two = run_and_serialize(2);
  const std::string four = run_and_serialize(4, &m4);

  // The whole serialized artifact — events and the metric snapshot — is
  // byte-identical however many worker threads executed the cells.
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);

  ASSERT_EQ(m1.flows.size(), m4.flows.size());
  for (std::size_t i = 0; i < m1.flows.size(); ++i) {
    EXPECT_EQ(m1.flows[i].id, m4.flows[i].id);
    EXPECT_EQ(m1.flows[i].bytes, m4.flows[i].bytes);
    EXPECT_DOUBLE_EQ(m1.flows[i].start_s, m4.flows[i].start_s);
    EXPECT_DOUBLE_EQ(m1.flows[i].end_s, m4.flows[i].end_s);
    EXPECT_DOUBLE_EQ(m1.flows[i].energy_j_est, m4.flows[i].energy_j_est);
  }
  EXPECT_DOUBLE_EQ(m1.run.energy_j, m4.run.energy_j);
  EXPECT_EQ(m1.run.profile.events_executed, m4.run.profile.events_executed);
}

TEST(ShardedFleetTest, JobsDerivedShardCountMatchesExplicitOne) {
  // shards=0 resolves to the EMPTCP_JOBS-derived worker count — whatever
  // that is on this machine (or under the ctest EMPTCP_JOBS=4 re-run), the
  // artifact must not change.
  FleetConfig cfg = sharded_config(0);
  ShardedFleet fleet(cfg);
  const FleetMetrics m = fleet.run(17);
  const std::string jobs_derived =
      stats::trace_to_jsonl(m.run.trace_events, m.run.trace_metrics);
  EXPECT_EQ(jobs_derived, run_and_serialize(1));
}

TEST(ShardedFleetTest, FlowSizesArePureFunctionOfSeedAndGlobalId) {
  ShardedFleet a(sharded_config(1));
  ShardedFleet b(sharded_config(2));
  const FleetMetrics ma = a.run(23);
  const FleetMetrics mb = b.run(23);
  ASSERT_EQ(ma.flows.size(), mb.flows.size());
  for (const FlowRecord& f : ma.flows) {
    // The server resolved the size from the app tag alone; the record must
    // agree with the pure function, or remote cells would serve garbage.
    EXPECT_EQ(f.bytes, a.flow_bytes(f.id));
    EXPECT_EQ(f.bytes, b.flow_bytes(f.id));
  }
}

TEST(ShardedFleetTest, PerCellOraclesHoldForAnyShardCount) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    ShardedFleet fleet(sharded_config(shards));
    fleet.start(31);
    std::vector<std::unique_ptr<check::Oracle>> oracles;
    for (std::size_t c = 0; c < fleet.cell_count(); ++c) {
      auto oracle = std::make_unique<check::Oracle>();
      oracle->attach(fleet.cell_world(c).sim);
      oracles.push_back(std::move(oracle));
    }
    fleet.run_until(60.0);
    EXPECT_EQ(fleet.flows_completed(), 8u) << "shards=" << shards;
    for (std::size_t c = 0; c < oracles.size(); ++c) {
      EXPECT_TRUE(oracles[c]->ok())
          << "shards=" << shards << " cell=" << c << ": "
          << (oracles[c]->violations().empty()
                  ? std::string("violation details dropped")
                  : oracles[c]->violations().front().invariant + ": " +
                        oracles[c]->violations().front().detail);
      oracles[c]->detach();
    }
  }
}

TEST(ShardedFleetTest, OpenLoopArrivalsDecomposeAcrossCells) {
  FleetConfig cfg = sharded_config(2);
  cfg.mode = FleetConfig::Mode::kOpen;
  cfg.flows_per_client = 2;  // 16-flow budget fleet-wide
  cfg.arrival.kind = ArrivalProcess::Kind::kPoisson;
  cfg.arrival.rate_per_s = 40.0;
  ShardedFleet fleet(cfg);
  const FleetMetrics m = fleet.run(13);
  EXPECT_EQ(m.flows_started, 16u);
  EXPECT_EQ(m.flows_completed, 16u);
  EXPECT_TRUE(m.run.completed);
}

TEST(ShardedFleetTest, ZeroBackboneDelayIsRejectedLoudly) {
  FleetConfig cfg = sharded_config(1);
  cfg.sharding.backbone_delay = 0;
  ShardedFleet fleet(cfg);
  EXPECT_THROW(fleet.run(3), std::invalid_argument);
}

TEST(ShardedFleetTest, HybridFidelityIsRejectedLoudly) {
  // The sharded merge keeps no fluid metrics: refuse rather than run
  // unverified.
  FleetConfig cfg = sharded_config(1);
  cfg.scenario.fidelity = sim::Fidelity::kHybrid;
  ShardedFleet fleet(cfg);
  EXPECT_THROW(fleet.run(3), std::invalid_argument);
}

TEST(ShardedFleetTest, RunFleetDispatchesOnCellStructure) {
  // clients_per_cell == 0: the classic single-World ClientFleet path.
  FleetConfig plain = sharded_config(1);
  plain.scenario.trace = false;
  plain.sharding.clients_per_cell = 0;
  const FleetMetrics mp = run_fleet(plain, 5);
  EXPECT_EQ(mp.flows_completed, 8u);

  // Non-zero: the sharded path (observable via the fleet.cells gauge).
  FleetConfig sharded = sharded_config(1);
  const FleetMetrics ms = run_fleet(sharded, 5);
  EXPECT_EQ(ms.flows_completed, 8u);
  bool saw_cells = false;
  for (const auto& s : ms.run.trace_metrics) {
    if (s.name == "fleet.cells") {
      saw_cells = true;
      EXPECT_DOUBLE_EQ(s.value, 4.0);
    }
  }
  EXPECT_TRUE(saw_cells);
}

TEST(ShardedFleetTest, TelemetryOnNeverChangesAnOutputByte) {
  // Baseline with the wall-clock profiler off: no perf sidecar data.
  FleetMetrics m_off;
  const std::string off = run_and_serialize(2, &m_off);
  EXPECT_FALSE(m_off.perf.has_value());

  runtime::Telemetry::instance().enable(true);
  FleetMetrics m_on2;
  FleetMetrics m_on4;
  const std::string on2 = run_and_serialize(2, &m_on2);
  const std::string on4 = run_and_serialize(4, &m_on4);
  runtime::Telemetry::instance().enable(false);
  runtime::Telemetry::instance().clear();

  // The profiler observes; it must never perturb a deterministic artifact,
  // at any shard count.
  EXPECT_EQ(off, on2);
  EXPECT_EQ(off, on4);

  // With the profiler on, the engine snapshot rides along out-of-band.
  ASSERT_TRUE(m_on2.perf.has_value());
  const analysis::PerfDoc& doc = *m_on2.perf;
  EXPECT_GT(doc.epochs, 0u);
  ASSERT_EQ(doc.places.size(), 4u);
  std::uint64_t events = 0;
  std::uint64_t cross_tx = 0;
  double work = 0.0;
  for (const auto& p : doc.places) {
    events += p.events;
    cross_tx += p.cross_tx;
    work += p.work_s;
  }
  EXPECT_EQ(events, m_on2.run.profile.events_executed);
  EXPECT_GT(cross_tx, 0u);  // cross_every=2 forces backbone traffic
  EXPECT_GT(work, 0.0);     // wall-clock exec time was measured
}

TEST(ShardedFleetTest, SingleCellFleetNeedsNoBackbone) {
  FleetConfig cfg = sharded_config(2);
  cfg.sharding.clients_per_cell = 8;  // everything in one cell
  ShardedFleet fleet(cfg);
  const FleetMetrics m = fleet.run(9);
  EXPECT_EQ(fleet.cell_count(), 1u);
  EXPECT_EQ(m.flows_completed, 8u);
  EXPECT_EQ(fleet.engine().cross_messages(), 0u);
}

}  // namespace
}  // namespace emptcp::workload
