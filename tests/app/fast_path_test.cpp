// Hybrid-fidelity fast path (app::FastPath, DESIGN.md §13), scenario
// level: packet mode must be untouched by the refactor, and hybrid mode
// must (a) actually engage on macro-step-sized flows and (b) agree with
// packet mode on the headline numbers within the §13 tolerance contract.
#include "app/fast_path.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <string_view>

#include "app/scenario.hpp"
#include "stats/trace_export.hpp"
#include "trace/trace_diff.hpp"

namespace emptcp::app {
namespace {

ScenarioConfig base_config(sim::Fidelity fidelity) {
  ScenarioConfig cfg;
  cfg.wifi.down_mbps = 10.0;
  cfg.cell.down_mbps = 6.0;
  cfg.fidelity = fidelity;
  cfg.trace = true;
  return cfg;
}

std::string event_jsonl(const RunMetrics& m) {
  return stats::trace_to_jsonl(m.trace_events, /*metrics=*/{});
}

double run_gauge(const RunMetrics& m, std::string_view name) {
  for (const auto& ms : m.trace_metrics) {
    if (ms.name == name) return ms.value;
  }
  return -1.0;  // metric absent (packet mode never registers it)
}

double fluid_bytes(const RunMetrics& m) {
  return run_gauge(m, "run.fluid_bytes");
}

// Packet-mode byte identity: the governor's plumbing must be inert when
// fidelity is kPacket — the ScenarioConfig field exists, but no FastPath
// is constructed and the event stream is exactly the pre-refactor one
// (pinned transitively by the golden trace-determinism suite, which runs
// the same packet path).
TEST(FastPathScenarioTest, PacketModeMatchesDefaultByteIdentical) {
  ScenarioConfig plain = base_config(sim::Fidelity::kPacket);
  ScenarioConfig untouched = base_config(sim::Fidelity::kPacket);
  untouched.fidelity = {};  // value-initialized default must be kPacket
  ASSERT_EQ(untouched.fidelity, sim::Fidelity::kPacket);

  Scenario a(plain);
  Scenario b(untouched);
  const RunMetrics ma = a.run_download(Protocol::kEmptcp, 2'000'000, 5);
  const RunMetrics mb = b.run_download(Protocol::kEmptcp, 2'000'000, 5);
  const trace::TraceDiff d =
      trace::diff_trace_text(event_jsonl(ma), event_jsonl(mb));
  EXPECT_TRUE(d.identical) << d.describe();
  // Packet mode never constructs a FastPath, so the gauge is absent.
  EXPECT_EQ(fluid_bytes(ma), -1.0);
}

// A hybrid run whose flow never crosses the fluid-entry floor
// (min_fluid_bytes = 300 KB) has an armed but never-engaging governor:
// it may observe, but must not perturb a single packet event.
TEST(FastPathScenarioTest, HybridBelowEntryFloorIsObservationallyInert) {
  Scenario packet(base_config(sim::Fidelity::kPacket));
  Scenario hybrid(base_config(sim::Fidelity::kHybrid));
  const std::uint64_t small = 200'000;  // < min_fluid_bytes
  const RunMetrics mp = packet.run_download(Protocol::kEmptcp, small, 3);
  const RunMetrics mh = hybrid.run_download(Protocol::kEmptcp, small, 3);

  EXPECT_EQ(fluid_bytes(mh), 0.0);  // armed, measured, never entered
  const trace::TraceDiff d =
      trace::diff_trace_text(event_jsonl(mp), event_jsonl(mh));
  EXPECT_TRUE(d.identical) << d.describe();
  EXPECT_EQ(mp.bytes_received, mh.bytes_received);
  EXPECT_DOUBLE_EQ(mp.download_time_s, mh.download_time_s);
  EXPECT_DOUBLE_EQ(mp.energy_j, mh.energy_j);
}

// Macro-step-sized flow: hybrid must engage (nonzero fluid bytes — the
// equivalence below would otherwise hold vacuously), cut events
// materially, and land inside the §13 single-flow tolerance bands:
// bytes exact, FCT within 25% + 0.25 s, energy within 30% + 0.3 J.
TEST(FastPathScenarioTest, HybridEngagesAndMatchesPacketWithinTolerance) {
  Scenario packet(base_config(sim::Fidelity::kPacket));
  Scenario hybrid(base_config(sim::Fidelity::kHybrid));
  const std::uint64_t big = 8'000'000;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunMetrics mp = packet.run_download(Protocol::kEmptcp, big, seed);
    const RunMetrics mh = hybrid.run_download(Protocol::kEmptcp, big, seed);

    EXPECT_GT(fluid_bytes(mh), 0.0) << "seed " << seed;
    EXPECT_LT(mh.profile.events_executed, mp.profile.events_executed / 2)
        << "seed " << seed;

    EXPECT_TRUE(mp.completed && mh.completed) << "seed " << seed;
    EXPECT_EQ(mp.bytes_received, mh.bytes_received) << "seed " << seed;
    EXPECT_LE(std::abs(mh.download_time_s - mp.download_time_s),
              0.25 * mp.download_time_s + 0.25)
        << "seed " << seed;
    EXPECT_LE(std::abs(mh.energy_j - mp.energy_j), 0.30 * mp.energy_j + 0.3)
        << "seed " << seed;

    // Every governor transition is a fastpath record naming its flow (the
    // run's one untagged flow is flow 0) and why it moved; the fluid
    // entries among them are exactly the governor's own count.
    std::uint64_t fluid_records = 0;
    for (const trace::Event& e : mh.trace_events) {
      if (e.kind != trace::Kind::kFastpath) continue;
      EXPECT_EQ(e.id, 0u) << "seed " << seed;
      ASSERT_NE(e.label, nullptr) << "seed " << seed;
      ASSERT_NE(e.label2, nullptr) << "seed " << seed;
      EXPECT_NE(std::string_view(e.label2), "") << "seed " << seed;
      if (std::string_view(e.label) == "fluid") ++fluid_records;
    }
    EXPECT_GT(fluid_records, 0u) << "seed " << seed;
    EXPECT_EQ(static_cast<double>(fluid_records),
              run_gauge(mh, "run.fluid_entries"))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace emptcp::app
