// Golden-trace determinism: a traced run is a pure function of
// (scenario, seed). The serialized JSONL must be byte-identical across
// repeated runs and across sequential vs parallel replication — the
// property that lets trace diffs double as a regression harness.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "runtime/replication.hpp"
#include "stats/trace_export.hpp"
#include "trace/trace.hpp"
#include "trace/trace_diff.hpp"

namespace emptcp {
namespace {

app::ScenarioConfig traced_config() {
  app::ScenarioConfig cfg;
  cfg.wifi.down_mbps = 12.0;
  cfg.cell.down_mbps = 9.0;
  // On-off WiFi so the net/channel layer emits rate-change events.
  cfg.wifi_onoff = true;
  cfg.onoff.high_mbps = 12.0;
  cfg.onoff.low_mbps = 0.8;
  cfg.onoff.mean_high_s = 5.0;
  cfg.onoff.mean_low_s = 5.0;
  cfg.trace = true;
  return cfg;
}

std::string traced_jsonl(const app::ScenarioConfig& cfg, app::Protocol p,
                         std::uint64_t seed) {
  app::Scenario s(cfg);
  const app::RunMetrics m = s.run_download(p, 256 * 1024, seed);
  return stats::trace_to_jsonl(m.trace_events, m.trace_metrics);
}

TEST(TraceDeterminismTest, SmallScenarioCoversEveryInstrumentedLayer) {
  app::Scenario s(traced_config());
  const app::RunMetrics m = s.run_download(app::Protocol::kMptcp,
                                           256 * 1024, 7);
  ASSERT_FALSE(m.trace_events.empty());

  std::set<trace::Kind> kinds;
  for (const trace::Event& e : m.trace_events) kinds.insert(e.kind);
  // One golden scenario, every instrumented layer present:
  EXPECT_TRUE(kinds.count(trace::Kind::kTcpState));     // tcp state machine
  EXPECT_TRUE(kinds.count(trace::Kind::kCwnd));         // tcp congestion
  EXPECT_TRUE(kinds.count(trace::Kind::kSrtt));         // tcp RTT estimator
  EXPECT_TRUE(kinds.count(trace::Kind::kSchedPick));    // mptcp scheduler
  EXPECT_TRUE(kinds.count(trace::Kind::kEnergySample)); // energy tracker
  EXPECT_TRUE(kinds.count(trace::Kind::kRadioState));   // radio model
  EXPECT_TRUE(kinds.count(trace::Kind::kChannelRate));  // net channel

  // The metrics registry rides along with non-trivial content.
  ASSERT_FALSE(m.trace_metrics.empty());
  bool saw_tcp_counter = false;
  for (const auto& ms : m.trace_metrics) {
    if (ms.name.rfind("tcp.", 0) == 0) saw_tcp_counter = true;
  }
  EXPECT_TRUE(saw_tcp_counter);

  // Timestamps never run backwards: the sink is filled from the
  // single-threaded event core in execution order.
  for (std::size_t i = 1; i < m.trace_events.size(); ++i) {
    EXPECT_GE(m.trace_events[i].t, m.trace_events[i - 1].t);
  }
}

TEST(TraceDeterminismTest, SameSeedSerializesByteIdentical) {
  const app::ScenarioConfig cfg = traced_config();
  const std::string a = traced_jsonl(cfg, app::Protocol::kEmptcp, 11);
  const std::string b = traced_jsonl(cfg, app::Protocol::kEmptcp, 11);
  const trace::TraceDiff d = trace::diff_trace_text(a, b);
  EXPECT_TRUE(d.identical) << d.describe();

  // Different seed drives a different on-off pattern: a genuinely
  // different trace (guards against the exporter flattening everything).
  const std::string c = traced_jsonl(cfg, app::Protocol::kEmptcp, 12);
  EXPECT_FALSE(trace::diff_trace_text(a, c).identical);
}

TEST(TraceDeterminismTest, SequentialAndParallelReplicationsByteIdentical) {
  const app::ScenarioConfig cfg = traced_config();
  const std::vector<app::Protocol> protocols = {app::Protocol::kMptcp,
                                                app::Protocol::kEmptcp};
  const std::vector<std::uint64_t> seeds = {7, 8};
  const auto run = [&cfg](const app::Protocol& p, std::uint64_t seed) {
    return traced_jsonl(cfg, p, seed);
  };
  // workers=1 forces the sequential order; workers=0 uses all cores
  // (respecting EMPTCP_JOBS — the ctest harness also runs this suite with
  // EMPTCP_JOBS=4 to pin the pool path).
  const auto sequential =
      runtime::run_replications(protocols, seeds, run, /*workers=*/1);
  const auto parallel =
      runtime::run_replications(protocols, seeds, run, /*workers=*/0);

  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sequential[i].size(), parallel[i].size());
    for (std::size_t j = 0; j < sequential[i].size(); ++j) {
      EXPECT_FALSE(sequential[i][j].empty());
      const trace::TraceDiff d =
          trace::diff_trace_text(sequential[i][j], parallel[i][j]);
      EXPECT_TRUE(d.identical)
          << "config " << i << " seed " << seeds[j] << ": " << d.describe();
    }
  }
}

}  // namespace
}  // namespace emptcp
