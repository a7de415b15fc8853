#include "app/scenario.hpp"

#include <gtest/gtest.h>

namespace emptcp::app {
namespace {

constexpr std::uint64_t kMB = 1024 * 1024;

ScenarioConfig fast_config(double wifi = 10.0, double cell = 9.0) {
  ScenarioConfig cfg;
  cfg.wifi.down_mbps = wifi;
  cfg.cell.down_mbps = cell;
  cfg.record_series = true;
  return cfg;
}

TEST(ScenarioTest, DownloadCompletesAndReportsBasics) {
  Scenario s(fast_config());
  const RunMetrics m = s.run_download(Protocol::kTcpWifi, 2 * kMB, 1);
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.bytes_received, 2 * kMB);
  EXPECT_GT(m.download_time_s, 1.0);
  EXPECT_GT(m.energy_j, 0.0);
  EXPECT_GT(m.wifi_j, 0.0);
  EXPECT_FALSE(m.cellular_used);
  EXPECT_EQ(m.cellular_activations, 0);
}

TEST(ScenarioTest, SameSeedSameResult) {
  Scenario s(fast_config());
  const RunMetrics a = s.run_download(Protocol::kMptcp, 2 * kMB, 42);
  const RunMetrics b = s.run_download(Protocol::kMptcp, 2 * kMB, 42);
  EXPECT_DOUBLE_EQ(a.download_time_s, b.download_time_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST(ScenarioTest, MptcpUsesBothInterfaces) {
  Scenario s(fast_config());
  const RunMetrics m = s.run_download(Protocol::kMptcp, 8 * kMB, 1);
  EXPECT_TRUE(m.completed);
  EXPECT_TRUE(m.cellular_used);
  EXPECT_GT(m.mean_wifi_mbps, 1.0);
  EXPECT_GT(m.mean_cell_mbps, 1.0);
  EXPECT_EQ(m.cellular_activations, 1);
}

TEST(ScenarioTest, MptcpFasterThanSinglePath) {
  Scenario s(fast_config(6.0, 6.0));
  const RunMetrics tcp = s.run_download(Protocol::kTcpWifi, 8 * kMB, 1);
  const RunMetrics mptcp = s.run_download(Protocol::kMptcp, 8 * kMB, 1);
  EXPECT_LT(mptcp.download_time_s, tcp.download_time_s * 0.8);
}

TEST(ScenarioTest, TcpLteRunsOverCellularOnly) {
  Scenario s(fast_config());
  const RunMetrics m = s.run_download(Protocol::kTcpLte, 2 * kMB, 1);
  EXPECT_TRUE(m.completed);
  EXPECT_TRUE(m.cellular_used);
  EXPECT_LT(m.mean_wifi_mbps, 0.01);
  // Energy includes the LTE tail: must exceed the fixed overhead.
  EXPECT_GT(m.energy_j, 12.0);
}

TEST(ScenarioTest, EmptcpGoodWifiMatchesTcpWifi) {
  Scenario s(fast_config(15.0, 9.0));
  const RunMetrics tcp = s.run_download(Protocol::kTcpWifi, 8 * kMB, 1);
  const RunMetrics emptcp = s.run_download(Protocol::kEmptcp, 8 * kMB, 1);
  EXPECT_FALSE(emptcp.cellular_used);
  EXPECT_NEAR(emptcp.energy_j, tcp.energy_j, tcp.energy_j * 0.1);
  const RunMetrics mptcp = s.run_download(Protocol::kMptcp, 8 * kMB, 1);
  EXPECT_LT(emptcp.energy_j, mptcp.energy_j);
}

TEST(ScenarioTest, SeriesRecordedWhenRequested) {
  Scenario s(fast_config());
  const RunMetrics m = s.run_download(Protocol::kMptcp, 4 * kMB, 1);
  EXPECT_FALSE(m.energy_series.empty());
  EXPECT_FALSE(m.wifi_rate_series.empty());
  EXPECT_FALSE(m.cell_rate_series.empty());
  // Energy series is nondecreasing.
  for (std::size_t i = 1; i < m.energy_series.size(); ++i) {
    EXPECT_GE(m.energy_series[i].v, m.energy_series[i - 1].v);
  }
}

TEST(ScenarioTest, SeriesSkippedWhenDisabled) {
  ScenarioConfig cfg = fast_config();
  cfg.record_series = false;
  Scenario s(cfg);
  const RunMetrics m = s.run_download(Protocol::kTcpWifi, 1 * kMB, 1);
  EXPECT_TRUE(m.energy_series.empty());
}

TEST(ScenarioTest, TimedRunMeasuresFixedWindow) {
  Scenario s(fast_config());
  const RunMetrics m = s.run_timed(Protocol::kMptcp, sim::seconds(30), 1);
  EXPECT_TRUE(m.completed);
  EXPECT_DOUBLE_EQ(m.download_time_s, 30.0);
  EXPECT_GT(m.bytes_received, 10 * kMB);  // ~19 Mbps aggregate for 30 s
}

TEST(ScenarioTest, UnfinishedRunStopsAtItsDeadline) {
  // A deadline that is not a multiple of the 200 ms advance slice: the
  // run must stop at it, not at the end of the slice that crosses it.
  ScenarioConfig cfg = fast_config();
  cfg.max_sim_time = sim::milliseconds(300);
  cfg.trace = true;
  const RunMetrics m = Scenario(cfg).run_download(Protocol::kEmptcp, kMB, 1);
  const double deadline_s = sim::to_seconds(cfg.max_sim_time);
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(m.download_time_s, deadline_s);
  ASSERT_FALSE(m.energy_series.empty());
  EXPECT_LE(m.energy_series.back().t, deadline_s);
  for (const trace::Event& e : m.trace_events) {
    EXPECT_LE(e.t, cfg.max_sim_time);
  }
}

TEST(ScenarioTest, OnOffScenarioChangesWifiThroughput) {
  ScenarioConfig cfg = fast_config(12.0, 9.0);
  cfg.wifi_onoff = true;
  cfg.onoff.high_mbps = 12.0;
  cfg.onoff.low_mbps = 0.8;
  cfg.onoff.mean_high_s = 5.0;
  cfg.onoff.mean_low_s = 5.0;
  Scenario s(cfg);
  const RunMetrics m = s.run_timed(Protocol::kTcpWifi, sim::seconds(60), 3);
  // Effective average should sit strictly between the two rates.
  EXPECT_GT(m.mean_wifi_mbps, 1.0);
  EXPECT_LT(m.mean_wifi_mbps, 11.0);
}

TEST(ScenarioTest, InterferersReduceWifiThroughput) {
  ScenarioConfig base = fast_config(12.0, 9.0);
  Scenario clean(base);
  const RunMetrics free_run =
      clean.run_timed(Protocol::kTcpWifi, sim::seconds(40), 5);

  ScenarioConfig noisy = base;
  noisy.interferers = 3;
  noisy.lambda_on = 0.05;
  noisy.lambda_off = 0.5;  // mostly on
  Scenario crowded(noisy);
  const RunMetrics noisy_run =
      crowded.run_timed(Protocol::kTcpWifi, sim::seconds(40), 5);

  EXPECT_LT(noisy_run.bytes_received,
            static_cast<std::uint64_t>(
                static_cast<double>(free_run.bytes_received) * 0.8));
}

TEST(ScenarioTest, MobilityScenarioRuns) {
  ScenarioConfig cfg = fast_config(18.0, 9.0);
  cfg.mobility = true;
  Scenario s(cfg);
  const RunMetrics m = s.run_timed(Protocol::kEmptcp, sim::seconds(250), 7);
  EXPECT_TRUE(m.completed);
  EXPECT_GT(m.bytes_received, 10 * kMB);
  EXPECT_GT(m.energy_j, 0.0);
}

TEST(ScenarioTest, WebPageFetchAllProtocols) {
  const WebPage page = WebPage::cnn_like(11);
  Scenario s(fast_config());
  for (Protocol p : {Protocol::kTcpWifi, Protocol::kMptcp,
                     Protocol::kEmptcp}) {
    const RunMetrics m = s.run_web_page(p, page, 6, 1);
    EXPECT_TRUE(m.completed) << to_string(p);
    EXPECT_EQ(m.bytes_received, page.total_bytes()) << to_string(p);
    EXPECT_GT(m.download_time_s, 0.0);
  }
}

TEST(ScenarioTest, WebPageEmptcpAvoidsCellular) {
  // Paper §5.4: all objects are small, so eMPTCP never wakes LTE while
  // standard MPTCP joins it for every connection.
  const WebPage page = WebPage::cnn_like(11);
  Scenario s(fast_config());
  const RunMetrics emptcp = s.run_web_page(Protocol::kEmptcp, page, 6, 1);
  const RunMetrics mptcp = s.run_web_page(Protocol::kMptcp, page, 6, 1);
  EXPECT_FALSE(emptcp.cellular_used);
  EXPECT_TRUE(mptcp.cellular_used);
  EXPECT_LT(emptcp.energy_j, mptcp.energy_j);
}

TEST(ScenarioTest, ProtocolNames) {
  EXPECT_STREQ(to_string(Protocol::kTcpWifi), "TCP/WiFi");
  EXPECT_STREQ(to_string(Protocol::kEmptcp), "eMPTCP");
  EXPECT_STREQ(to_string(Protocol::kMdp), "MDP");
}

}  // namespace
}  // namespace emptcp::app
