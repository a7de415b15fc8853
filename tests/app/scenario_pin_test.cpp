// Pins Scenario's five applications bit for bit. Every run_* runs over
// MPTCP, eMPTCP and TCP/WiFi, and run_download also over WiFi-First and
// MDP, at one seed over Fig. 8-style on-off WiFi (12/0.8 Mbps, 2 s mean
// holding). The expected values are hex-float literals recorded from the
// simulator, so a change to how Scenario drives its runs must leave every
// field unchanged; a change that moves simulation bytes on purpose
// re-records this table in the same commit.
#include <gtest/gtest.h>

#include <cstdint>

#include "app/scenario.hpp"

namespace emptcp::app {
namespace {

constexpr std::uint64_t kSeed = 7;

ScenarioConfig pin_config() {
  ScenarioConfig cfg;
  cfg.wifi.down_mbps = 12.0;
  cfg.wifi_onoff = true;
  cfg.onoff.high_mbps = 12.0;
  cfg.onoff.low_mbps = 0.8;
  cfg.onoff.mean_high_s = 2.0;
  cfg.onoff.mean_low_s = 2.0;
  cfg.record_series = false;
  return cfg;
}

VideoStreamClient::Config stream_config() {
  VideoStreamClient::Config s;
  s.bitrate_mbps = 2.0;
  s.chunk_bytes = 256 * 1024;
  s.buffer_target_s = 4.0;
  s.startup_s = 2.0;
  s.media_duration_s = 24.0;
  return s;
}

enum class Run : std::uint8_t { kDownload, kUpload, kTimed, kStream, kWebPage };

struct Pinned {
  Run run;
  Protocol protocol;
  double energy_j;
  double download_time_s;
  std::uint64_t bytes_received;
  double mean_wifi_mbps;
  double mean_cell_mbps;
  std::uint64_t controller_switches;
  int cellular_activations;
  std::uint64_t events_executed;
  double startup_delay_s;
  double stall_time_s;
  int rebuffer_events;
};

RunMetrics run(const Pinned& c) {
  Scenario s(pin_config());
  switch (c.run) {
    case Run::kDownload: return s.run_download(c.protocol, 8'000'000, kSeed);
    case Run::kUpload: return s.run_upload(c.protocol, 4'000'000, kSeed);
    case Run::kTimed: return s.run_timed(c.protocol, sim::seconds(12), kSeed);
    case Run::kStream: return s.run_stream(c.protocol, stream_config(), kSeed);
    case Run::kWebPage:
      return s.run_web_page(c.protocol, WebPage::cnn_like(kSeed), 6, kSeed);
  }
  return {};
}

TEST(ScenarioPinTest, EveryApplicationMatchesItsPinnedRun) {
  const Pinned kPinned[] = {
      {Run::kDownload, Protocol::kMptcp, 0x1.f805bd1b52e62p+4,
       0x1.ed5c3cb4efbfp+2, 8000000, 0x1.17c7fcf8e2c06p+2, 0x1.9dfb123b43b14p+2,
       0, 1, 445463, 0x0p+0, 0x0p+0, 0},
      {Run::kDownload, Protocol::kEmptcp, 0x1.02a394c0f3fbbp+5,
       0x1.58ac4f6361f19p+3, 8000000, 0x1.ced182b1f3967p+1,
       0x1.f8f8ebcd0626fp+1, 2, 1, 392520, 0x0p+0, 0x0p+0, 0},
      {Run::kDownload, Protocol::kTcpWifi, 0x1.15fee6fb4c3c3p+4,
       0x1.4eb47bbfd0205p+4, 8000000, 0x1.144628cdfb7fep+2, 0x0p+0, 0, 0,
       639396, 0x0p+0, 0x0p+0, 0},
      {Run::kDownload, Protocol::kWifiFirst, 0x1.5e8d02e1a0887p+5,
       0x1.633a3a0070adp+4, 8000000, 0x1.0a4437985bf94p+2,
       0x1.e3a14f50d28c7p-15, 0, 2, 691222, 0x0p+0, 0x0p+0, 0},
      {Run::kDownload, Protocol::kMdp, 0x1.54c51527c256fp+5,
       0x1.09e55f99c38b1p+4, 8000000, 0x1.297c5532523fap+2,
       0x1.61f1b0ad54134p-1, 0, 2, 574977, 0x0p+0, 0x0p+0, 0},
      {Run::kUpload, Protocol::kMptcp, 0x1.4588411385ed6p+4,
       0x1.7900df8e7070bp+1, 4000000, 0x1.4cfbdcd7ded8p+3, 0x1.17e73ddfd5b9cp+2,
       0, 1, 136620, 0x0p+0, 0x0p+0, 0},
      {Run::kUpload, Protocol::kEmptcp, 0x1.5b91a596a4dfap+4,
       0x1.95dbcb6a189ap+2, 4000000, 0x1.5fa75fe3e3acbp+2, 0x1.04df9b9a3941dp+0,
       0, 1, 150705, 0x0p+0, 0x0p+0, 0},
      {Run::kUpload, Protocol::kTcpWifi, 0x1.4133ffe1cd0f1p+3,
       0x1.ab3df7887367cp+3, 4000000, 0x1.9ecd2a6eaca77p+1, 0x0p+0, 0, 0,
       214481, 0x0p+0, 0x0p+0, 0},
      {Run::kTimed, Protocol::kMptcp, 0x1.eea7ffa628f71p+4, 0x1.8p+3, 11465600,
       0x1.aa3667e2aefep+1, 0x1.0b915645ce88p+3, 0, 1, 985858, 0x0p+0, 0x0p+0,
       0},
      {Run::kTimed, Protocol::kEmptcp, 0x1.766e5f9c164f8p+4, 0x1.8p+3, 8913853,
       0x1.aa0c6b484d76bp+1, 0x1.560775ce71a0fp+2, 2, 1, 501220, 0x0p+0, 0x0p+0,
       0},
      {Run::kTimed, Protocol::kTcpWifi, 0x1.1dec0724b76f7p+3, 0x1.8p+3, 3885015,
       0x1.aa2fc962fc963p+1, 0x0p+0, 0, 0, 206369, 0x0p+0, 0x0p+0, 0},
      {Run::kStream, Protocol::kMptcp, 0x1.9c020fe50f606p+5, 0x1.9p+4, 6029312,
       0x1.e14fe69d2d77dp-1, 0x1.0b170a5da6fa3p+0, 0, 1, 34506, 0x1p+0, 0x0p+0,
       0},
      {Run::kStream, Protocol::kEmptcp, 0x1.880341630e7a7p+5, 0x1.9p+4, 6029312,
       0x1.7497fd0c5aac5p+0, 0x1.117d60a8e236fp-1, 4, 1, 38812, 0x1p+0, 0x0p+0,
       0},
      {Run::kStream, Protocol::kTcpWifi, 0x1.ecc7233fa029p+3,
       0x1.b19999999999ap+4, 6029312, 0x1.d8a43ab677641p+0, 0x0p+0, 0, 0, 45705,
       0x1p+0, 0x1.01d29dc725c43p+1, 3},
      {Run::kWebPage, Protocol::kMptcp, 0x1.009cb77cc0b25p+4,
       0x1.9fba5fc8f994cp+0, 1040169, 0x1.3c3d6c69e3b53p+2,
       0x1.73f40ab2de84dp-2, 0, 1, 7506, 0x0p+0, 0x0p+0, 0},
      {Run::kWebPage, Protocol::kEmptcp, 0x1.6b8a34a1c83c5p+0,
       0x1.69d339742628dp+0, 1040169, 0x1.85cd225a055eep+2, 0x0p+0, 0, 0, 7252,
       0x0p+0, 0x0p+0, 0},
      {Run::kWebPage, Protocol::kTcpWifi, 0x1.6b8a34a1c83c5p+0,
       0x1.69d339742628dp+0, 1040169, 0x1.85cd225a055eep+2, 0x0p+0, 0, 0, 7223,
       0x0p+0, 0x0p+0, 0},
  };
  for (const Pinned& c : kPinned) {
    SCOPED_TRACE(std::string(to_string(c.protocol)) + " run " +
                 std::to_string(static_cast<int>(c.run)));
    const RunMetrics m = run(c);
    EXPECT_TRUE(m.completed);
    // Bitwise: EXPECT_EQ on doubles, not a tolerance.
    EXPECT_EQ(m.energy_j, c.energy_j);
    EXPECT_EQ(m.download_time_s, c.download_time_s);
    EXPECT_EQ(m.bytes_received, c.bytes_received);
    EXPECT_EQ(m.mean_wifi_mbps, c.mean_wifi_mbps);
    EXPECT_EQ(m.mean_cell_mbps, c.mean_cell_mbps);
    EXPECT_EQ(m.controller_switches, c.controller_switches);
    EXPECT_EQ(m.cellular_activations, c.cellular_activations);
    EXPECT_EQ(m.profile.events_executed, c.events_executed);
    EXPECT_EQ(m.startup_delay_s, c.startup_delay_s);
    EXPECT_EQ(m.stall_time_s, c.stall_time_s);
    EXPECT_EQ(m.rebuffer_events, c.rebuffer_events);
  }
}

}  // namespace
}  // namespace emptcp::app
