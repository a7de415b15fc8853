// Workload × protocol × network-condition completeness matrix: whatever
// the conditions, every workload must terminate with all its bytes, and
// the accounting invariants must hold (energy positive and bounded,
// per-interface split consistent with LTE usage).
#include <gtest/gtest.h>

#include "app/scenario.hpp"

namespace emptcp::app {
namespace {

constexpr std::uint64_t kMB = 1024 * 1024;

struct MatrixParam {
  const char* name;
  double wifi, cell, loss;
  int rtt_ms;
};

// Print a condition by its name. gtest's fallback dumps the struct's raw
// bytes, which puts the address of `name` into every test ID, so the IDs
// would change with address-space randomisation and with every relink.
void PrintTo(const MatrixParam& p, std::ostream* os) { *os << p.name; }

class WorkloadMatrix : public ::testing::TestWithParam<MatrixParam> {
 protected:
  ScenarioConfig config() const {
    const MatrixParam p = GetParam();
    ScenarioConfig cfg;
    cfg.wifi.down_mbps = p.wifi;
    cfg.cell.down_mbps = p.cell;
    cfg.wifi.loss = p.loss;
    cfg.wifi.rtt = sim::milliseconds(p.rtt_ms);
    cfg.cell.rtt = sim::milliseconds(p.rtt_ms + 30);
    cfg.record_series = false;
    return cfg;
  }

  static void check_accounting(const RunMetrics& m) {
    EXPECT_GT(m.energy_j, 0.0);
    EXPECT_LT(m.energy_j, 5000.0);
    EXPECT_GE(m.wifi_j, 0.0);
    EXPECT_GE(m.cell_j, 0.0);
    // Per-interface split plus platform energy covers the total.
    EXPECT_LE(m.wifi_j + m.cell_j, m.energy_j + 1e-6);
    if (m.cellular_activations == 0) {
      // A never-woken radio costs at most idle power over the run.
      EXPECT_LT(m.cell_j, 0.012 * (m.download_time_s + 25.0) + 0.5);
    } else {
      // A woken radio's energy is bounded by activations (promotion +
      // tail + probing) plus active-transfer power for the whole run.
      EXPECT_LT(m.cell_j, 17.0 * m.cellular_activations +
                              2.5 * (m.download_time_s + 25.0));
    }
  }
};

TEST_P(WorkloadMatrix, WebPageCompletesOnEveryProtocol) {
  const WebPage page = WebPage::cnn_like(33, 40);
  Scenario s(config());
  for (Protocol p : {Protocol::kTcpWifi, Protocol::kMptcp,
                     Protocol::kEmptcp, Protocol::kWifiFirst}) {
    const RunMetrics m = s.run_web_page(p, page, 4, 3);
    EXPECT_TRUE(m.completed) << to_string(p);
    EXPECT_EQ(m.bytes_received, page.total_bytes()) << to_string(p);
    check_accounting(m);
  }
}

TEST_P(WorkloadMatrix, StreamFinishesOnEveryProtocol) {
  VideoStreamClient::Config stream;
  stream.bitrate_mbps = 1.5;
  stream.chunk_bytes = 512 * 1024;
  stream.media_duration_s = 30.0;
  Scenario s(config());
  for (Protocol p : {Protocol::kTcpWifi, Protocol::kMptcp,
                     Protocol::kEmptcp}) {
    const RunMetrics m = s.run_stream(p, stream, 4);
    EXPECT_TRUE(m.completed) << to_string(p);
    EXPECT_GE(m.stall_time_s, 0.0);
    check_accounting(m);
  }
}

TEST_P(WorkloadMatrix, UploadCompletesOnEveryProtocol) {
  Scenario s(config());
  for (Protocol p : {Protocol::kTcpWifi, Protocol::kMptcp,
                     Protocol::kEmptcp}) {
    const RunMetrics m = s.run_upload(p, 2 * kMB, 9);
    EXPECT_TRUE(m.completed) << to_string(p);
    EXPECT_EQ(m.bytes_received, 2 * kMB) << to_string(p);
    check_accounting(m);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, WorkloadMatrix,
    ::testing::Values(
        MatrixParam{"clean-fast", 12.0, 9.0, 0.0, 20},
        MatrixParam{"clean-slow", 2.0, 2.0, 0.0, 40},
        MatrixParam{"lossy", 8.0, 8.0, 0.02, 30},
        MatrixParam{"far-server", 8.0, 8.0, 0.0, 250},
        MatrixParam{"asymmetric", 1.0, 12.0, 0.005, 60}),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace emptcp::app
