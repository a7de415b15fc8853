// A campaign cell is the bench run: a one-client cell with one flow,
// seeded with its spec seed, simulates exactly what Scenario's run_download,
// run_upload or run_stream simulates at the same config and seed. The
// figure specs under examples/campaigns/paper/ stand in for the figure and
// extension benches on that identity, so this suite pins it bit for bit:
// energy, the flow's completion time against the run's time, the event
// count and a stream's playback quality, read back from the campaign's
// artifacts as emptcp-report reads them.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/report_io.hpp"
#include "app/scenario.hpp"
#include "campaign/runner.hpp"

namespace emptcp::campaign {
namespace {

namespace fs = std::filesystem;

/// The grid shared by the two path set-ups: three protocols at the
/// paper's first two Fig. 8 seeds, one client fetching one 3 MB file over
/// the §4.1 lab rates. Fidelity is written into the text, so the suite
/// does not follow EMPTCP_FIDELITY.
constexpr const char* kLabGrid =
    "protocols = mptcp, emptcp, tcp-wifi\n"
    "fleet_sizes = 1\n"
    "seeds = 40, 41\n"
    "mode = closed\n"
    "flows_per_client = 1\n"
    "size.kind = fixed\n"
    "size.mean_bytes = 3000000\n"
    "scenario.fidelity = packet\n"
    "scenario.wifi.down_mbps = 12\n"
    "scenario.cell.down_mbps = 9\n";

struct FigureCase {
  const char* tag;
  std::string spec;
};

std::vector<FigureCase> cases() {
  return {
      // Fig. 8's on-off WiFi with short holding times, so 3 MB sees both
      // rates.
      {"onoff", std::string("name = onoff\n") + kLabGrid +
                    "scenario.wifi_onoff = true\n"
                    "scenario.onoff.high_mbps = 12\n"
                    "scenario.onoff.low_mbps = 0.8\n"
                    "scenario.onoff.mean_high_s = 2\n"
                    "scenario.onoff.mean_low_s = 2\n"},
      // Fig. 10's interfering stations, busy enough to switch within the
      // download.
      {"interferers", std::string("name = interferers\n") + kLabGrid +
                          "scenario.interferers = 2\n"
                          "scenario.lambda_on = 0.5\n"
                          "scenario.lambda_off = 0.5\n"},
      // The Table 1 extension's other handset and cellular technology.
      {"device", "name = device\n"
                 "protocols = emptcp\n"
                 "fleet_sizes = 1\n"
                 "seeds = 17\n"
                 "flows_per_client = 1\n"
                 "size.kind = fixed\n"
                 "size.mean_bytes = 2000000\n"
                 "scenario.fidelity = packet\n"
                 "scenario.wifi.down_mbps = 2\n"
                 "scenario.cell.down_mbps = 8\n"
                 "scenario.device = nexus5\n"
                 "scenario.cell_tech = 3g\n"},
      // The upload extension over the same on-off WiFi, symmetric access.
      {"upload", "name = upload\n"
                 "app.kind = upload\n"
                 "protocols = mptcp, emptcp, tcp-wifi\n"
                 "fleet_sizes = 1\n"
                 "seeds = 11\n"
                 "flows_per_client = 1\n"
                 "size.kind = fixed\n"
                 "size.mean_bytes = 3000000\n"
                 "scenario.fidelity = packet\n"
                 "scenario.wifi.up_mbps = 12\n"
                 "scenario.cell.up_mbps = 9\n"
                 "scenario.wifi_onoff = true\n"
                 "scenario.onoff.high_mbps = 12\n"
                 "scenario.onoff.low_mbps = 0.8\n"
                 "scenario.onoff.mean_high_s = 2\n"
                 "scenario.onoff.mean_low_s = 2\n"},
      // The streaming extension with WiFi below the bitrate, so playback
      // stalls on TCP/WiFi (the test shortens the media; see below).
      {"stream", "name = stream\n"
                 "app.kind = stream\n"
                 "protocols = mptcp, emptcp, tcp-wifi\n"
                 "fleet_sizes = 1\n"
                 "seeds = 13\n"
                 "flows_per_client = 1\n"
                 "scenario.fidelity = packet\n"
                 "scenario.wifi.down_mbps = 1.2\n"},
      // Hybrid fidelity: the fast path is part of the World that Scenario
      // and the fleet both build, so the identity holds there too.
      {"hybrid", "name = hybrid\n"
                 "protocols = emptcp\n"
                 "fleet_sizes = 1\n"
                 "seeds = 40\n"
                 "flows_per_client = 1\n"
                 "size.kind = fixed\n"
                 "size.mean_bytes = 4000000\n"
                 "scenario.fidelity = hybrid\n"},
  };
}

/// Keeps the ctest IDs readable and stable across builds.
void PrintTo(const FigureCase& c, std::ostream* os) { *os << c.tag; }

class FigureSpecTest : public ::testing::TestWithParam<FigureCase> {};

TEST_P(FigureSpecTest, CampaignCellIsTheScenarioRun) {
  const FigureCase& c = GetParam();
  CampaignSpec spec;
  std::string err;
  ASSERT_TRUE(parse_campaign_spec(c.spec, spec, err)) << err;
  // 30 s of media instead of 120 s keeps the suite fast; the identity does
  // not depend on the length.
  spec.workload.application.stream.media_duration_s = 30.0;

  const fs::path dir =
      fs::path(::testing::TempDir()) / (std::string("figure_spec_") + c.tag);
  fs::remove_all(dir);
  CampaignRunner runner(spec, dir.string());
  const CampaignResult result = runner.run();
  ASSERT_EQ(result.ran, spec.cell_count());

  std::vector<analysis::AnalyzedRun> runs;
  ASSERT_TRUE(analysis::load_analyzed_runs({dir.string()}, runs, err)) << err;
  ASSERT_EQ(runs.size(), spec.cell_count());
  std::map<std::pair<std::string, std::uint64_t>, const analysis::RunRollup*>
      by_cell;
  for (const analysis::AnalyzedRun& r : runs) {
    EXPECT_TRUE(r.digest_ok) << r.source;
    by_cell[{r.rollup.protocol, r.rollup.seed}] = &r.rollup;
  }

  // What the figure benches ran: the same scenario, untraced.
  app::ScenarioConfig cfg = spec.workload.scenario;
  cfg.trace = false;
  app::Scenario scenario(cfg);
  const workload::Application& application = spec.workload.application;
  const std::uint64_t bytes = spec.workload.flow_size.mean_bytes;
  for (const CampaignCell& cell : runner.cells()) {
    SCOPED_TRACE(cell.label);
    const auto it = by_cell.find({app::to_string(cell.protocol), cell.seed});
    ASSERT_NE(it, by_cell.end());
    const analysis::RunRollup& r = *it->second;
    app::RunMetrics m;
    switch (application.kind) {
      case workload::Application::Kind::kUpload:
        m = scenario.run_upload(cell.protocol, bytes, cell.seed);
        break;
      case workload::Application::Kind::kStream:
        m = scenario.run_stream(cell.protocol, application.stream, cell.seed);
        break;
      default:
        m = scenario.run_download(cell.protocol, bytes, cell.seed);
    }
    ASSERT_TRUE(m.completed);
    ASSERT_EQ(r.flows_completed, 1u);
    ASSERT_EQ(r.flows.size(), 1u);
    EXPECT_EQ(r.flows[0].bytes, static_cast<double>(m.bytes_received));
    // Bitwise: EXPECT_EQ on doubles, not a tolerance.
    EXPECT_EQ(r.energy_j, m.energy_j);
    EXPECT_EQ(r.flows[0].fct_s, m.download_time_s);
    EXPECT_EQ(r.sim_events, m.profile.events_executed);
    const bool stream =
        application.kind == workload::Application::Kind::kStream;
    ASSERT_EQ(r.streams.size(), stream ? 1u : 0u);
    if (stream) {
      EXPECT_EQ(r.streams[0].startup_s, m.startup_delay_s);
      EXPECT_EQ(r.streams[0].stall_s, m.stall_time_s);
      EXPECT_EQ(r.streams[0].rebuffers, m.rebuffer_events);
    }
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    PathSetups, FigureSpecTest, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<FigureCase>& info) {
      return std::string(info.param.tag);
    });

}  // namespace
}  // namespace emptcp::campaign
