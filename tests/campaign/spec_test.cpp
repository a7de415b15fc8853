// Campaign spec parsing: key=value and JSON forms, loud failure on typos,
// and every committed spec under examples/campaigns.
#include "campaign/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace emptcp::campaign {
namespace {

TEST(CampaignSpecTest, ParsesKeyValueForm) {
  const char* text =
      "# comment\n"
      "name          = sweep\n"
      "protocols     = emptcp, mptcp\n"
      "fleet_sizes   = 4, 16\n"
      "seeds         = 1, 2, 3\n"
      "mode          = open\n"
      "flows_per_client = 2\n"
      "size.kind     = lognormal\n"
      "size.log_mu   = 13.25\n"
      "arrival.kind  = poisson\n"
      "arrival.rate_per_s = 8\n"
      "scenario.wifi.down_mbps = 12.5\n"
      "scenario.cell.rtt_ms    = 70\n";
  CampaignSpec spec;
  std::string err;
  ASSERT_TRUE(parse_campaign_spec(text, spec, err)) << err;
  EXPECT_EQ(spec.name, "sweep");
  ASSERT_EQ(spec.protocols.size(), 2u);
  EXPECT_EQ(spec.protocols[0], app::Protocol::kEmptcp);
  EXPECT_EQ(spec.protocols[1], app::Protocol::kMptcp);
  EXPECT_EQ(spec.fleet_sizes, (std::vector<std::size_t>{4, 16}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(spec.cell_count(), 12u);
  EXPECT_EQ(spec.workload.mode, workload::FleetConfig::Mode::kOpen);
  EXPECT_EQ(spec.workload.flows_per_client, 2u);
  EXPECT_EQ(spec.workload.flow_size.kind,
            workload::SizeDist::Kind::kLognormal);
  EXPECT_DOUBLE_EQ(spec.workload.flow_size.log_mu, 13.25);
  EXPECT_DOUBLE_EQ(spec.workload.arrival.rate_per_s, 8.0);
  EXPECT_DOUBLE_EQ(spec.workload.scenario.wifi.down_mbps, 12.5);
  EXPECT_EQ(spec.workload.scenario.cell.rtt, sim::milliseconds(70));
  // Campaign artifacts require traces; the parser forces this on.
  EXPECT_TRUE(spec.workload.scenario.trace);
}

TEST(CampaignSpecTest, JsonAndKeyValueAgree) {
  const char* kv =
      "name = j\n"
      "protocols = emptcp, tcp-wifi\n"
      "fleet_sizes = 2\n"
      "seeds = 7\n";
  const char* json =
      "{\"name\": \"j\", \"protocols\": [\"emptcp\", \"tcp-wifi\"],"
      " \"fleet_sizes\": [2], \"seeds\": [7]}";
  CampaignSpec a;
  CampaignSpec b;
  std::string err;
  ASSERT_TRUE(parse_campaign_spec(kv, a, err)) << err;
  ASSERT_TRUE(parse_campaign_spec(json, b, err)) << err;
  EXPECT_EQ(a.protocols, b.protocols);
  EXPECT_EQ(a.fleet_sizes, b.fleet_sizes);
  EXPECT_EQ(a.seeds, b.seeds);
}

TEST(CampaignSpecTest, RejectsUnknownAndInvalid) {
  CampaignSpec spec;
  std::string err;
  EXPECT_FALSE(parse_campaign_spec("bogus_knob = 1\n", spec, err));
  EXPECT_NE(err.find("bogus_knob"), std::string::npos);

  EXPECT_FALSE(parse_campaign_spec(
      "protocols = warp-drive\nfleet_sizes = 1\nseeds = 1\n", spec, err));

  // Missing grid axes fail loudly.
  EXPECT_FALSE(parse_campaign_spec("protocols = emptcp\nseeds = 1\n", spec,
                                   err));
  EXPECT_NE(err.find("fleet_sizes"), std::string::npos);

  EXPECT_FALSE(parse_campaign_spec(
      "protocols = emptcp\nfleet_sizes = 0\nseeds = 1\n", spec, err));
}

TEST(CampaignSpecTest, ParsesAndValidatesShardingKeys) {
  // Fidelity pinned: a sharded spec is rejected at hybrid, and the
  // default follows EMPTCP_FIDELITY.
  const char* text =
      "name = sh\n"
      "protocols = emptcp\n"
      "fleet_sizes = 8\n"
      "seeds = 1\n"
      "scenario.fidelity = packet\n"
      "sharding.clients_per_cell = 2\n"
      "sharding.shards = 4\n"
      "sharding.cross_every = 2\n"
      "sharding.backbone_mbps = 400\n"
      "sharding.backbone_delay_ms = 5\n";
  CampaignSpec spec;
  std::string err;
  ASSERT_TRUE(parse_campaign_spec(text, spec, err)) << err;
  EXPECT_EQ(spec.workload.sharding.clients_per_cell, 2u);
  EXPECT_EQ(spec.workload.sharding.shards, 4u);
  EXPECT_EQ(spec.workload.sharding.cross_every, 2u);
  EXPECT_DOUBLE_EQ(spec.workload.sharding.backbone_mbps, 400.0);
  EXPECT_EQ(spec.workload.sharding.backbone_delay, sim::milliseconds(5));
  EXPECT_EQ(spec.workload.cell_count(), 4u);

  // Zero backbone delay would collapse the conservative lookahead window;
  // the parser refuses before any fleet gets built.
  EXPECT_FALSE(parse_campaign_spec(
      "name = sh\nprotocols = emptcp\nfleet_sizes = 8\nseeds = 1\n"
      "sharding.backbone_delay_ms = 0\n",
      spec, err));
  EXPECT_NE(err.find("backbone_delay_ms"), std::string::npos);
  EXPECT_FALSE(parse_campaign_spec(
      "name = sh\nprotocols = emptcp\nfleet_sizes = 8\nseeds = 1\n"
      "sharding.backbone_mbps = -1\n",
      spec, err));
  EXPECT_NE(err.find("backbone_mbps"), std::string::npos);
}

constexpr const char* kGrid =
    "name = v\nprotocols = emptcp\nfleet_sizes = 4\nseeds = 1\n";

bool parses(const std::string& extra, std::string& err) {
  CampaignSpec spec;
  return parse_campaign_spec(kGrid + extra, spec, err);
}

/// EMPTCP_FIDELITY set to `value` (unset for nullptr) for one scope.
class FidelityEnv {
 public:
  explicit FidelityEnv(const char* value) {
    if (const char* prev = std::getenv("EMPTCP_FIDELITY")) saved_ = prev;
    set(value);
  }
  ~FidelityEnv() { set(saved_ ? saved_->c_str() : nullptr); }

 private:
  static void set(const char* value) {
    if (value != nullptr) {
      ::setenv("EMPTCP_FIDELITY", value, 1);
    } else {
      ::unsetenv("EMPTCP_FIDELITY");
    }
  }
  std::optional<std::string> saved_;
};

TEST(CampaignSpecTest, RejectsHybridFidelityOnShardedFleet) {
  std::string err;
  {
    const FidelityEnv packet(nullptr);
    ASSERT_TRUE(parses("sharding.clients_per_cell = 2\n", err)) << err;
    ASSERT_TRUE(parses("scenario.fidelity = hybrid\n", err)) << err;
    EXPECT_FALSE(parses(
        "scenario.fidelity = hybrid\nsharding.clients_per_cell = 2\n", err));
    EXPECT_NE(err.find("hybrid"), std::string::npos) << err;
    EXPECT_NE(err.find("clients_per_cell"), std::string::npos) << err;
  }
  // The EMPTCP_FIDELITY default counts too; an explicit packet key wins.
  const FidelityEnv hybrid("hybrid");
  EXPECT_FALSE(parses("sharding.clients_per_cell = 2\n", err));
  EXPECT_TRUE(parses(
      "sharding.clients_per_cell = 2\nscenario.fidelity = packet\n", err))
      << err;
}

TEST(CampaignSpecTest, RejectsOpenLoopRateThatIsNotPositiveAndFinite) {
  std::string err;
  ASSERT_TRUE(parses("mode = open\narrival.rate_per_s = 0.5\n", err)) << err;
  for (const char* rate : {"0", "-2", "1e999"}) {
    EXPECT_FALSE(parses(std::string("mode = open\narrival.rate_per_s = ") +
                            rate + "\n",
                        err))
        << rate;
    EXPECT_NE(err.find("arrival.rate_per_s"), std::string::npos) << err;
  }
  EXPECT_FALSE(parses(
      "mode = open\narrival.kind = deterministic\narrival.rate_per_s = 0\n",
      err));
  // A closed loop never reads the arrival process.
  EXPECT_TRUE(parses("arrival.rate_per_s = 0\n", err)) << err;
}

TEST(CampaignSpecTest, RejectsTraceArrivalsWithoutTimes) {
  std::string err;
  EXPECT_FALSE(parses("mode = open\narrival.kind = trace\n", err));
  EXPECT_NE(err.find("arrival.times_s"), std::string::npos) << err;
  EXPECT_TRUE(parses(
      "mode = open\narrival.kind = trace\narrival.times_s = 0, 1.5\n", err))
      << err;
}

TEST(CampaignSpecTest, RejectsMinSizeAboveMaxSize) {
  std::string err;
  EXPECT_FALSE(
      parses("size.min_bytes = 4096\nsize.max_bytes = 1024\n", err));
  EXPECT_NE(err.find("size.min_bytes"), std::string::npos) << err;
  EXPECT_TRUE(parses("size.min_bytes = 1024\nsize.max_bytes = 1024\n", err))
      << err;
}

TEST(CampaignSpecTest, ParsesDeviceAndCellTech) {
  CampaignSpec spec;
  std::string err;
  ASSERT_TRUE(parse_campaign_spec(std::string(kGrid), spec, err)) << err;
  EXPECT_EQ(spec.workload.scenario.device.name,
            energy::DeviceProfile::galaxy_s3().name);
  EXPECT_EQ(spec.workload.scenario.cell_tech, energy::CellTech::kLte);

  ASSERT_TRUE(parse_campaign_spec(
      std::string(kGrid) + "scenario.device = nexus5\n"
                           "scenario.cell_tech = 3g\n",
      spec, err))
      << err;
  EXPECT_EQ(spec.workload.scenario.device.name,
            energy::DeviceProfile::nexus5().name);
  EXPECT_EQ(spec.workload.scenario.cell_tech, energy::CellTech::kThreeG);

  ASSERT_TRUE(parse_campaign_spec(
      std::string(kGrid) + "scenario.device = galaxy-s3\n"
                           "scenario.cell_tech = lte\n",
      spec, err))
      << err;
  EXPECT_EQ(spec.workload.scenario.device.name,
            energy::DeviceProfile::galaxy_s3().name);
  EXPECT_EQ(spec.workload.scenario.cell_tech, energy::CellTech::kLte);
}

TEST(CampaignSpecTest, RejectsUnknownDeviceAndCellTech) {
  std::string err;
  for (const char* bad : {"scenario.device = iphone\n",
                          "scenario.device = Nexus5\n",
                          "scenario.device = 5\n",
                          "scenario.cell_tech = 5g\n",
                          "scenario.cell_tech = LTE\n"}) {
    EXPECT_FALSE(parses(bad, err)) << bad;
    EXPECT_NE(err.find("scenario."), std::string::npos) << err;
    EXPECT_NE(err.find("unknown"), std::string::npos) << err;
  }
  EXPECT_FALSE(parses("scenario.fidelity = fluid\n", err));
  EXPECT_NE(err.find("scenario.fidelity"), std::string::npos) << err;
  EXPECT_FALSE(parses("scenario.wifi.bogus = 1\n", err));
  EXPECT_NE(err.find("scenario.wifi.bogus"), std::string::npos) << err;
}

TEST(CampaignSpecTest, ParsesApplicationKind) {
  using Kind = workload::Application::Kind;
  const FidelityEnv packet(nullptr);
  CampaignSpec spec;
  std::string err;
  ASSERT_TRUE(parse_campaign_spec(std::string(kGrid), spec, err)) << err;
  EXPECT_EQ(spec.workload.application.kind, Kind::kDownload);
  for (const Kind kind : {Kind::kDownload, Kind::kUpload, Kind::kStream}) {
    ASSERT_TRUE(parse_campaign_spec(std::string(kGrid) + "app.kind = " +
                                        application_slug(kind) + "\n",
                                    spec, err))
        << err;
    EXPECT_EQ(spec.workload.application.kind, kind);
  }
}

TEST(CampaignSpecTest, RejectsWebUnknownAndHybridApplications) {
  std::string err;
  {
    const FidelityEnv packet(nullptr);
    // No key can state a page, so a web cell would have nothing to load.
    EXPECT_FALSE(parses("app.kind = web\n", err));
    EXPECT_EQ(err, "app.kind = web: no spec can state a web page yet");
    EXPECT_FALSE(parses("app.kind = video\n", err));
    EXPECT_EQ(err, "app.kind: unknown application \"video\"");
    EXPECT_FALSE(
        parses("app.kind = upload\nscenario.fidelity = hybrid\n", err));
    EXPECT_NE(err.find("app.kind = download only"), std::string::npos) << err;
    EXPECT_TRUE(parses("app.kind = download\nscenario.fidelity = hybrid\n",
                       err))
        << err;
  }
  // The EMPTCP_FIDELITY default counts too; an explicit packet key wins.
  const FidelityEnv hybrid("hybrid");
  EXPECT_FALSE(parses("app.kind = stream\n", err));
  EXPECT_NE(err.find("app.kind = download only"), std::string::npos) << err;
  EXPECT_TRUE(parses("app.kind = stream\nscenario.fidelity = packet\n", err))
      << err;
}

/// Every *.spec under examples/campaigns, recursively, in sorted order.
std::vector<std::filesystem::path> committed_specs() {
  std::vector<std::filesystem::path> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(
           EMPTCP_CAMPAIGNS_DIR)) {
    if (e.is_regular_file() && e.path().extension() == ".spec") {
      out.push_back(e.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CampaignSpecTest, EveryCommittedSpecParses) {
  const FidelityEnv packet(nullptr);
  const std::vector<std::filesystem::path> specs = committed_specs();
  EXPECT_GE(specs.size(), 17u);  // 4 at the top level + 13 under paper/
  for (const auto& path : specs) {
    CampaignSpec spec;
    std::string err;
    EXPECT_TRUE(load_campaign_spec(path.string(), spec, err)) << err;
  }
}

TEST(CampaignSpecTest, PaperSpecsRunOneClientWithOneFixedSizeFlow) {
  // A cell of such a spec is the run Scenario's run_download, run_upload
  // or run_stream makes at the same seed
  // (tests/campaign/figure_spec_test.cpp), which is what lets the paper
  // specs stand in for the figure and extension benches.
  const FidelityEnv packet(nullptr);
  std::size_t paper = 0;
  for (const auto& path : committed_specs()) {
    if (path.parent_path().filename() != "paper") continue;
    ++paper;
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(load_campaign_spec(path.string(), spec, err)) << err;
    const workload::FleetConfig& w = spec.workload;
    EXPECT_EQ(spec.fleet_sizes, std::vector<std::size_t>{1}) << path;
    EXPECT_EQ(w.mode, workload::FleetConfig::Mode::kClosed) << path;
    EXPECT_EQ(w.flows_per_client, 1u) << path;
    EXPECT_EQ(w.flow_size.kind, workload::SizeDist::Kind::kFixed) << path;
    EXPECT_GT(w.flow_size.mean_bytes, 0u) << path;
    EXPECT_EQ(w.sharding.clients_per_cell, 0u) << path;
  }
  EXPECT_EQ(paper, 13u);
}

TEST(CampaignSpecTest, ProtocolSlugsRoundTrip) {
  for (const app::Protocol p :
       {app::Protocol::kTcpWifi, app::Protocol::kTcpLte, app::Protocol::kMptcp,
        app::Protocol::kEmptcp, app::Protocol::kWifiFirst,
        app::Protocol::kMdp}) {
    const auto back = app::protocol_from_string(protocol_slug(p));
    ASSERT_TRUE(back.has_value()) << protocol_slug(p);
    EXPECT_EQ(*back, p);
  }
}

}  // namespace
}  // namespace emptcp::campaign
