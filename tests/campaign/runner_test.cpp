// CampaignRunner: grid execution, artifact layout, checkpoint/resume and
// worker-count independence (byte-identical artifacts).
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "analysis/json.hpp"
#include "analysis/report.hpp"
#include "analysis/report_io.hpp"
#include "analysis/rollup.hpp"

namespace emptcp::campaign {
namespace {

namespace fs = std::filesystem;

CampaignSpec tiny_spec() {
  CampaignSpec spec;
  std::string err;
  const bool ok = parse_campaign_spec(
      "name = t\n"
      "protocols = emptcp, tcp-wifi\n"
      "fleet_sizes = 2\n"
      "seeds = 1, 2\n"
      "flows_per_client = 1\n"
      "size.kind = fixed\n"
      "size.mean_bytes = 60000\n",
      spec, err);
  EXPECT_TRUE(ok) << err;
  return spec;
}

CampaignSpec sharded_spec(std::size_t shards, const std::string& extra = "") {
  CampaignSpec spec;
  std::string err;
  // Fidelity pinned: a sharded spec is rejected at hybrid, and the
  // default follows EMPTCP_FIDELITY.
  const bool ok = parse_campaign_spec(
      extra +
      "name = sh\n"
      "protocols = emptcp\n"
      "fleet_sizes = 8\n"
      "seeds = 1\n"
      "scenario.fidelity = packet\n"
      "flows_per_client = 1\n"
      "size.kind = fixed\n"
      "size.mean_bytes = 50000\n"
      "sharding.clients_per_cell = 2\n"
      "sharding.cross_every = 2\n",
      spec, err);
  EXPECT_TRUE(ok) << err;
  spec.workload.sharding.shards = shards;
  return spec;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every regular file in `dir`, name -> contents.
std::map<std::string, std::string> snapshot(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      out[entry.path().filename().string()] = slurp(entry.path());
    }
  }
  return out;
}

class CampaignRunnerTest : public ::testing::Test {
 protected:
  /// Named by the process too: ctest runs this suite twice at once (its
  /// own entries and campaign_parallel_jobs), and two runs of one test
  /// must not share a directory.
  fs::path fresh_dir(const char* tag) {
    const fs::path dir = fs::path(::testing::TempDir()) /
                         (std::string("campaign_") + tag + "_" +
                          ::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name() +
                          "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    return dir;
  }
};

TEST_F(CampaignRunnerTest, RunsGridAndWritesArtifactPairs) {
  const fs::path dir = fresh_dir("grid");
  CampaignRunner runner(tiny_spec(), dir.string());
  const CampaignResult result = runner.run(1);
  EXPECT_EQ(result.ran, 4u);
  EXPECT_EQ(result.resumed, 0u);
  ASSERT_EQ(result.cells.size(), 4u);
  for (const CellOutcome& o : result.cells) {
    EXPECT_TRUE(fs::exists(dir / (o.cell.label + ".jsonl"))) << o.cell.label;
    EXPECT_TRUE(fs::exists(dir / (o.cell.label + ".manifest.json")));
  }
  // The ledger holds one sorted line per cell.
  const std::string ledger = slurp(dir / "campaign.ledger");
  EXPECT_EQ(std::count(ledger.begin(), ledger.end(), '\n'), 4);

  // The artifacts analyze: 4 runs, flow events folded into the rollups.
  std::vector<analysis::AnalyzedRun> runs;
  std::string err;
  ASSERT_TRUE(analysis::load_analyzed_runs({dir.string()}, runs, err)) << err;
  ASSERT_EQ(runs.size(), 4u);
  for (const analysis::AnalyzedRun& r : runs) {
    EXPECT_TRUE(r.digest_ok) << r.source;
    EXPECT_EQ(r.rollup.flows_started, 2u);
    EXPECT_EQ(r.rollup.flows_completed, 2u);
    EXPECT_EQ(r.rollup.flow_fct_s.count(), 2u);
  }
}

TEST_F(CampaignRunnerTest, CellsSeedTheirWorldWithTheSpecSeed) {
  // Seeds are paired: every protocol and fleet size of a 3 x 2 x 3 grid
  // simulates at the spec seed itself.
  CampaignSpec spec;
  std::string err;
  ASSERT_TRUE(parse_campaign_spec("name = camp\n"
                                  "protocols = emptcp, mptcp, tcp-wifi\n"
                                  "fleet_sizes = 4, 16\n"
                                  "seeds = 1, 2, 3\n",
                                  spec, err))
      << err;
  const std::vector<CampaignCell> cells =
      CampaignRunner(spec, fresh_dir("seeds").string()).cells();
  ASSERT_EQ(cells.size(), 18u);
  for (const CampaignCell& cell : cells) {
    EXPECT_EQ(cell.derived_seed, cell.seed) << cell.label;
  }

  // The manifests record the seed once, as `seed`, and the device.
  const fs::path dir = fresh_dir("manifests");
  CampaignRunner runner(tiny_spec(), dir.string());
  runner.run(1);
  for (const CampaignCell& cell : runner.cells()) {
    const auto doc = analysis::parse_json_flat(
        slurp(dir / (cell.label + ".manifest.json")), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    analysis::RunManifest manifest;
    ASSERT_TRUE(analysis::manifest_from_json(*doc, manifest));
    EXPECT_EQ(manifest.seed, cell.seed);
    bool device = false;
    for (const auto& [key, value] : manifest.params) {
      EXPECT_NE(key, "fleet.derived_seed") << cell.label;
      device |= key == "device";
    }
    EXPECT_TRUE(device) << cell.label;
  }
}

TEST_F(CampaignRunnerTest, ResumeSkipsCompletedCells) {
  const fs::path dir = fresh_dir("resume");
  CampaignRunner first(tiny_spec(), dir.string());
  ASSERT_EQ(first.run(1).ran, 4u);
  const auto before = snapshot(dir);

  CampaignRunner second(tiny_spec(), dir.string());
  const CampaignResult result = second.run(1);
  EXPECT_EQ(result.ran, 0u);
  EXPECT_EQ(result.resumed, 4u);
  EXPECT_EQ(snapshot(dir), before);  // nothing rewritten differently
}

TEST_F(CampaignRunnerTest, ResumeAfterMidCampaignKillRecovers) {
  const fs::path dir = fresh_dir("kill");
  CampaignRunner first(tiny_spec(), dir.string());
  ASSERT_EQ(first.run(1).ran, 4u);
  const auto complete = snapshot(dir);

  // Simulate a kill mid-campaign: one cell's trace is torn (partial
  // write), another cell vanished entirely, and the ledger's final line
  // is truncated mid-digest.
  const std::string torn = first.cells()[0].label;
  const std::string missing = first.cells()[1].label;
  {
    const std::string full = slurp(dir / (torn + ".jsonl"));
    std::ofstream out(dir / (torn + ".jsonl"),
                      std::ios::binary | std::ios::trunc);
    out << full.substr(0, full.size() / 2);
  }
  fs::remove(dir / (missing + ".jsonl"));
  fs::remove(dir / (missing + ".manifest.json"));
  {
    const std::string ledger = slurp(dir / "campaign.ledger");
    std::ofstream out(dir / "campaign.ledger",
                      std::ios::binary | std::ios::trunc);
    out << ledger.substr(0, ledger.size() - 10);  // torn final line
  }

  CampaignRunner second(tiny_spec(), dir.string());
  const CampaignResult result = second.run(1);
  // The torn and missing cells re-ran (plus whichever cell lost its
  // ledger line); nothing was recomputed needlessly beyond those.
  EXPECT_GE(result.ran, 2u);
  EXPECT_LE(result.ran, 3u);
  EXPECT_EQ(result.ran + result.resumed, 4u);
  // Recovery converges to the uninterrupted run, byte for byte.
  EXPECT_EQ(snapshot(dir), complete);
}

// Regression: a spec with an empty seed list (or no protocols / fleet
// sizes) used to "succeed" instantly with zero cells and an empty ledger —
// a silently useless campaign. It must refuse loudly before touching the
// output directory.
TEST_F(CampaignRunnerTest, EmptyCellGridRefusesLoudly) {
  const fs::path dir = fresh_dir("empty");
  CampaignSpec spec = tiny_spec();
  spec.seeds.clear();
  ASSERT_EQ(spec.cell_count(), 0u);
  CampaignRunner runner(spec, dir.string());
  EXPECT_THROW(runner.run(1), std::invalid_argument);
  // No half-created campaign directory is left behind.
  EXPECT_FALSE(fs::exists(dir));
}

TEST_F(CampaignRunnerTest, ShardedCellsProduceShardCountIndependentArtifacts) {
  const fs::path d1 = fresh_dir("sh1");
  const fs::path d4 = fresh_dir("sh4");
  CampaignRunner one(sharded_spec(1), d1.string());
  CampaignRunner four(sharded_spec(4), d4.string());
  ASSERT_EQ(one.run(1).ran, 1u);
  ASSERT_EQ(four.run(1).ran, 1u);
  // Traces, manifests and the ledger are all byte-identical: the shard
  // count changes wall-clock time only, never an output byte.
  EXPECT_EQ(snapshot(d1), snapshot(d4));

  // The manifest names the cell topology — but never the shard count,
  // which would break artifact verification across machines.
  const std::string manifest = slurp(d1 / "sh-emptcp-f8-s1.manifest.json");
  EXPECT_NE(manifest.find("/cells4"), std::string::npos);
  EXPECT_NE(manifest.find("fleet.cells"), std::string::npos);
  EXPECT_NE(manifest.find("fleet.clients_per_cell"), std::string::npos);
  EXPECT_NE(manifest.find("fleet.cross_every"), std::string::npos);
  EXPECT_EQ(manifest.find("shards"), std::string::npos);

  // Sharded cells analyze like any other campaign artifact.
  std::vector<analysis::AnalyzedRun> runs;
  std::string err;
  ASSERT_TRUE(analysis::load_analyzed_runs({d1.string()}, runs, err)) << err;
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].digest_ok);
  EXPECT_EQ(runs[0].rollup.flows_started, 8u);
  EXPECT_EQ(runs[0].rollup.flows_completed, 8u);
}

TEST_F(CampaignRunnerTest, ShardedUploadCellsAreShardCountIndependent) {
  // Uploads cross cells too: every second flow of a cell sends to the next
  // cell's server over the backbone.
  const fs::path d1 = fresh_dir("up1");
  const fs::path d2 = fresh_dir("up2");
  CampaignRunner one(sharded_spec(1, "app.kind = upload\n"), d1.string());
  CampaignRunner two(sharded_spec(2, "app.kind = upload\n"), d2.string());
  ASSERT_EQ(one.run(1).ran, 1u);
  ASSERT_EQ(two.run(1).ran, 1u);
  EXPECT_EQ(snapshot(d1), snapshot(d2));
  const std::string manifest = slurp(d1 / "sh-emptcp-f8-s1.manifest.json");
  EXPECT_NE(manifest.find("/cells4/upload"), std::string::npos) << manifest;

  std::vector<analysis::AnalyzedRun> runs;
  std::string err;
  ASSERT_TRUE(analysis::load_analyzed_runs({d1.string()}, runs, err)) << err;
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].rollup.completed);
  EXPECT_EQ(runs[0].rollup.flows_started, 8u);
  EXPECT_EQ(runs[0].rollup.flows_completed, 8u);
  EXPECT_EQ(runs[0].rollup.bytes, 8u * 50000u);
}

TEST_F(CampaignRunnerTest, HeartbeatReportsProgressWithoutTouchingArtifacts) {
  const fs::path plain_dir = fresh_dir("hb_off");
  const fs::path hb_dir = fresh_dir("hb_on");
  CampaignRunner plain(tiny_spec(), plain_dir.string());
  CampaignRunner hb(tiny_spec(), hb_dir.string());
  hb.set_heartbeat(0.001);  // tick fast enough to fire mid-campaign
  ASSERT_EQ(plain.run(1).ran, 4u);
  ASSERT_EQ(hb.run(2).ran, 4u);

  // The heartbeat sidecar exists and its final line reports completion.
  const fs::path hb_file = hb.heartbeat_path();
  ASSERT_TRUE(fs::exists(hb_file)) << hb_file;
  const std::string jsonl = slurp(hb_file);
  ASSERT_FALSE(jsonl.empty());
  std::size_t end = jsonl.find_last_not_of('\n');
  ASSERT_NE(end, std::string::npos);
  const std::size_t start = jsonl.rfind('\n', end);
  const std::string last = jsonl.substr(
      start == std::string::npos ? 0 : start + 1,
      end - (start == std::string::npos ? 0 : start + 1) + 1);
  std::string err;
  const auto flat = analysis::parse_json_flat(last, &err);
  ASSERT_TRUE(flat) << err << " in: " << last;
  EXPECT_EQ(analysis::json_str(*flat, "schema", ""), "emptcp-heartbeat-v1");
  EXPECT_DOUBLE_EQ(analysis::json_num(*flat, "cells_total", -1.0), 4.0);
  EXPECT_DOUBLE_EQ(analysis::json_num(*flat, "cells_done", -1.0), 4.0);
  EXPECT_GE(analysis::json_num(*flat, "wall_s", -1.0), 0.0);

  // Every deterministic artifact is byte-identical to the quiet run; the
  // wall-clock sidecar is the only extra file.
  auto quiet = snapshot(plain_dir);
  auto noisy = snapshot(hb_dir);
  EXPECT_EQ(noisy.count("heartbeat.jsonl"), 1u);
  noisy.erase("heartbeat.jsonl");
  EXPECT_EQ(quiet, noisy);
}

TEST_F(CampaignRunnerTest, WorkerCountDoesNotChangeArtifacts) {
  const fs::path seq_dir = fresh_dir("seq");
  const fs::path par_dir = fresh_dir("par");
  CampaignRunner seq(tiny_spec(), seq_dir.string());
  CampaignRunner par(tiny_spec(), par_dir.string());
  ASSERT_EQ(seq.run(1).ran, 4u);
  ASSERT_EQ(par.run(4).ran, 4u);
  // Manifests, traces and the final ledger are all byte-identical:
  // campaign output is a pure function of (spec, out grid), independent
  // of scheduling.
  EXPECT_EQ(snapshot(seq_dir), snapshot(par_dir));
}

}  // namespace
}  // namespace emptcp::campaign
