// Golden-artifact test for the reporting pipeline.
//
// A small committed set of traces + manifests (tests/data/golden/) pins
// down two things at once:
//   1. the simulation + trace serialization is deterministic: regenerating
//      the artifacts in-process reproduces the committed traces and
//      manifests byte for byte;
//   2. `render_report` over those artifacts, loaded through
//      load_analyzed_runs as emptcp-report loads them, is byte-identical
//      to the committed report, independent of input order.
// Regenerate after an intentional behavior change with
//   EMPTCP_REGEN_GOLDEN=1 ctest -R GoldenReport
// and commit the refreshed files under tests/data/golden/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/manifest.hpp"
#include "analysis/report.hpp"
#include "analysis/report_io.hpp"
#include "analysis/rollup.hpp"
#include "app/scenario.hpp"
#include "stats/trace_export.hpp"

namespace emptcp::analysis {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kDownloadBytes = 256 * 1024;

struct GoldenCase {
  app::Protocol protocol;
  std::uint64_t seed;
};

const std::vector<GoldenCase>& cases() {
  static const std::vector<GoldenCase> kCases{
      {app::Protocol::kEmptcp, 1},
      {app::Protocol::kEmptcp, 2},
      {app::Protocol::kMptcp, 1},
      {app::Protocol::kMptcp, 2},
  };
  return kCases;
}

fs::path golden_dir() {
  return fs::path(EMPTCP_TEST_DATA_DIR) / "golden";
}

std::string artifact_stem(const GoldenCase& c) {
  return std::string("golden-") + app::to_string(c.protocol) + "-s" +
         std::to_string(c.seed);
}

app::ScenarioConfig golden_config() {
  app::ScenarioConfig cfg;
  cfg.trace = true;
  cfg.record_series = false;
  return cfg;
}

struct Artifact {
  std::string jsonl;
  RunManifest manifest;
};

Artifact generate(const GoldenCase& c) {
  app::Scenario scenario(golden_config());
  const app::RunMetrics m =
      scenario.run_download(c.protocol, kDownloadBytes, c.seed);
  Artifact a;
  a.jsonl = stats::trace_to_jsonl(m.trace_events, m.trace_metrics);
  a.manifest.group = "golden";
  a.manifest.protocol = app::to_string(c.protocol);
  a.manifest.seed = c.seed;
  a.manifest.workload = "download-" + std::to_string(kDownloadBytes) + "B";
  a.manifest.trace_file = artifact_stem(c) + ".jsonl";
  a.manifest.trace_events = m.trace_events.size();
  a.manifest.trace_digest = fnv1a64_hex(a.jsonl);
  // Scenario params only: build params (compiler banner) would churn the
  // committed files on every toolchain bump without changing the report.
  a.manifest.params = describe_scenario(golden_config());
  return a;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return in ? out.str() : std::string();
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good()) << "write failed: " << p;
}

/// The committed artifacts, loaded the way emptcp-report loads them.
std::vector<AnalyzedRun> load_committed() {
  std::vector<AnalyzedRun> runs;
  std::string err;
  EXPECT_TRUE(load_analyzed_runs({golden_dir().string()}, runs, err)) << err;
  return runs;
}

bool regen_requested() {
  const char* v = std::getenv("EMPTCP_REGEN_GOLDEN");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

TEST(GoldenReportTest, ArtifactsMatchCurrentSimulation) {
  if (regen_requested()) {
    fs::create_directories(golden_dir());
    for (const GoldenCase& c : cases()) {
      const Artifact a = generate(c);
      write_file(golden_dir() / a.manifest.trace_file, a.jsonl);
      write_file(golden_dir() / (artifact_stem(c) + ".manifest.json"),
                 manifest_to_json(a.manifest));
    }
    write_file(golden_dir() / "report.txt", render_report(load_committed()));
    GTEST_SKIP() << "regenerated golden artifacts in " << golden_dir();
  }
  for (const GoldenCase& c : cases()) {
    const Artifact a = generate(c);
    const std::string committed =
        read_file(golden_dir() / a.manifest.trace_file);
    ASSERT_FALSE(committed.empty())
        << "missing golden trace for " << artifact_stem(c)
        << " (run with EMPTCP_REGEN_GOLDEN=1 to create)";
    // Byte equality — stronger than the digest, and pinpoints drift.
    EXPECT_EQ(a.jsonl, committed)
        << artifact_stem(c)
        << ": simulation output drifted from the committed golden trace";
    // The manifest too: its event count, digest and scenario parameters.
    EXPECT_EQ(manifest_to_json(a.manifest),
              read_file(golden_dir() / (artifact_stem(c) + ".manifest.json")))
        << artifact_stem(c) << ": manifest drifted from the committed one";
  }
}

TEST(GoldenReportTest, ReportIsByteIdenticalToCommitted) {
  if (regen_requested()) GTEST_SKIP() << "regen mode";
  std::vector<AnalyzedRun> runs = load_committed();
  ASSERT_EQ(runs.size(), cases().size());
  for (const AnalyzedRun& r : runs) {
    EXPECT_TRUE(r.digest_ok) << r.source << ": digest mismatch";
  }
  const std::string expected = read_file(golden_dir() / "report.txt");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(render_report(runs), expected);
  // Input order must not matter.
  std::vector<AnalyzedRun> reversed(runs.rbegin(), runs.rend());
  EXPECT_EQ(render_report(std::move(reversed)), expected);
}

TEST(GoldenReportTest, StreamedWriterMatchesInMemoryTextAndDigest) {
  // The campaign writes traces through write_trace_jsonl, which digests
  // each chunk as it writes it; its file and digest must equal the
  // in-memory text and a digest over it.
  for (const GoldenCase& c : cases()) {
    app::Scenario scenario(golden_config());
    const app::RunMetrics m =
        scenario.run_download(c.protocol, kDownloadBytes, c.seed);
    const std::string jsonl =
        stats::trace_to_jsonl(m.trace_events, m.trace_metrics);
    const fs::path path = fs::path(::testing::TempDir()) /
                          ("streamed-" + artifact_stem(c) + ".jsonl");
    std::string digest;
    ASSERT_TRUE(stats::write_trace_jsonl(path.string(), m.trace_events,
                                         m.trace_metrics, digest));
    EXPECT_EQ(read_file(path), jsonl) << artifact_stem(c);
    EXPECT_EQ(digest, fnv1a64_hex(jsonl)) << artifact_stem(c);
    fs::remove(path);
  }
}

TEST(GoldenReportTest, RollupReproducesHeadlineNumbersFromTraceAlone) {
  if (regen_requested()) GTEST_SKIP() << "regen mode";
  // The run.* gauges inside the serialized trace must reproduce what the
  // simulation reported directly — the property that makes offline
  // reporting trustworthy.
  const GoldenCase c = cases().front();
  app::Scenario scenario(golden_config());
  const app::RunMetrics m =
      scenario.run_download(c.protocol, kDownloadBytes, c.seed);
  const Artifact a = generate(c);
  RollupBuilder b(a.manifest);
  std::string err;
  ASSERT_TRUE(b.feed(a.jsonl, err) && b.close(err)) << err;
  const RunRollup r = b.finish();
  EXPECT_EQ(r.completed, m.completed);
  EXPECT_DOUBLE_EQ(r.time_s, m.download_time_s);
  EXPECT_DOUBLE_EQ(r.energy_j, m.energy_j);
  EXPECT_DOUBLE_EQ(r.wifi_j, m.wifi_j);
  EXPECT_DOUBLE_EQ(r.cell_j, m.cell_j);
  EXPECT_EQ(r.bytes, m.bytes_received);
  ASSERT_GT(r.bytes, 0u);
  // And the independent energy integration tracks the tracker's total.
  EXPECT_GT(r.integrated_energy_j, 0.0);
  EXPECT_NEAR(r.integrated_energy_j, r.energy_j, 0.05 * r.energy_j);
}

}  // namespace
}  // namespace emptcp::analysis
