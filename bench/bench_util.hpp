// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary prints:
//   * a header naming the paper figure/table it regenerates,
//   * the workload parameters,
//   * the reproduced rows/series as ASCII tables or charts,
//   * a "paper shape" note stating what relationship should hold.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/manifest.hpp"
#include "app/scenario.hpp"
#include "runtime/replication.hpp"
#include "stats/csv.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"

namespace emptcp::bench {

inline constexpr std::uint64_t kKB = 1024;
inline constexpr std::uint64_t kMB = 1024 * 1024;

inline void header(const std::string& figure, const std::string& what) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s — %s\n", figure.c_str(), what.c_str());
  std::printf("==============================================================="
              "=================\n");
}

inline void note(const std::string& text) {
  std::printf("shape check: %s\n\n", text.c_str());
}

/// When EMPTCP_CSV_DIR is set, dumps the named trace columns there as a
/// CSV (for external plotting of the time-series figures).
inline void maybe_dump_csv(
    const std::string& name,
    const std::vector<std::pair<std::string, const stats::Series*>>& cols) {
  const char* dir = std::getenv("EMPTCP_CSV_DIR");
  if (dir == nullptr) return;
  std::string file = name;
  for (char& c : file) {
    if (c == '/' || c == ' ') c = '-';
  }
  const std::string path = std::string(dir) + "/" + file + ".csv";
  if (stats::write_file(path, stats::series_table_to_csv(cols))) {
    std::printf("(wrote %s)\n", path.c_str());
  }
}

/// Where maybe_dump_run put a run's artifact pair: `path` is empty when
/// EMPTCP_TRACE_DIR is unset, else the trace written (`ok`) or the file
/// that could not be written.
struct DumpResult {
  std::string path;
  bool ok = true;
};

/// When EMPTCP_TRACE_DIR is set, writes one run's trace as JSONL *plus* a
/// run manifest next to it (`<name>.manifest.json`): grouping key,
/// protocol, seed, workload, scenario + build parameters and an FNV-1a
/// digest of the trace bytes. The pair is the self-describing artifact
/// `emptcp-report` consumes; analysis::write_run_artifacts writes it, as
/// it does for campaign cells. Prints nothing: pool workers call this, so
/// run_specs reports the results afterwards, in a fixed order.
inline DumpResult maybe_dump_run(const std::string& group,
                                 const app::ScenarioConfig& cfg,
                                 app::Protocol p, std::uint64_t seed,
                                 const std::string& workload,
                                 const app::RunMetrics& m) {
  const char* dir = std::getenv("EMPTCP_TRACE_DIR");
  if (dir == nullptr) return {};
  std::string file = group + "-" + app::to_string(p) + "-s" +
                     std::to_string(seed);
  for (char& c : file) {
    if (c == '/' || c == ' ') c = '-';
  }
  analysis::RunManifest manifest;
  manifest.group = group;
  manifest.protocol = app::to_string(p);
  manifest.seed = seed;
  manifest.workload = workload;
  manifest.params = analysis::describe_scenario(cfg);
  const std::string failed = analysis::write_run_artifacts(
      dir, file, m.trace_events, m.trace_metrics, manifest);
  if (!failed.empty()) return {failed, false};
  return {std::string(dir) + "/" + manifest.trace_file, true};
}

/// One cell of a figure's replication grid: which scenario to build, which
/// protocol to drive, and what workload to run. `run_specs` fans a list of
/// these out on the replication pool — the shared loop every comparison
/// bench used to hand-roll — and dumps each run's trace + manifest pair
/// under EMPTCP_TRACE_DIR.
struct RunSpec {
  std::string group;  ///< manifest group / artifact basename prefix
  app::ScenarioConfig cfg;
  app::Protocol protocol = app::Protocol::kEmptcp;
  /// Per-seed config override (environmental jitter between repeat runs,
  /// Fig. 13 style); when set it replaces `cfg` for that seed.
  std::function<app::ScenarioConfig(std::uint64_t seed)> cfg_for;
  /// When set, this run ignores the shared seed list and always uses this
  /// seed (the in-the-wild benches give every trace draw its own seed).
  std::optional<std::uint64_t> fixed_seed;

  enum class Kind : std::uint8_t { kDownload, kTimed };
  Kind kind = Kind::kDownload;
  std::uint64_t bytes = 0;       ///< kDownload payload
  sim::Duration duration = 0;    ///< kTimed horizon
  std::string workload;          ///< manifest workload tag
};

/// "256MB" / "256KB" / "1500B" — the manifest workload size tag.
inline std::string size_tag(std::uint64_t bytes) {
  if (bytes != 0 && bytes % kMB == 0) return std::to_string(bytes / kMB) + "MB";
  if (bytes != 0 && bytes % kKB == 0) return std::to_string(bytes / kKB) + "KB";
  return std::to_string(bytes) + "B";
}

inline RunSpec download_spec(std::string group, app::ScenarioConfig cfg,
                             app::Protocol p, std::uint64_t bytes) {
  RunSpec rs;
  rs.group = std::move(group);
  rs.cfg = std::move(cfg);
  rs.protocol = p;
  rs.kind = RunSpec::Kind::kDownload;
  rs.bytes = bytes;
  rs.workload = "download-" + size_tag(bytes);
  return rs;
}

inline RunSpec timed_spec(std::string group, app::ScenarioConfig cfg,
                          app::Protocol p, sim::Duration d) {
  RunSpec rs;
  rs.group = std::move(group);
  rs.cfg = std::move(cfg);
  rs.protocol = p;
  rs.kind = RunSpec::Kind::kTimed;
  rs.duration = d;
  rs.workload = "timed-" + std::to_string(d / sim::seconds(1)) + "s";
  return rs;
}

/// Runs every (spec, seed) replication on the pool and returns the
/// [spec][seed] metrics matrix in submission order — aggregation stays
/// identical to the sequential nesting. Tracing follows EMPTCP_TRACE_DIR:
/// when set, each run records its structured trace and dumps the
/// trace + manifest artifact pair there.
inline std::vector<std::vector<app::RunMetrics>> run_specs(
    const std::vector<RunSpec>& specs,
    const std::vector<std::uint64_t>& seeds) {
  struct Run {
    app::RunMetrics m;
    DumpResult dump;
  };
  auto runs = runtime::run_replications(
      specs, seeds, [](const RunSpec& rs, std::uint64_t pool_seed) {
        const std::uint64_t seed = rs.fixed_seed.value_or(pool_seed);
        app::ScenarioConfig cfg = rs.cfg_for ? rs.cfg_for(seed) : rs.cfg;
        cfg.trace = std::getenv("EMPTCP_TRACE_DIR") != nullptr;
        app::Scenario s(cfg);
        Run r;
        r.m = rs.kind == RunSpec::Kind::kTimed
                  ? s.run_timed(rs.protocol, rs.duration, seed)
                  : s.run_download(rs.protocol, rs.bytes, seed);
        r.dump = maybe_dump_run(rs.group, cfg, rs.protocol, seed,
                                rs.workload, r.m);
        return r;
      });
  // Reported here, in [spec][seed] order, not from the workers: stdout is
  // then the same for any EMPTCP_JOBS.
  std::vector<std::vector<app::RunMetrics>> matrix(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (Run& r : runs[i]) {
      if (!r.dump.ok) {
        std::fprintf(stderr, "bench: cannot write %s\n", r.dump.path.c_str());
      } else if (!r.dump.path.empty()) {
        std::printf("(wrote %s + manifest)\n", r.dump.path.c_str());
      }
      matrix[i].push_back(std::move(r.m));
    }
  }
  return matrix;
}

/// "mean ± SEM" cell, the paper's Figs. 8/10/13 presentation (Eq. 2).
inline std::string mean_sem(const std::vector<double>& xs, int precision = 1) {
  return stats::Table::num(stats::mean(xs), precision) + " ± " +
         stats::Table::num(stats::sem(xs), precision);
}

/// Whisker-summary cell for the in-the-wild figures (Q1/median/Q3, range,
/// outlier count).
inline std::string whisker_cell(const std::vector<double>& xs,
                                int precision = 1) {
  const stats::Whisker w = stats::whisker(xs);
  std::string s = stats::Table::num(w.q1, precision) + "/" +
                  stats::Table::num(w.median, precision) + "/" +
                  stats::Table::num(w.q3, precision);
  s += " [" + stats::Table::num(w.lo_whisker, precision) + ".." +
       stats::Table::num(w.hi_whisker, precision) + "]";
  if (!w.outliers.empty()) {
    s += " +" + std::to_string(w.outliers.size()) + " outl";
  }
  return s;
}

/// The controlled-lab setup of §4.1 (campus server, 802.11g AP, AT&T LTE),
/// with WiFi/LTE rates supplied per experiment.
inline app::ScenarioConfig lab_config(double wifi_mbps, double cell_mbps,
                                      bool record_series = false) {
  app::ScenarioConfig cfg;
  cfg.wifi.down_mbps = wifi_mbps;
  cfg.cell.down_mbps = cell_mbps;
  cfg.wifi.rtt = sim::milliseconds(30);
  cfg.cell.rtt = sim::milliseconds(60);
  cfg.record_series = record_series;
  return cfg;
}

/// One of the §5 wild environments: server location sets the RTT.
enum class ServerSite { kWdc, kAms, kSng };

inline const char* to_string(ServerSite s) {
  switch (s) {
    case ServerSite::kWdc: return "WDC";
    case ServerSite::kAms: return "AMS";
    case ServerSite::kSng: return "SNG";
  }
  return "?";
}

inline sim::Duration site_rtt(ServerSite s) {
  switch (s) {
    case ServerSite::kWdc: return sim::milliseconds(25);
    case ServerSite::kAms: return sim::milliseconds(95);
    case ServerSite::kSng: return sim::milliseconds(250);
  }
  return sim::milliseconds(25);
}

}  // namespace emptcp::bench
