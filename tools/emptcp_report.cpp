// emptcp-report: offline analysis CLI over trace + manifest artifacts.
//
// Report mode:
//   emptcp-report DIR [DIR...]
// scans each directory for `*.manifest.json` (written by the benches under
// EMPTCP_TRACE_DIR and by emptcp-campaign), loads the JSONL trace next to
// each manifest, verifies its digest, and renders the paper-style report
// (per-run rollups, mean±SEM aggregates, energy-per-bit table,
// quantiles/CDFs) to stdout. Output is deterministic: same artifacts ->
// byte-identical report.
//
// Diff mode (the CI gate):
//   emptcp-report --diff BASELINE.json CURRENT.json [--tol PAT=MODE:TOL...]
// compares two flat JSON metric files (e.g. BENCH_core.json) under
// per-metric tolerance rules. Exit code 1 when any metric is out of
// tolerance, 2 on usage/IO errors, 0 otherwise. User --tol rules are
// prepended to the defaults, so they win on overlap. MODE is one of
// ignore | exact | abs | factor | min (see analysis/report.hpp).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/perf_report.hpp"
#include "analysis/report.hpp"
#include "analysis/report_io.hpp"
#include "stats/csv.hpp"

namespace {

using namespace emptcp;

constexpr const char kUsage[] =
    "usage: emptcp-report DIR [DIR...] [--rollup-json FILE]\n"
    "       emptcp-report --diff BASELINE.json CURRENT.json"
    " [--tol PATTERN=MODE:TOL ...]\n"
    "       emptcp-report perf DIR [DIR...] [--trace-json FILE]\n"
    "       emptcp-report --help\n"
    "\n"
    "Report mode renders the paper-style report over every\n"
    "*.manifest.json (+ JSONL trace) found in the given directories;\n"
    "--rollup-json additionally writes the runs' rollups as one flat\n"
    "JSON document (per-run headline fields plus per-flow triples)\n"
    "suitable for diff mode — the hybrid-fidelity gate diffs two such\n"
    "exports.\n"
    "Diff mode compares two flat JSON metric files under per-metric\n"
    "tolerance rules (MODE: ignore|exact|abs|factor|min); exit 1 when\n"
    "out of tolerance.\n"
    "Perf mode renders the runtime-telemetry tables (per-shard epoch and\n"
    "utilization stats, barrier accounting, top spans) over every\n"
    "*.perf.json found in the given directories — the files\n"
    "emptcp-campaign and the benches write under EMPTCP_PERF_DIR.\n"
    "--trace-json additionally validates a Chrome trace-event export\n"
    "(the Perfetto-loadable `*.trace.json`) structurally.\n";

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int usage_error(const char* complaint) {
  if (complaint != nullptr) {
    std::fprintf(stderr, "emptcp-report: %s\n", complaint);
  }
  std::fputs(kUsage, stderr);
  return 2;
}

int run_report(const std::vector<std::string>& args) {
  std::vector<std::string> dirs;
  std::string rollup_json;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--rollup-json") {
      if (i + 1 >= args.size()) {
        return usage_error("--rollup-json needs a file");
      }
      rollup_json = args[++i];
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage_error(("unknown option: " + args[i]).c_str());
    } else {
      dirs.push_back(args[i]);
    }
  }
  if (dirs.empty()) return usage_error(nullptr);
  std::vector<analysis::AnalyzedRun> runs;
  std::string err;
  if (!analysis::load_analyzed_runs(dirs, runs, err)) {
    std::fprintf(stderr, "emptcp-report: %s\n", err.c_str());
    return 2;
  }
  if (runs.empty()) {
    std::fprintf(stderr, "emptcp-report: no *.manifest.json found\n");
    return 2;
  }
  if (!rollup_json.empty()) {
    if (!stats::write_file(rollup_json, analysis::rollup_flat_json(runs))) {
      std::fprintf(stderr, "emptcp-report: cannot write %s\n",
                   rollup_json.c_str());
      return 2;
    }
  }
  const std::string report = analysis::render_report(std::move(runs));
  std::fwrite(report.data(), 1, report.size(), stdout);
  return 0;
}

int run_diff(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  std::vector<analysis::ToleranceRule> rules;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--tol") {
      if (i + 1 >= args.size()) {
        return usage_error("--tol needs a PATTERN=MODE:TOL argument");
      }
      analysis::ToleranceRule rule;
      if (!analysis::parse_tolerance(args[++i], rule)) {
        std::fprintf(stderr, "emptcp-report: bad --tol spec: %s\n",
                     args[i].c_str());
        return 2;
      }
      rules.push_back(std::move(rule));
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage_error(("unknown option: " + args[i]).c_str());
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 2) {
    return usage_error("--diff needs exactly BASELINE.json and CURRENT.json");
  }
  for (auto& rule : analysis::default_bench_tolerances()) {
    rules.push_back(std::move(rule));
  }

  analysis::FlatJson docs[2];
  for (int i = 0; i < 2; ++i) {
    std::string text;
    if (!read_file(files[static_cast<std::size_t>(i)], text)) {
      std::fprintf(stderr, "emptcp-report: cannot read %s\n",
                   files[static_cast<std::size_t>(i)].c_str());
      return 2;
    }
    std::string err;
    auto doc = analysis::parse_json_flat(text, &err);
    if (!doc) {
      std::fprintf(stderr, "emptcp-report: %s: %s\n",
                   files[static_cast<std::size_t>(i)].c_str(), err.c_str());
      return 2;
    }
    docs[i] = std::move(*doc);
  }
  const analysis::DiffResult diff =
      analysis::diff_metrics(docs[0], docs[1], rules);
  const std::string rendered = diff.render();
  std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  return diff.violations > 0 ? 1 : 0;
}

int run_perf(const std::vector<std::string>& args) {
  std::vector<std::string> dirs;
  std::string trace_json;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--trace-json") {
      if (i + 1 >= args.size()) {
        return usage_error("--trace-json needs a file");
      }
      trace_json = args[++i];
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage_error(("unknown option: " + args[i]).c_str());
    } else {
      dirs.push_back(args[i]);
    }
  }
  if (dirs.empty() && trace_json.empty()) {
    return usage_error("perf needs at least one DIR or --trace-json FILE");
  }

  // Filename-sorted scan per directory: deterministic table order.
  std::vector<std::string> files;
  for (const std::string& dir : dirs) {
    std::error_code ec;
    std::vector<std::string> found;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 10 &&
          name.compare(name.size() - 10, 10, ".perf.json") == 0) {
        found.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "emptcp-report: cannot scan %s: %s\n",
                   dir.c_str(), ec.message().c_str());
      return 2;
    }
    std::sort(found.begin(), found.end());
    files.insert(files.end(), found.begin(), found.end());
  }
  if (files.empty() && !dirs.empty()) {
    std::fprintf(stderr, "emptcp-report: no *.perf.json found\n");
    return 2;
  }

  std::vector<analysis::PerfDoc> docs;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "emptcp-report: cannot read %s\n", path.c_str());
      return 2;
    }
    std::string err;
    const auto flat = analysis::parse_json_flat(text, &err);
    if (!flat) {
      std::fprintf(stderr, "emptcp-report: %s: %s\n", path.c_str(),
                   err.c_str());
      return 2;
    }
    analysis::PerfDoc doc;
    if (!analysis::perf_doc_from_flat(*flat, doc, &err)) {
      std::fprintf(stderr, "emptcp-report: %s: %s\n", path.c_str(),
                   err.c_str());
      return 2;
    }
    docs.push_back(std::move(doc));
  }
  if (!docs.empty()) {
    const std::string rendered = analysis::render_perf_report(docs);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  }

  if (!trace_json.empty()) {
    std::string text;
    if (!read_file(trace_json, text)) {
      std::fprintf(stderr, "emptcp-report: cannot read %s\n",
                   trace_json.c_str());
      return 2;
    }
    std::size_t events = 0;
    std::string err;
    if (!analysis::validate_chrome_trace(text, events, err)) {
      std::fprintf(stderr, "emptcp-report: %s: %s\n", trace_json.c_str(),
                   err.c_str());
      return 1;
    }
    std::fprintf(stdout, "chrome trace OK: %s (%zu events)\n",
                 trace_json.c_str(), events);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage_error(nullptr);
  for (const std::string& a : args) {
    if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
  }
  if (args[0] == "--diff") {
    return run_diff({args.begin() + 1, args.end()});
  }
  if (args[0] == "perf") {
    return run_perf({args.begin() + 1, args.end()});
  }
  return run_report(args);
}
