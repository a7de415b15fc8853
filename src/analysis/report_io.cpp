#include "analysis/report_io.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "stats/digest.hpp"

namespace emptcp::analysis {
namespace {

namespace fs = std::filesystem;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

bool stream_trace_file(const std::string& path, RollupBuilder& builder,
                       std::string& digest_hex, std::string& err) {
  std::string fold_err;
  if (!stats::digest_file(path, digest_hex, [&](std::string_view chunk) {
        return builder.feed(chunk, fold_err);
      })) {
    err = fold_err.empty() ? "cannot read" : fold_err;
    return false;
  }
  return builder.close(err);
}

bool load_analyzed_runs(const std::vector<std::string>& dirs,
                        std::vector<AnalyzedRun>& out, std::string& err) {
  std::vector<std::string> manifest_paths;
  for (const std::string& dir : dirs) {
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
      err = "cannot read " + dir + ": " + ec.message();
      return false;
    }
    for (const fs::directory_entry& e : it) {
      const std::string name = e.path().filename().string();
      if (name.size() > 14 &&
          name.compare(name.size() - 14, 14, ".manifest.json") == 0) {
        manifest_paths.push_back(e.path().string());
      }
    }
  }
  // Directory iteration order is unspecified; sort for determinism.
  std::sort(manifest_paths.begin(), manifest_paths.end());

  for (const std::string& path : manifest_paths) {
    std::string text;
    if (!read_file(path, text)) {
      err = "cannot read " + path;
      return false;
    }
    std::string perr;
    const auto doc = parse_json_flat(text, &perr);
    if (!doc) {
      err = path + ": " + perr;
      return false;
    }
    RunManifest manifest;
    if (!manifest_from_json(*doc, manifest)) {
      err = path + ": not a run manifest";
      return false;
    }
    const std::string trace_path =
        (fs::path(path).parent_path() / manifest.trace_file).string();
    RollupBuilder builder(manifest);
    std::string digest_hex;
    if (!stream_trace_file(trace_path, builder, digest_hex, perr)) {
      err = trace_path + ": " + perr;
      return false;
    }
    AnalyzedRun run;
    run.rollup = builder.finish();
    run.power_windows = builder.power().windows();
    run.digest_ok = digest_hex == manifest.trace_digest;
    run.source = path;
    out.push_back(std::move(run));
  }
  return true;
}

}  // namespace emptcp::analysis
