// Artifact loading shared by emptcp-report and emptcp-campaign.
//
// Streams JSONL traces through RollupBuilder chunk-by-chunk: each 1 MB
// chunk is digested, then folded line by line in place (O(chunk + one
// line) memory regardless of trace size). Scans artifact directories for
// `*.manifest.json`, producing the AnalyzedRun vector render_report
// consumes. Scan order is sorted for determinism. Manifests go through
// parse_json_flat; trace lines never do.
#pragma once

#include <string>
#include <vector>

#include "analysis/report.hpp"

namespace emptcp::analysis {

/// Streams one JSONL trace file through `builder`, computing the FNV-1a
/// digest of the raw bytes on the way. False on IO/parse errors (`err`
/// explains, including the offending line number).
bool stream_trace_file(const std::string& path, RollupBuilder& builder,
                       std::string& digest_hex, std::string& err);

/// Loads every `*.manifest.json` under `dirs` (non-recursive) plus the
/// trace next to each manifest into AnalyzedRuns, sorted by manifest path.
/// False on the first unreadable/unparsable artifact; `err` names the file
/// and the reason. An empty result is not an error.
bool load_analyzed_runs(const std::vector<std::string>& dirs,
                        std::vector<AnalyzedRun>& out, std::string& err);

}  // namespace emptcp::analysis
