// Run manifests: the machine-readable record of *how* a run was produced.
//
// Every traced bench/scenario run writes a `<name>.manifest.json` next to
// its JSONL trace: the grouping key, protocol, seed, workload, scenario
// parameters, build flags and a digest of the serialized trace. A
// manifest plus its trace is a self-describing, integrity-checkable
// artifact — `emptcp-report` consumes directories of them and can tell a
// stale trace from a matching one by digest alone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/json.hpp"
#include "stats/digest.hpp"
#include "trace/event.hpp"
#include "trace/sink.hpp"

namespace emptcp::app {
struct ScenarioConfig;
}  // namespace emptcp::app

namespace emptcp::analysis {

inline constexpr const char* kManifestSchema = "emptcp-run-manifest-v1";

struct RunManifest {
  std::string group;     ///< aggregation key, e.g. "fig08" or "fig10-n2"
  std::string protocol;  ///< app::to_string(Protocol)
  std::uint64_t seed = 0;
  std::string workload;  ///< free-form, e.g. "download-268435456B"
  std::string trace_file;  ///< JSONL file name, relative to the manifest
  std::uint64_t trace_events = 0;
  std::string trace_digest;  ///< "fnv1a64:<16 hex digits>" of the JSONL text
  /// Scenario/build parameters as (dotted key, JSON literal) pairs, in
  /// emission order. Values are raw JSON scalars ("12.5", "true",
  /// "\"LTE\"") so the writer is trivially deterministic.
  std::vector<std::pair<std::string, std::string>> params;
};

/// FNV-1a 64-bit digests. They live in stats/ so the trace writer can
/// digest as it writes; the artifact readers name them here.
using stats::fnv1a64;
using stats::fnv1a64_hex;
using stats::Fnv1a64Stream;

/// The scenario parameters worth recording: path rates/RTTs/losses,
/// dynamics, device, protocol knobs. Keys are dotted ("wifi.down_mbps").
std::vector<std::pair<std::string, std::string>> describe_scenario(
    const app::ScenarioConfig& cfg);

/// Build-flag parameters (NDEBUG, compiler id).
std::vector<std::pair<std::string, std::string>> describe_build();

/// Deterministic JSON rendering (field order fixed, shortest-roundtrip
/// numbers).
std::string manifest_to_json(const RunManifest& m);

/// Reconstructs a manifest from a parsed JSON document. Returns false if
/// the schema marker is missing/unknown.
bool manifest_from_json(const FlatJson& doc, RunManifest& out);

/// Writes one run's artifact pair into `dir`: the trace as `<base>.jsonl`,
/// streamed through stats::write_trace_jsonl (no whole-trace string), then
/// `<base>.manifest.json`, once `manifest` has the trace file, event count
/// and digest of that write and the build parameters after its own.
/// Returns the path that could not be written, or "" once both are.
std::string write_run_artifacts(
    const std::string& dir, const std::string& base,
    const std::vector<trace::Event>& events,
    const std::vector<trace::MetricSnapshot>& metrics, RunManifest& manifest);

}  // namespace emptcp::analysis
