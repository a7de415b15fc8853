// Report rendering and baseline diffing for `emptcp-report`.
//
// Two consumers share this layer: the CLI tool (tools/emptcp_report.cpp)
// and the golden-output tests, both over the AnalyzedRuns that
// load_analyzed_runs (report_io.hpp) streams from the artifacts.
// Everything rendered here is deterministic by construction — runs are
// sorted by (group, protocol, seed), numbers go through stats::fmt_double
// / Table::num, and no wall-clock or locale state is consulted — so a
// report over the same artifacts is byte-identical across runs, machines
// and EMPTCP_JOBS settings.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/json.hpp"
#include "analysis/manifest.hpp"
#include "analysis/rollup.hpp"

namespace emptcp::analysis {

/// One run reduced to its report inputs. load_analyzed_runs builds it
/// while streaming the trace through RollupBuilder, so report memory is
/// independent of trace size.
struct AnalyzedRun {
  RunRollup rollup;
  /// 10 s mean-power windows over the run's energy_sample stream.
  std::vector<WindowedAggregator::Window> power_windows;
  bool digest_ok = true;
  std::string source;
};

/// Renders the full paper-style report: per-run rollups, per-group
/// mean±SEM aggregates, an energy-per-bit table (Tab. 2 style),
/// histogram-backed quantiles and CDFs, and a digest-integrity section.
std::string render_report(std::vector<AnalyzedRun> runs);

// ---------------------------------------------------------------------------
// Baseline diffing (the CI gate).

struct ToleranceRule {
  /// Glob over the flattened metric path: '*' matches any run of
  /// characters, anything else is literal. First matching rule wins.
  std::string pattern;
  enum class Mode {
    kIgnore,     ///< never a violation (counts, wall-clock totals)
    kExact,      ///< values/strings must match exactly (schema markers)
    kMaxAbs,     ///< lower-is-better: fail if current > baseline + tol
    kMaxFactor,  ///< lower-is-better: fail if current > baseline * tol
    kMinFactor,  ///< higher-is-better: fail if current < baseline / tol
    kFloor,      ///< absolute requirement: fail if current < tol,
                 ///< regardless of the baseline value
    kNear,       ///< symmetric band: fail if |current - baseline| >
                 ///< tol * |baseline| + tol_abs (the fidelity contract)
  };
  Mode mode = Mode::kIgnore;
  double tol = 0.0;
  double tol_abs = 0.0;  ///< kNear only: absolute term of the band
};

/// The default rules for BENCH_core.json-shaped baselines: allocation
/// counts are exact-ish (abs 0.01), throughput/latency rates get a
/// generous 5x factor (CI machines vary), raw counts and wall-clock
/// seconds are ignored.
std::vector<ToleranceRule> default_bench_tolerances();

/// Parses "pattern=mode:value" (mode in ignore|exact|abs|factor|min|floor|
/// near; near takes "near:REL,ABS") into a rule; returns false on
/// malformed input.
bool parse_tolerance(std::string_view spec, ToleranceRule& out);

/// '*'-glob used by rule matching; exposed for tests.
bool glob_match(std::string_view pattern, std::string_view text);

struct DiffResult {
  struct Row {
    std::string key;
    std::string baseline;  ///< rendered value ("-" when absent)
    std::string current;
    std::string verdict;   ///< "ok" | "ignored" | "new" | "FAIL ..." | ...
    bool violation = false;
  };
  std::vector<Row> rows;
  int violations = 0;

  [[nodiscard]] std::string render() const;
};

/// Compares two flattened JSON documents under the rule list. Keys present
/// in the baseline but missing from the current document violate unless
/// their rule is kIgnore; keys only in the current document are reported
/// as "new" but never violate.
DiffResult diff_metrics(const FlatJson& baseline, const FlatJson& current,
                        const std::vector<ToleranceRule>& rules);

/// Serializes the runs' rollups as one flat JSON document suitable for
/// diff_metrics / `emptcp-report --diff`: per-run headline fields plus one
/// `<run>.flow<N>.{bytes,fct_s,energy_j}` triple per completed flow. Runs
/// are keyed `<group>-<protocol>-<workload>-s<seed>` ('/' in the workload
/// sanitized to '-') and sorted, so two campaigns over the same spec
/// produce positionally comparable documents and tolerance globs can
/// target a workload slice (e.g. `*-c4-*`). This is what the
/// hybrid-fidelity gate diffs between packet and hybrid runs.
std::string rollup_flat_json(const std::vector<AnalyzedRun>& runs);

}  // namespace emptcp::analysis
