#include "analysis/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/manifest.hpp"
#include "analysis/rollup.hpp"
#include "analysis/trace_line.hpp"
#include "stats/csv.hpp"

namespace emptcp::analysis {
namespace {

// A tiny hand-written trace exercising every rollup path: scheduler picks
// on two interfaces, a suspend/resume pair, energy samples, a warning and
// the run.* gauge snapshot.
constexpr const char* kTraceJsonl =
    R"({"t_ns":1000000,"kind":"sched_pick","subflow":1,"iface":"wifi","data_seq":0,"len":1400}
{"t_ns":2000000,"kind":"sched_pick","subflow":2,"iface":"cell","data_seq":1400,"len":600}
{"t_ns":3000000,"kind":"sched_pick","subflow":1,"iface":"wifi","data_seq":2000,"len":600}
{"t_ns":4000000,"kind":"mp_prio","subflow":2,"iface":"cell","backup":true,"origin":"sender"}
{"t_ns":5000000,"kind":"mp_prio","subflow":2,"iface":"cell","backup":false,"origin":"sender"}
{"t_ns":6000000,"kind":"mode_change","from":"all-paths","to":"wifi-only","wifi_mbps":20,"cell_mbps":5}
{"t_ns":7000000,"kind":"radio_state","iface":"cell","state":"IDLE"}
{"t_ns":1000000000,"kind":"energy_sample","iface":"wifi","mbps":10,"power_mw":500}
{"t_ns":2000000000,"kind":"energy_sample","iface":"wifi","mbps":12,"power_mw":700}
{"t_ns":8000000,"kind":"warning","what":"test","v0":1,"v1":2}
{"metric":"run.completed","value":1}
{"metric":"run.download_time_s","value":2}
{"metric":"run.energy_j","value":1.25}
{"metric":"run.wifi_j","value":1}
{"metric":"run.cell_j","value":0.25}
{"metric":"run.bytes_received","value":2600}
{"metric":"tcp.retransmits","value":3}
)";

RunManifest test_manifest(const std::string& group, const std::string& proto,
                          std::uint64_t seed) {
  RunManifest m;
  m.group = group;
  m.protocol = proto;
  m.seed = seed;
  m.workload = "unit-test";
  m.trace_digest = fnv1a64_hex(kTraceJsonl);
  return m;
}

/// Folds `text` in `chunk`-byte pieces (0: whole) through the line fold
/// stream_trace_file runs.
bool fold(RollupBuilder& b, std::string_view text, std::string& err,
          std::size_t chunk = 0) {
  const std::size_t step = chunk == 0 ? std::max<std::size_t>(text.size(), 1)
                                      : chunk;
  for (std::size_t i = 0; i < text.size(); i += step) {
    if (!b.feed(text.substr(i, step), err)) return false;
  }
  return b.close(err);
}

RunRollup rollup_text(std::string_view text) {
  RollupBuilder b(test_manifest("g", "emptcp", 1));
  std::string err;
  EXPECT_TRUE(fold(b, text, err)) << err;
  return b.finish();
}

/// The error folding `text` fails with ("" if it folds cleanly).
std::string fold_error(std::string_view text) {
  RollupBuilder b(test_manifest("g", "emptcp", 1));
  std::string err;
  return fold(b, text, err) ? std::string() : err;
}

AnalyzedRun analyzed(const RunManifest& m, bool digest_ok,
                     const std::string& source) {
  RollupBuilder b(m);
  std::string err;
  EXPECT_TRUE(fold(b, kTraceJsonl, err)) << err;
  AnalyzedRun run;
  run.rollup = b.finish();
  run.power_windows = b.power().windows();
  run.digest_ok = digest_ok;
  run.source = source;
  return run;
}

TEST(RollupTest, ParseTraceSeparatesEventsFromMetrics) {
  // 10 event lines and 7 metric lines: metric lines resolve the run.*
  // gauges and never count as events.
  const RunRollup r = rollup_text(kTraceJsonl);
  EXPECT_EQ(r.events, 10u);
  EXPECT_DOUBLE_EQ(r.energy_j, 1.25);
  EXPECT_EQ(r.rtos, 0u);  // absent metric
}

TEST(RollupTest, MalformedLineReportsLineNumber) {
  const std::string err = fold_error("{\"t_ns\":1}\n{broken\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(RollupTest, MalformedLinesFailWithTheirLineNumber) {
  const std::string ok =
      R"({"t_ns":1,"kind":"cwnd","flow":1,"cwnd":2,"ssthresh":3})"
      "\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"nested object", R"({"t_ns":2,"kind":"warning","what":{"a":1}})"},
      {"nested array", R"({"t_ns":2,"kind":"warning","v0":[1,2]})"},
      {"trailing characters", R"({"t_ns":2,"kind":"srtt"} x)"},
      {"unterminated string", R"({"t_ns":2,"kind":"srtt)"},
      {"bad number in data_seq",
       R"({"t_ns":2,"kind":"sched_pick","subflow":1,"iface":"wifi",)"
       R"("data_seq":1.2.3,"len":1400})"},
      {"bad number in cwnd",
       R"({"t_ns":2,"kind":"cwnd","flow":1,"cwnd":-,"ssthresh":3})"},
      {"leading zero", R"({"t_ns":02,"kind":"srtt"})"},
      {"not an object", R"([1,2])"},
  };
  for (const auto& [what, line] : cases) {
    const std::string err = fold_error(ok + ok + line + "\n" + ok);
    EXPECT_EQ(err.rfind("line 3: ", 0), 0u) << what << ": " << err;
  }
  // A final line cut mid-object, without its newline.
  const std::string err = fold_error(ok + ok + R"({"t_ns":2,"ki)");
  EXPECT_EQ(err.rfind("line 3: ", 0), 0u) << err;
}

TEST(RollupTest, EscapedStringsKeyTheirDecodedBytes) {
  const RunRollup r = rollup_text(
      R"({"t_ns":1,"kind":"sched_pick","subflow":1,"iface":"w\"ifi",)"
      R"("data_seq":0,"len":100})"
      "\n"
      R"({"t_ns":2,"kind":"sched_pick","subflow":1,"iface":"w\u0022ifi",)"
      R"("data_seq":0,"len":50})"
      "\n");
  using Slot = std::pair<std::string, std::uint64_t>;
  EXPECT_EQ(r.sched_bytes_by_iface, std::vector<Slot>{Slot("w\"ifi", 150)});
}

TEST(RollupTest, DuplicateKeysBoolsAndNonStringMetricsKeepTheirMeaning) {
  const RunRollup r = rollup_text(
      // Duplicate key: the first value wins.
      R"({"t_ns":1,"kind":"sched_pick","iface":"wifi","len":100,"len":7})"
      "\n"
      // Bools widen to 1/0.
      R"({"t_ns":2,"kind":"mp_prio","backup":true})"
      "\n"
      R"({"t_ns":3,"kind":"mp_prio","backup":false})"
      "\n"
      // A non-string "metric" makes the line an event, not a metric.
      R"({"metric":1,"value":5,"kind":"warning"})"
      "\n"
      R"({"metric":"run.bytes_received","value":2600})"
      "\n"
      R"({"metric":"run.bytes_received","value":1})"
      "\n");
  using Slot = std::pair<std::string, std::uint64_t>;
  EXPECT_EQ(r.sched_bytes_by_iface, std::vector<Slot>{Slot("wifi", 100)});
  EXPECT_EQ(r.suspends, 1u);
  EXPECT_EQ(r.resumes, 1u);
  EXPECT_EQ(r.warnings, 1u);
  EXPECT_EQ(r.events, 4u);
  EXPECT_EQ(r.bytes, 2600u);  // first metric line of a name wins
}

TEST(TraceLineTest, ReadsBackEveryNumberTheWriterEmits) {
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           -1.0 / 3.0,
                           1e300,
                           5e-324,
                           DBL_MAX,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  TraceLine line;
  std::string err;
  for (const double v : values) {
    const std::string text = "{\"v\":" + stats::fmt_double(v) + "}";
    ASSERT_TRUE(line.scan(text, err)) << text << ": " << err;
    EXPECT_EQ(line.num("v", 7.0), v) << text;
    EXPECT_EQ(std::signbit(line.num("v", 7.0)), std::signbit(v)) << text;
  }
  for (const char* nan : {"nan", "-nan"}) {
    const std::string text = std::string("{\"v\":") + nan + "}";
    ASSERT_TRUE(line.scan(text, err)) << err;
    EXPECT_TRUE(std::isnan(line.num("v", 0.0))) << nan;
  }
  // Out-of-range tokens read as a JSON reader reads them.
  ASSERT_TRUE(line.scan(R"({"big":1e999,"tiny":-1e-999,"s":"x","n":null})",
                        err))
      << err;
  EXPECT_EQ(line.num("big", 0.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(line.num("tiny", 1.0), 0.0);
  EXPECT_EQ(line.num("s", 7.0), 7.0);  // strings and null fall back
  EXPECT_EQ(line.num("n", 7.0), 7.0);
  EXPECT_EQ(line.str("s"), "x");
  EXPECT_EQ(line.str("n"), "");
  // Spellings outside the grammar and the writer's words fail.
  for (const char* bad : {"+1", ".5", "1.", "1e", "0x10", "Infinity", "NaN",
                          "tru", "--1"}) {
    EXPECT_FALSE(line.scan(std::string("{\"v\":") + bad + "}", err)) << bad;
  }
}

TEST(RollupTest, RollupComputesPaperMetrics) {
  const RunRollup r = rollup_text(kTraceJsonl);
  EXPECT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.time_s, 2.0);
  EXPECT_DOUBLE_EQ(r.energy_j, 1.25);
  EXPECT_EQ(r.bytes, 2600u);
  EXPECT_EQ(r.sched_picks, 3u);
  EXPECT_EQ(r.suspends, 1u);
  EXPECT_EQ(r.resumes, 1u);
  EXPECT_EQ(r.mode_changes, 1u);
  EXPECT_EQ(r.radio_transitions, 1u);
  EXPECT_EQ(r.warnings, 1u);
  EXPECT_EQ(r.events, 10u);
  EXPECT_EQ(r.retransmits, 3u);
  // wifi got 2000 of 2600 scheduled bytes.
  EXPECT_DOUBLE_EQ(r.iface_share("wifi"), 2000.0 / 2600.0);
  EXPECT_DOUBLE_EQ(r.iface_share("cell"), 600.0 / 2600.0);
  // Energy per bit: 1.25 J over 2600*8 bits -> µJ/bit.
  EXPECT_DOUBLE_EQ(r.energy_per_bit_uj(), 1.25e6 / (2600.0 * 8.0));
  // Integration: wifi sample at t=1s integrates from 0 (500 mW * 1 s) plus
  // the 700 mW window ending at t=2s.
  EXPECT_DOUBLE_EQ(r.integrated_energy_j, 0.5 + 0.7);
}

TEST(RollupTest, ChunkedFoldMatchesWholeTextFold) {
  // Folding the trace in awkward 7-byte chunks (lines split everywhere)
  // must agree exactly with folding it whole.
  const RunManifest m = test_manifest("g", "emptcp", 1);
  RollupBuilder whole(m);
  RollupBuilder chunked(m);
  std::string err;
  ASSERT_TRUE(fold(whole, kTraceJsonl, err)) << err;
  ASSERT_TRUE(fold(chunked, kTraceJsonl, err, 7)) << err;
  const RunRollup a = whole.finish();
  const RunRollup b = chunked.finish();
  EXPECT_EQ(b.events, a.events);
  EXPECT_EQ(b.sched_picks, a.sched_picks);
  EXPECT_EQ(b.sched_bytes_by_iface, a.sched_bytes_by_iface);
  EXPECT_EQ(b.suspends, a.suspends);
  EXPECT_EQ(b.resumes, a.resumes);
  EXPECT_EQ(b.mode_changes, a.mode_changes);
  EXPECT_EQ(b.radio_transitions, a.radio_transitions);
  EXPECT_EQ(b.warnings, a.warnings);
  EXPECT_EQ(b.completed, a.completed);
  EXPECT_DOUBLE_EQ(b.time_s, a.time_s);
  EXPECT_DOUBLE_EQ(b.energy_j, a.energy_j);
  EXPECT_DOUBLE_EQ(b.integrated_energy_j, a.integrated_energy_j);
  EXPECT_EQ(b.bytes, a.bytes);
  EXPECT_EQ(b.retransmits, a.retransmits);
  // The single pass also produced the power-timeline windows.
  ASSERT_GT(whole.power().count(), 0u);
  EXPECT_EQ(chunked.power().count(), whole.power().count());
}

TEST(ManifestStreamTest, ChunkedDigestMatchesWholeString) {
  const std::string text(kTraceJsonl);
  Fnv1a64Stream s;
  // Deliberately awkward chunking: 7-byte pieces.
  for (std::size_t i = 0; i < text.size(); i += 7) {
    s.update(std::string_view(text).substr(i, 7));
  }
  EXPECT_EQ(s.value(), fnv1a64(text));
  EXPECT_EQ(s.hex(), fnv1a64_hex(text));
}

TEST(ReportTest, RenderIsDeterministicAndOrderIndependent) {
  const AnalyzedRun a = analyzed(test_manifest("g", "emptcp", 1), true, "a");
  const AnalyzedRun b = analyzed(test_manifest("g", "emptcp", 2), true, "b");
  const AnalyzedRun c = analyzed(test_manifest("g", "mptcp", 1), true, "c");
  const std::string fwd = render_report({a, b, c});
  const std::string rev = render_report({c, b, a});
  EXPECT_EQ(fwd, rev);
  EXPECT_NE(fwd.find("== runs =="), std::string::npos);
  EXPECT_NE(fwd.find("== energy per bit =="), std::string::npos);
  EXPECT_NE(fwd.find("== quantiles"), std::string::npos);
  EXPECT_NE(fwd.find("== integrity =="), std::string::npos);
}

TEST(ReportTest, DigestMismatchSurfacesInIntegritySection) {
  const std::string report = render_report(
      {analyzed(test_manifest("g", "emptcp", 1), false, "stale.json")});
  EXPECT_NE(report.find("DIGEST MISMATCH"), std::string::npos);
  EXPECT_NE(report.find("stale.json"), std::string::npos);
}

TEST(ReportTest, FlowsTableShowsFctMeanAndSemOverCompletedFlows) {
  // Two seeds of one group: three completed flows (1, 2 and 3 s) and one
  // that never completed. fct_mean/fct_sem are over the completed three:
  // 2.000 +/- 1/sqrt(3).
  AnalyzedRun a;
  a.rollup.group = "g";
  a.rollup.protocol = "eMPTCP";
  a.rollup.seed = 1;
  a.rollup.flows_started = 3;
  a.rollup.flows_completed = 2;
  a.rollup.flows = {{0, 1000.0, 1.0, 0.5}, {1, 1000.0, 3.0, 0.5}};
  AnalyzedRun b = a;
  b.rollup.seed = 2;
  b.rollup.flows_started = 1;
  b.rollup.flows_completed = 1;
  b.rollup.flows = {{0, 1000.0, 2.0, 0.5}};

  const std::string report = render_report({a, b});
  const std::size_t flows = report.find("== flows");
  ASSERT_NE(flows, std::string::npos);
  const std::size_t header = report.find("| fct_mean | fct_sem |", flows);
  ASSERT_NE(header, std::string::npos);
  const std::size_t row = report.find("| g ", header);
  ASSERT_NE(row, std::string::npos);
  const std::string line = report.substr(row, report.find('\n', row) - row);
  EXPECT_NE(line.find("| 4       | 3    | 2.000    | 0.577   |"),
            std::string::npos)
      << line;
}

TEST(DiffTest, GlobMatchSemantics) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("scheduler.*", "scheduler.ns_per_op"));
  EXPECT_FALSE(glob_match("scheduler.*", "packet.ns_per_op"));
  EXPECT_TRUE(glob_match("*alloc*", "end_to_end.allocs_per_op"));
  EXPECT_TRUE(glob_match("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(glob_match("a*b*c", "a-x-b-y"));
  EXPECT_TRUE(glob_match("exact", "exact"));
  EXPECT_FALSE(glob_match("exact", "exact-no"));
  EXPECT_TRUE(glob_match("", ""));
}

TEST(DiffTest, ParseToleranceSpecs) {
  ToleranceRule r;
  ASSERT_TRUE(parse_tolerance("*alloc*=abs:0.5", r));
  EXPECT_EQ(r.pattern, "*alloc*");
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kMaxAbs);
  EXPECT_DOUBLE_EQ(r.tol, 0.5);
  ASSERT_TRUE(parse_tolerance("x=factor:2", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kMaxFactor);
  ASSERT_TRUE(parse_tolerance("x=min:1.5", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kMinFactor);
  ASSERT_TRUE(parse_tolerance("x=ignore", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kIgnore);
  ASSERT_TRUE(parse_tolerance("x=exact", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kExact);
  EXPECT_FALSE(parse_tolerance("missing-equals", r));
  EXPECT_FALSE(parse_tolerance("x=unknown:1", r));
  EXPECT_FALSE(parse_tolerance("x=factor:0.5", r));  // factor < 1 is nonsense
  EXPECT_FALSE(parse_tolerance("x=abs:-1", r));
}

FlatJson doc(const char* json) {
  auto d = parse_json_flat(json);
  EXPECT_TRUE(d.has_value());
  return d.value_or(FlatJson{});
}

TEST(DiffTest, InjectedRegressionViolates) {
  const FlatJson base = doc(R"({"scheduler":{"ns_per_op":100},"schema":"v1"})");
  const FlatJson good = doc(R"({"scheduler":{"ns_per_op":120},"schema":"v1"})");
  const FlatJson bad = doc(R"({"scheduler":{"ns_per_op":900},"schema":"v1"})");
  const std::vector<ToleranceRule> rules{
      {"schema", ToleranceRule::Mode::kExact, 0.0},
      {"*ns_per*", ToleranceRule::Mode::kMaxFactor, 5.0},
      {"*", ToleranceRule::Mode::kIgnore, 0.0},
  };
  EXPECT_EQ(diff_metrics(base, good, rules).violations, 0);
  const DiffResult r = diff_metrics(base, bad, rules);
  EXPECT_EQ(r.violations, 1);
  EXPECT_NE(r.render().find("FAIL"), std::string::npos);
  EXPECT_NE(r.render().find("1 violation"), std::string::npos);
}

TEST(DiffTest, ExactRuleCatchesSchemaDrift) {
  const FlatJson base = doc(R"({"schema":"v1"})");
  const FlatJson cur = doc(R"({"schema":"v2"})");
  const std::vector<ToleranceRule> rules{
      {"schema", ToleranceRule::Mode::kExact, 0.0}};
  EXPECT_EQ(diff_metrics(base, cur, rules).violations, 1);
  EXPECT_EQ(diff_metrics(base, base, rules).violations, 0);
}

TEST(DiffTest, MissingAndNewKeys) {
  const FlatJson base = doc(R"({"a":1,"b":2})");
  const FlatJson cur = doc(R"({"a":1,"c":3})");
  const std::vector<ToleranceRule> rules{
      {"*", ToleranceRule::Mode::kMaxAbs, 10.0}};
  const DiffResult r = diff_metrics(base, cur, rules);
  // "b" vanished (violation under a non-ignore rule); "c" is new (not one).
  EXPECT_EQ(r.violations, 1);
  bool saw_new = false;
  for (const auto& row : r.rows) {
    if (row.key == "c") {
      saw_new = true;
      EXPECT_EQ(row.verdict, "new");
      EXPECT_FALSE(row.violation);
    }
  }
  EXPECT_TRUE(saw_new);
  // Under an all-ignore ruleset the vanished key is fine too.
  const std::vector<ToleranceRule> ignore{
      {"*", ToleranceRule::Mode::kIgnore, 0.0}};
  EXPECT_EQ(diff_metrics(base, cur, ignore).violations, 0);
}

TEST(DiffTest, MinFactorGuardsThroughputDrops) {
  const FlatJson base = doc(R"({"events_per_sec":1000000})");
  const FlatJson slow = doc(R"({"events_per_sec":100000})");
  const std::vector<ToleranceRule> rules{
      {"*per_sec*", ToleranceRule::Mode::kMinFactor, 5.0}};
  EXPECT_EQ(diff_metrics(base, slow, rules).violations, 1);
  const FlatJson ok = doc(R"({"events_per_sec":500000})");
  EXPECT_EQ(diff_metrics(base, ok, rules).violations, 0);
}

TEST(DiffTest, FloorIsAbsoluteRegardlessOfBaseline) {
  ToleranceRule r;
  ASSERT_TRUE(parse_tolerance("*hybrid*.speedup_vs_packet=floor:2", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kFloor);
  EXPECT_DOUBLE_EQ(r.tol, 2.0);

  // The floor binds against the configured value, not the baseline: a
  // baseline that itself regressed below the floor must not grandfather
  // the current run in.
  const FlatJson base = doc(R"({"speedup_vs_packet":1.2})");
  const FlatJson below = doc(R"({"speedup_vs_packet":1.9})");
  const FlatJson above = doc(R"({"speedup_vs_packet":2.1})");
  const std::vector<ToleranceRule> rules{
      {"*", ToleranceRule::Mode::kFloor, 2.0}};
  EXPECT_EQ(diff_metrics(base, below, rules).violations, 1);
  EXPECT_EQ(diff_metrics(base, above, rules).violations, 0);
}

TEST(DiffTest, NearBandCombinesRelativeAndAbsoluteTerms) {
  ToleranceRule r;
  ASSERT_TRUE(parse_tolerance("*.fct_s=near:0.25,0.25", r));
  EXPECT_EQ(r.mode, ToleranceRule::Mode::kNear);
  EXPECT_DOUBLE_EQ(r.tol, 0.25);
  EXPECT_DOUBLE_EQ(r.tol_abs, 0.25);
  // Both terms are mandatory and non-negative ("near:REL,ABS").
  EXPECT_FALSE(parse_tolerance("x=near:0.1", r));
  EXPECT_FALSE(parse_tolerance("x=near:-0.1,0.1", r));
  EXPECT_FALSE(parse_tolerance("x=near:0.1,-0.1", r));

  // Band: |current - baseline| <= rel*|baseline| + abs. For baseline 10,
  // rel 0.25, abs 0.25 the band is ±2.75 — symmetric, unlike abs/factor.
  const FlatJson base = doc(R"({"fct_s":10})");
  const std::vector<ToleranceRule> rules{
      {"*", ToleranceRule::Mode::kNear, 0.25, 0.25}};
  EXPECT_EQ(diff_metrics(base, doc(R"({"fct_s":12.7})"), rules).violations, 0);
  EXPECT_EQ(diff_metrics(base, doc(R"({"fct_s":7.3})"), rules).violations, 0);
  EXPECT_EQ(diff_metrics(base, doc(R"({"fct_s":12.8})"), rules).violations, 1);
  EXPECT_EQ(diff_metrics(base, doc(R"({"fct_s":7.2})"), rules).violations, 1);
  // A zero baseline still admits the absolute term (FCTs of 0 never
  // happen, but energies on an unused interface do).
  const FlatJson zero = doc(R"({"fct_s":0})");
  EXPECT_EQ(diff_metrics(zero, doc(R"({"fct_s":0.2})"), rules).violations, 0);
  EXPECT_EQ(diff_metrics(zero, doc(R"({"fct_s":0.3})"), rules).violations, 1);
}

TEST(ReportTest, RollupFlatJsonKeysAndFlows) {
  // Two runs, deliberately given out of sorted order, with '/' in the
  // workload and out-of-order flow completions.
  AnalyzedRun b;
  b.rollup.group = "hybrid_smoke";
  b.rollup.protocol = "mptcp";
  b.rollup.workload = "fleet/closed/c4";
  b.rollup.seed = 2;
  b.rollup.completed = true;
  b.rollup.time_s = 3.5;
  b.rollup.energy_j = 7.25;
  b.rollup.bytes = 8000;
  b.rollup.flows_started = 2;
  b.rollup.flows_completed = 2;
  b.rollup.flows = {{7, 4000.0, 1.5, 3.0}, {3, 4000.0, 2.0, 4.25}};
  AnalyzedRun a;
  a.rollup.group = "hybrid_smoke";
  a.rollup.protocol = "emptcp";
  a.rollup.workload = "fleet/closed/c1";
  a.rollup.seed = 1;
  a.rollup.completed = true;

  const std::string json = rollup_flat_json({b, a});
  const FlatJson flat = doc(json.c_str());

  // Keys carry group-protocol-workload-seed, '/' sanitized to '-', so
  // fleet sizes don't collide and globs can target a workload slice.
  EXPECT_NE(json.find("\"emptcp-rollup-flat-v1\""), std::string::npos);
  const std::string kb = "hybrid_smoke-mptcp-fleet-closed-c4-s2";
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".time_s", -1.0), 3.5);
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".bytes", -1.0), 8000.0);
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".flows_completed", -1.0), 2.0);
  // Flow triples are keyed by flow id and emitted in ascending id order,
  // not completion order — the two fidelities complete flows in different
  // orders, and the gate must compare a flow with itself.
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".flow3.fct_s", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".flow3.energy_j", -1.0), 4.25);
  EXPECT_DOUBLE_EQ(json_num(flat, kb + ".flow7.fct_s", -1.0), 1.5);
  EXPECT_LT(json.find(kb + ".flow3."), json.find(kb + ".flow7."));
  // Runs are sorted: the emptcp/c1 run serializes first.
  EXPECT_LT(json.find("hybrid_smoke-emptcp-fleet-closed-c1-s1"),
            json.find(kb));
  // The sorted flat documents diff cleanly against themselves.
  const std::vector<ToleranceRule> rules{
      {"*", ToleranceRule::Mode::kExact, 0.0}};
  EXPECT_EQ(diff_metrics(flat, flat, rules).violations, 0);
}

TEST(DiffTest, DefaultBenchTolerancesEndInCatchAll) {
  const std::vector<ToleranceRule> rules = default_bench_tolerances();
  ASSERT_FALSE(rules.empty());
  EXPECT_EQ(rules.back().pattern, "*");
  EXPECT_EQ(rules.back().mode, ToleranceRule::Mode::kIgnore);
  // The canonical BENCH_core.json keys all find a rule.
  for (const char* key :
       {"schema", "scheduler.ns_per_op", "end_to_end.allocs_per_op",
        "self_profile.e2e_events_per_sec", "packet_path.wall_seconds"}) {
    bool matched = false;
    for (const auto& r : rules) {
      if (glob_match(r.pattern, key)) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << key;
  }
}

}  // namespace
}  // namespace emptcp::analysis
