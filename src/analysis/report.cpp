#include "analysis/report.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "analysis/histogram.hpp"
#include "analysis/windowed.hpp"
#include "stats/csv.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace emptcp::analysis {
namespace {

using stats::Table;

std::string pct(double fraction) { return Table::num(fraction * 100.0, 1); }

/// One (group, protocol) cell of the aggregate view.
struct GroupStats {
  std::string group;
  std::string protocol;
  std::vector<double> time_s;
  std::vector<double> energy_j;
  std::vector<double> uj_per_bit;
  double bytes = 0.0;
  double wifi_j = 0.0;
  double cell_j = 0.0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::vector<double> flow_fcts;  ///< every completed flow's FCT (s)
  std::vector<double> startup_s, stall_s, rebuffers;  ///< per stream flow
  LogHistogram flow_fct_s;
  LogHistogram flow_epb_uj;
};

std::string quantile_row_value(const LogHistogram& h, double q) {
  return h.count() == 0 ? "-" : Table::num(h.quantile(q), 3);
}

}  // namespace

std::string render_report(std::vector<AnalyzedRun> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const AnalyzedRun& a, const AnalyzedRun& b) {
              return std::tie(a.rollup.group, a.rollup.protocol,
                              a.rollup.seed) <
                     std::tie(b.rollup.group, b.rollup.protocol,
                              b.rollup.seed);
            });

  std::string out;
  out += "emptcp-report (";
  out += kManifestSchema;
  out += ")\nruns: " + std::to_string(runs.size()) + "\n\n";

  // -- per-run rollups ------------------------------------------------------
  out += "== runs ==\n";
  {
    Table t({"group", "protocol", "seed", "ok", "time_s", "energy_J",
             "uJ/bit", "wifi%", "retx", "susp", "res", "modes", "events"});
    for (const AnalyzedRun& a : runs) {
      const RunRollup& r = a.rollup;
      t.add_row({r.group, r.protocol, std::to_string(r.seed),
                 r.completed ? "y" : "n", Table::num(r.time_s, 3),
                 Table::num(r.energy_j, 3),
                 Table::num(r.energy_per_bit_uj(), 4),
                 pct(r.iface_share("wifi")), std::to_string(r.retransmits),
                 std::to_string(r.suspends), std::to_string(r.resumes),
                 std::to_string(r.mode_changes),
                 std::to_string(r.sim_events)});
    }
    out += t.render();
  }

  // -- per-group aggregates -------------------------------------------------
  std::vector<GroupStats> groups;
  for (const AnalyzedRun& a : runs) {
    const RunRollup& r = a.rollup;
    GroupStats* g = nullptr;
    for (GroupStats& cand : groups) {
      if (cand.group == r.group && cand.protocol == r.protocol) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back(GroupStats{});
      g = &groups.back();
      g->group = r.group;
      g->protocol = r.protocol;
    }
    g->time_s.push_back(r.time_s);
    g->energy_j.push_back(r.energy_j);
    g->uj_per_bit.push_back(r.energy_per_bit_uj());
    g->bytes += static_cast<double>(r.bytes);
    g->wifi_j += r.wifi_j;
    g->cell_j += r.cell_j;
    g->flows_started += r.flows_started;
    g->flows_completed += r.flows_completed;
    for (const RunRollup::FlowRollup& f : r.flows) {
      g->flow_fcts.push_back(f.fct_s);
    }
    for (const RunRollup::StreamRollup& s : r.streams) {
      g->startup_s.push_back(s.startup_s);
      g->stall_s.push_back(s.stall_s);
      g->rebuffers.push_back(s.rebuffers);
    }
    g->flow_fct_s.merge(r.flow_fct_s);
    g->flow_epb_uj.merge(r.flow_epb_uj);
  }

  out += "\n== aggregates (mean +/- SEM over seeds) ==\n";
  {
    Table t({"group", "protocol", "n", "time_s", "sem", "median", "energy_J",
             "sem", "median"});
    for (const GroupStats& g : groups) {
      const stats::SortedSample time_sorted(g.time_s);
      const stats::SortedSample energy_sorted(g.energy_j);
      t.add_row({g.group, g.protocol, std::to_string(g.time_s.size()),
                 Table::num(stats::mean(g.time_s), 3),
                 Table::num(stats::sem(g.time_s), 3),
                 Table::num(time_sorted.quantile(0.5), 3),
                 Table::num(stats::mean(g.energy_j), 3),
                 Table::num(stats::sem(g.energy_j), 3),
                 Table::num(energy_sorted.quantile(0.5), 3)});
    }
    out += t.render();
  }

  // -- energy per bit (the paper's Table 2 shape) ---------------------------
  out += "\n== energy per bit ==\n";
  {
    Table t({"group", "protocol", "MB", "energy_J", "uJ/bit", "wifi_J%",
             "cell_J%"});
    for (const GroupStats& g : groups) {
      const double energy = g.wifi_j + g.cell_j;
      const double bits = g.bytes * 8.0;
      t.add_row({g.group, g.protocol, Table::num(g.bytes / 1e6, 2),
                 Table::num(energy, 3),
                 bits > 0.0 ? Table::num(energy * 1e6 / bits, 4) : "-",
                 energy > 0.0 ? pct(g.wifi_j / energy) : "-",
                 energy > 0.0 ? pct(g.cell_j / energy) : "-"});
    }
    out += t.render();
  }

  // -- histogram-backed quantiles over all runs of each group ---------------
  out += "\n== quantiles (log-bucketed, 2% buckets) ==\n";
  {
    Table t({"metric", "group", "protocol", "n", "p50", "p90", "p95", "p99"});
    for (const GroupStats& g : groups) {
      LogHistogram time_h{};
      LogHistogram energy_h{};
      for (const double v : g.time_s) time_h.add(v);
      for (const double v : g.energy_j) energy_h.add(v);
      t.add_row({"time_s", g.group, g.protocol,
                 std::to_string(time_h.count()),
                 quantile_row_value(time_h, 0.50),
                 quantile_row_value(time_h, 0.90),
                 quantile_row_value(time_h, 0.95),
                 quantile_row_value(time_h, 0.99)});
      t.add_row({"energy_J", g.group, g.protocol,
                 std::to_string(energy_h.count()),
                 quantile_row_value(energy_h, 0.50),
                 quantile_row_value(energy_h, 0.90),
                 quantile_row_value(energy_h, 0.95),
                 quantile_row_value(energy_h, 0.99)});
    }
    out += t.render();
  }

  // -- per-flow distributions ----------------------------------------------
  // Rendered only when some run carried flow-level events.
  bool any_flows = false;
  for (const GroupStats& g : groups) any_flows |= g.flows_started != 0;
  if (any_flows) {
    // fct_mean/fct_sem: mean +/- SEM over the group's completed flows, so
    // a one-flow-per-run group reads its download time as the benches
    // print it.
    out += "\n== flows (per-flow FCT and energy/bit over all seeds) ==\n";
    Table t({"group", "protocol", "started", "done", "fct_mean", "fct_sem",
             "fct_p50", "fct_p95", "fct_p99", "uJ/bit_p50", "uJ/bit_p95"});
    for (const GroupStats& g : groups) {
      if (g.flows_started == 0) continue;
      const bool any = !g.flow_fcts.empty();
      t.add_row({g.group, g.protocol, std::to_string(g.flows_started),
                 std::to_string(g.flows_completed),
                 any ? Table::num(stats::mean(g.flow_fcts), 3) : "-",
                 any ? Table::num(stats::sem(g.flow_fcts), 3) : "-",
                 quantile_row_value(g.flow_fct_s, 0.50),
                 quantile_row_value(g.flow_fct_s, 0.95),
                 quantile_row_value(g.flow_fct_s, 0.99),
                 quantile_row_value(g.flow_epb_uj, 0.50),
                 quantile_row_value(g.flow_epb_uj, 0.95)});
    }
    out += t.render();
    out += "\n== cdf: flow_fct_s ==\n";
    for (const GroupStats& g : groups) {
      if (g.flow_fct_s.count() == 0) continue;
      out += g.group + "/" + g.protocol + ":";
      for (const LogHistogram::CdfPoint& p : g.flow_fct_s.cdf()) {
        out += " " + Table::num(p.upper, 3) + ":" + Table::num(p.fraction, 3);
      }
      out += "\n";
    }
  }

  // -- stream playback quality (stream flows only) ---------------------------
  bool any_streams = false;
  for (const GroupStats& g : groups) any_streams |= !g.startup_s.empty();
  if (any_streams) {
    out += "\n== streams (playback per stream flow, mean over all seeds) ==\n";
    Table t({"group", "protocol", "streams", "startup_s", "stall_s",
             "rebuffers"});
    for (const GroupStats& g : groups) {
      if (g.startup_s.empty()) continue;
      t.add_row({g.group, g.protocol, std::to_string(g.startup_s.size()),
                 Table::num(stats::mean(g.startup_s), 3),
                 Table::num(stats::mean(g.stall_s), 3),
                 Table::num(stats::mean(g.rebuffers), 3)});
    }
    out += t.render();
  }

  // -- CDF export (download time per group/protocol) ------------------------
  out += "\n== cdf: time_s ==\n";
  for (const GroupStats& g : groups) {
    LogHistogram h{};
    for (const double v : g.time_s) h.add(v);
    out += g.group + "/" + g.protocol + ":";
    for (const LogHistogram::CdfPoint& p : h.cdf()) {
      out += " " + Table::num(p.upper, 3) + ":" + Table::num(p.fraction, 3);
    }
    out += "\n";
  }

  // -- windowed power timeline (first run of each group/protocol) -----------
  out += "\n== power timeline (first seed, 10 s windows, mean mW) ==\n";
  for (const GroupStats& g : groups) {
    const AnalyzedRun* first = nullptr;
    for (const AnalyzedRun& a : runs) {
      if (a.rollup.group == g.group && a.rollup.protocol == g.protocol) {
        first = &a;
        break;
      }
    }
    if (first == nullptr) continue;
    out += g.group + "/" + g.protocol + " seed " +
           std::to_string(first->rollup.seed) + ":";
    // Mean over the per-interface tracker samples inside each window.
    for (const WindowedAggregator::Window& w : first->power_windows) {
      out += " " + Table::num(w.mean(), 1);
    }
    out += "\n";
  }

  // -- energy-accounting cross-check + integrity ----------------------------
  out += "\n== integrity ==\n";
  bool clean = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].digest_ok) {
      out += "DIGEST MISMATCH: " + runs[i].source + "\n";
      clean = false;
    }
    const RunRollup& r = runs[i].rollup;
    // The trace-integrated energy must agree with the tracker's own total
    // to within one sampling window of max power; flag anything worse.
    if (r.energy_j > 0.0 &&
        std::fabs(r.integrated_energy_j - r.energy_j) > 0.05 * r.energy_j) {
      out += "ENERGY DRIFT: " + runs[i].source + " tracker=" +
             stats::fmt_double(r.energy_j) + " trace=" +
             stats::fmt_double(r.integrated_energy_j) + "\n";
      clean = false;
    }
  }
  if (clean) out += "all digests and energy cross-checks ok\n";
  return out;
}

// ---------------------------------------------------------------------------
// Diffing.

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative '*' glob with backtracking to the most recent star.
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<ToleranceRule> default_bench_tolerances() {
  using Mode = ToleranceRule::Mode;
  return {
      // Schema/version markers must match exactly.
      {"schema", Mode::kExact, 0.0},
      {"*version*", Mode::kExact, 0.0},
      // Per-op allocation counts are deterministic: any increase beyond
      // rounding noise is a real hot-path regression.
      {"*alloc*", Mode::kMaxAbs, 0.01},
      // High-water marks (scheduler slab, packet pool) are deterministic
      // per workload; allow modest growth, catch structural blowups.
      {"*high_water*", Mode::kMaxFactor, 1.5},
      {"*slots*", Mode::kMaxFactor, 1.5},
      // Throughput / latency: CI machines and neighbors vary wildly, so
      // only a ~5x regression in the slower direction fails the gate.
      {"*per_sec*", Mode::kMinFactor, 5.0},
      {"*ns_per*", Mode::kMaxFactor, 5.0},
      // The hybrid fast path's acceptance bar: the macro-stepped fleet
      // must execute at least 3x fewer scheduler events than the packet
      // run over the same virtual window (deterministic on a given
      // build), and the wall-clock ratio — measured within one process on
      // one machine, so robust to CI noise — must show a real speedup.
      // Absolute floors, not baseline-relative: quick and full bench
      // modes sit at very different absolute speedups.
      {"fleet_256_hybrid.event_reduction_vs_packet", Mode::kFloor, 3.0},
      {"fleet_256_hybrid.speedup_vs_packet", Mode::kFloor, 2.0},
      // Parallel-shard speedups depend on the core count of the machine
      // that measured them (a 1-core baseline sits at ~1.0); only a large
      // collapse in the slower direction is a regression signal.
      {"*speedup*", Mode::kMinFactor, 5.0},
      // Everything else (raw counts, wall-clock seconds, metadata) is
      // informational only.
      {"*", Mode::kIgnore, 0.0},
  };
}

bool parse_tolerance(std::string_view spec, ToleranceRule& out) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string_view::npos || eq == 0) return false;
  out.pattern = std::string(spec.substr(0, eq));
  std::string_view rest = spec.substr(eq + 1);
  const std::size_t colon = rest.find(':');
  const std::string_view mode =
      colon == std::string_view::npos ? rest : rest.substr(0, colon);
  using Mode = ToleranceRule::Mode;
  if (mode == "ignore") {
    out.mode = Mode::kIgnore;
  } else if (mode == "exact") {
    out.mode = Mode::kExact;
  } else if (mode == "abs") {
    out.mode = Mode::kMaxAbs;
  } else if (mode == "factor") {
    out.mode = Mode::kMaxFactor;
  } else if (mode == "min") {
    out.mode = Mode::kMinFactor;
  } else if (mode == "floor") {
    out.mode = Mode::kFloor;
  } else if (mode == "near") {
    out.mode = Mode::kNear;
  } else {
    return false;
  }
  out.tol = 0.0;
  out.tol_abs = 0.0;
  if (out.mode == Mode::kNear) {
    // near:REL,ABS — the symmetric |c-b| <= REL*|b| + ABS band.
    if (colon == std::string_view::npos) return false;
    const std::string band(rest.substr(colon + 1));
    const std::size_t comma = band.find(',');
    if (comma == std::string::npos) return false;
    const std::string rel_str = band.substr(0, comma);
    const std::string abs_str = band.substr(comma + 1);
    char* end = nullptr;
    out.tol = std::strtod(rel_str.c_str(), &end);
    if (end == rel_str.c_str() || *end != '\0') return false;
    out.tol_abs = std::strtod(abs_str.c_str(), &end);
    if (end == abs_str.c_str() || *end != '\0') return false;
    if (out.tol < 0.0 || out.tol_abs < 0.0) return false;
  } else if (out.mode == Mode::kMaxAbs || out.mode == Mode::kMaxFactor ||
             out.mode == Mode::kMinFactor || out.mode == Mode::kFloor) {
    if (colon == std::string_view::npos) return false;
    char* end = nullptr;
    const std::string tol_str(rest.substr(colon + 1));
    out.tol = std::strtod(tol_str.c_str(), &end);
    if (end == tol_str.c_str() || *end != '\0') return false;
    if (out.tol < 0.0) return false;
    if ((out.mode == Mode::kMaxFactor || out.mode == Mode::kMinFactor) &&
        out.tol < 1.0) {
      return false;  // a factor below 1 would reject identical values
    }
  }
  return true;
}

namespace {

std::string render_scalar(const JsonScalar& s) {
  switch (s.type) {
    case JsonScalar::Type::kNumber: return stats::fmt_double(s.num);
    case JsonScalar::Type::kString: return s.str;
    case JsonScalar::Type::kBool: return s.boolean ? "true" : "false";
    case JsonScalar::Type::kNull: return "null";
  }
  return "?";
}

const ToleranceRule* rule_for(const std::vector<ToleranceRule>& rules,
                              std::string_view key) {
  for (const ToleranceRule& r : rules) {
    if (glob_match(r.pattern, key)) return &r;
  }
  return nullptr;
}

}  // namespace

DiffResult diff_metrics(const FlatJson& baseline, const FlatJson& current,
                        const std::vector<ToleranceRule>& rules) {
  using Mode = ToleranceRule::Mode;
  DiffResult out;
  for (const auto& [key, base] : baseline) {
    DiffResult::Row row;
    row.key = key;
    row.baseline = render_scalar(base);
    const ToleranceRule* rule = rule_for(rules, key);
    const Mode mode = rule == nullptr ? Mode::kIgnore : rule->mode;
    const JsonScalar* cur = json_find(current, key);
    if (cur == nullptr) {
      row.current = "-";
      row.violation = mode != Mode::kIgnore;
      row.verdict = row.violation ? "FAIL missing" : "ignored (missing)";
    } else {
      row.current = render_scalar(*cur);
      if (mode == Mode::kIgnore) {
        row.verdict = "ignored";
      } else if (mode == Mode::kExact) {
        row.violation = render_scalar(base) != render_scalar(*cur);
        row.verdict = row.violation ? "FAIL not equal" : "ok";
      } else if (base.type != JsonScalar::Type::kNumber ||
                 cur->type != JsonScalar::Type::kNumber) {
        row.violation = true;
        row.verdict = "FAIL non-numeric under numeric rule";
      } else {
        const double b = base.num;
        const double c = cur->num;
        switch (mode) {
          case Mode::kMaxAbs:
            row.violation = c > b + rule->tol;
            break;
          case Mode::kMaxFactor:
            row.violation = c > b * rule->tol;
            break;
          case Mode::kMinFactor:
            row.violation = c < b / rule->tol;
            break;
          case Mode::kFloor:
            row.violation = c < rule->tol;
            break;
          case Mode::kNear:
            row.violation =
                std::abs(c - b) > rule->tol * std::abs(b) + rule->tol_abs;
            break;
          default:
            break;
        }
        row.verdict = row.violation ? "FAIL out of tolerance" : "ok";
      }
    }
    if (row.violation) ++out.violations;
    out.rows.push_back(std::move(row));
  }
  for (const auto& [key, cur] : current) {
    if (json_find(baseline, key) != nullptr) continue;
    DiffResult::Row row;
    row.key = key;
    row.baseline = "-";
    row.current = render_scalar(cur);
    row.verdict = "new";
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::string DiffResult::render() const {
  Table t({"metric", "baseline", "current", "verdict"});
  for (const Row& r : rows) {
    t.add_row({r.key, r.baseline, r.current, r.verdict});
  }
  std::string out = t.render();
  out += violations == 0
             ? "diff: OK\n"
             : "diff: " + std::to_string(violations) + " violation(s)\n";
  return out;
}

std::string rollup_flat_json(const std::vector<AnalyzedRun>& runs) {
  std::vector<const RunRollup*> sorted;
  sorted.reserve(runs.size());
  for (const AnalyzedRun& r : runs) sorted.push_back(&r.rollup);
  std::sort(sorted.begin(), sorted.end(),
            [](const RunRollup* a, const RunRollup* b) {
              return std::tie(a->group, a->protocol, a->workload, a->seed) <
                     std::tie(b->group, b->protocol, b->workload, b->seed);
            });
  std::string out = "{\n  \"schema\": \"emptcp-rollup-flat-v1\"";
  auto field = [&out](const std::string& key, const std::string& value) {
    out += ",\n  \"" + key + "\": " + value;
  };
  for (const RunRollup* r : sorted) {
    // The workload string (e.g. "fleet/closed/c4") is part of the key:
    // a campaign with several fleet sizes has runs that agree on
    // (group, protocol, seed), and tolerance rules want to glob on the
    // client count ("*-c4-*") anyway. Slashes become dashes so the keys
    // stay glob- and shell-friendly.
    std::string workload = r->workload;
    std::replace(workload.begin(), workload.end(), '/', '-');
    std::string run = r->group + "-" + r->protocol;
    if (!workload.empty()) run += "-" + workload;
    run += "-s" + std::to_string(r->seed);
    field(run + ".completed", r->completed ? "1" : "0");
    field(run + ".time_s", stats::fmt_double(r->time_s));
    field(run + ".bytes", std::to_string(r->bytes));
    field(run + ".energy_j", stats::fmt_double(r->energy_j));
    field(run + ".flows_started", std::to_string(r->flows_started));
    field(run + ".flows_completed", std::to_string(r->flows_completed));
    // Keyed by flow id, not completion order: the two fidelities complete
    // flows in different orders, and the gate must compare a flow with
    // itself.
    std::vector<const RunRollup::FlowRollup*> flows;
    flows.reserve(r->flows.size());
    for (const auto& f : r->flows) flows.push_back(&f);
    std::sort(flows.begin(), flows.end(),
              [](const RunRollup::FlowRollup* a,
                 const RunRollup::FlowRollup* b) { return a->flow < b->flow; });
    for (const auto* f : flows) {
      const std::string key = run + ".flow" + std::to_string(f->flow);
      field(key + ".bytes", stats::fmt_double(f->bytes));
      field(key + ".fct_s", stats::fmt_double(f->fct_s));
      field(key + ".energy_j", stats::fmt_double(f->energy_j));
    }
  }
  out += "\n}\n";
  return out;
}

}  // namespace emptcp::analysis
