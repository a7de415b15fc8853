// emptcp-campaign: declarative multi-flow campaign runner.
//
//   emptcp-campaign [--out DIR] [--jobs N] [--no-report] SPEC
//
// Parses a campaign spec (JSON or key=value, see src/campaign/spec.hpp),
// runs the protocol × fleet-size × seed grid on the replication thread
// pool, and writes one `<label>.jsonl` + `<label>.manifest.json` artifact
// pair per cell into the output directory — exactly the format
// emptcp-report consumes, with the trace at the decisions level. After the grid completes, the paper-style report
// over every cell is rendered to stdout (suppress with --no-report).
//
// Campaigns are resumable: a `campaign.ledger` in the output directory
// records each completed cell's trace digest. Re-invoking the same spec on
// the same directory verifies the ledger against the artifacts and re-runs
// only missing or corrupt cells; the final artifacts are byte-identical to
// an uninterrupted run, regardless of worker count (--jobs / EMPTCP_JOBS).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/report_io.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "runtime/telemetry.hpp"

namespace {

using namespace emptcp;

constexpr const char kUsage[] =
    "usage: emptcp-campaign [--out DIR] [--jobs N] [--shards N]\n"
    "                       [--heartbeat SECS] [--no-report] SPEC\n"
    "       emptcp-campaign --help\n"
    "\n"
    "Runs the protocol x fleet-size x seed grid described by SPEC (JSON\n"
    "or key=value lines) and writes per-cell trace + manifest artifacts\n"
    "into DIR (default: campaign-out). Traces are decision-level: the\n"
    "per-ACK cwnd/srtt/sched_pick records are counted, not written.\n"
    "Completed cells are recorded in DIR/campaign.ledger; re-running the\n"
    "same spec resumes, re-running only missing or corrupt cells. Unless\n"
    "--no-report is given, the emptcp-report rendering over all cells is\n"
    "printed to stdout.\n"
    "\n"
    "--shards N overrides the spec's sharding.shards worker count for\n"
    "sharded fleets (sharding.clients_per_cell > 0); 0 derives it from\n"
    "EMPTCP_JOBS / the core count. Artifacts are byte-identical for any\n"
    "value — the override only changes wall-clock time.\n"
    "\n"
    "--heartbeat SECS appends a live status line (cells done/running,\n"
    "events/s, ETA) to DIR/heartbeat.jsonl every SECS seconds, plus one\n"
    "final line when the grid completes.\n"
    "\n"
    "With EMPTCP_PERF_DIR set, the runtime span profiler is enabled and\n"
    "per-cell `<label>.perf.json` plus campaign-level `.trace.json`\n"
    "(Chrome trace-event JSON, loadable in Perfetto) and `.perf.json`\n"
    "files are written there — never into DIR, whose contents stay a pure\n"
    "function of (spec, seeds). Render them with `emptcp-report perf`.\n";

/// A spec that cannot run, or an IO failure: one line, exit 2.
int fail(const std::string& reason) {
  std::fprintf(stderr, "emptcp-campaign: %s\n", reason.c_str());
  return 2;
}

/// Command-line misuse: the reason, then the usage text, exit 2.
int usage_error(const std::string& complaint) {
  if (!complaint.empty()) fail(complaint);
  std::fputs(kUsage, stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage_error("");
  for (const std::string& a : args) {
    if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
  }

  std::string out_dir = "campaign-out";
  std::string spec_path;
  std::size_t jobs = 0;  // 0 = pool default (cores, capped by EMPTCP_JOBS)
  bool report = true;
  bool shards_given = false;
  std::size_t shards = 0;
  double heartbeat_s = 0.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out") {
      if (i + 1 >= args.size()) return usage_error("--out needs a directory");
      out_dir = args[++i];
    } else if (args[i] == "--jobs") {
      if (i + 1 >= args.size()) return usage_error("--jobs needs a count");
      char* end = nullptr;
      const unsigned long v = std::strtoul(args[++i].c_str(), &end, 10);
      if (end == args[i].c_str() || *end != '\0' || v == 0) {
        return usage_error("bad --jobs value: " + args[i]);
      }
      jobs = static_cast<std::size_t>(v);
    } else if (args[i] == "--shards") {
      if (i + 1 >= args.size()) return usage_error("--shards needs a count");
      char* end = nullptr;
      const unsigned long v = std::strtoul(args[++i].c_str(), &end, 10);
      if (end == args[i].c_str() || *end != '\0') {
        return usage_error("bad --shards value: " + args[i]);
      }
      shards_given = true;
      shards = static_cast<std::size_t>(v);  // 0 = jobs-derived
    } else if (args[i] == "--heartbeat") {
      if (i + 1 >= args.size()) {
        return usage_error("--heartbeat needs a seconds value");
      }
      char* end = nullptr;
      const double v = std::strtod(args[++i].c_str(), &end);
      if (end == args[i].c_str() || *end != '\0' || !(v > 0.0)) {
        return usage_error("bad --heartbeat value: " + args[i]);
      }
      heartbeat_s = v;
    } else if (args[i] == "--no-report") {
      report = false;
    } else if (!args[i].empty() && args[i][0] == '-') {
      return usage_error("unknown option: " + args[i]);
    } else if (spec_path.empty()) {
      spec_path = args[i];
    } else {
      return usage_error("more than one SPEC given: " + args[i]);
    }
  }
  if (spec_path.empty()) return usage_error("no SPEC file given");

  campaign::CampaignSpec spec;
  std::string err;
  if (!campaign::load_campaign_spec(spec_path, spec, err)) {
    return fail(err);  // err already names the spec path
  }
  if (shards_given) {
    if (spec.workload.sharding.clients_per_cell == 0) {
      return usage_error("--shards given but the spec is not sharded (set "
                         "sharding.clients_per_cell)");
    }
    spec.workload.sharding.shards = shards;
  }

  std::fprintf(stderr,
               "emptcp-campaign: %s: %zu protocol(s) x %zu fleet size(s) x "
               "%zu seed(s) = %zu cell(s) -> %s\n",
               spec.name.c_str(), spec.protocols.size(),
               spec.fleet_sizes.size(), spec.seeds.size(), spec.cell_count(),
               out_dir.c_str());
  if (spec.workload.sharding.clients_per_cell != 0) {
    std::fprintf(stderr,
                 "emptcp-campaign: sharded fleets: %zu clients/cell, "
                 "shards=%zu (0 = jobs-derived)\n",
                 spec.workload.sharding.clients_per_cell,
                 spec.workload.sharding.shards);
  }

  // EMPTCP_PERF_DIR opts into the span profiler: telemetry artifacts land
  // there, keeping the campaign directory byte-identical to a run with
  // profiling off (the determinism gates compare it whole).
  if (const char* perf_dir = std::getenv("EMPTCP_PERF_DIR");
      perf_dir != nullptr && *perf_dir != '\0') {
    std::error_code ec;
    std::filesystem::create_directories(perf_dir, ec);
    if (ec) {
      return fail(std::string("cannot create ") + perf_dir + ": " +
                  ec.message());
    }
    runtime::Telemetry::instance().enable(true);
    std::fprintf(stderr, "emptcp-campaign: telemetry on -> %s\n", perf_dir);
  }

  campaign::CampaignRunner runner(std::move(spec), out_dir);
  runner.set_heartbeat(heartbeat_s);
  campaign::CampaignResult result;
  try {
    result = runner.run(jobs);
  } catch (const std::exception& e) {
    // An IO failure, or a degenerate grid (std::invalid_argument, e.g. an
    // empty seed list): fail loudly, not with a silent empty campaign.
    return fail(e.what());
  }

  for (const campaign::CellOutcome& o : result.cells) {
    std::fprintf(stderr, "  %-7s %s\n",
                 o.kind == campaign::CellOutcome::Kind::kResumed ? "resumed"
                                                                 : "ran",
                 o.cell.label.c_str());
  }
  std::fprintf(stderr, "emptcp-campaign: %zu ran, %zu resumed\n", result.ran,
               result.resumed);

  if (report) {
    std::vector<analysis::AnalyzedRun> runs;
    if (!analysis::load_analyzed_runs({out_dir}, runs, err)) return fail(err);
    const std::string rendered = analysis::render_report(std::move(runs));
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  }
  return 0;
}
