#include "campaign/runner.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/manifest.hpp"
#include "analysis/perf_report.hpp"
#include "runtime/replication.hpp"
#include "runtime/telemetry.hpp"
#include "stats/csv.hpp"
#include "stats/digest.hpp"
#include "workload/sharded_fleet.hpp"

namespace emptcp::campaign {
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

/// Ledger lines -> (label, digest) pairs; malformed lines are dropped (a
/// torn final line from a killed run must not poison the resume).
std::vector<std::pair<std::string, std::string>> read_ledger(
    const std::string& path) {
  std::vector<std::pair<std::string, std::string>> entries;
  std::string text;
  if (!read_file(path, text)) return entries;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // no newline: torn write, drop
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) continue;
    entries.emplace_back(line.substr(0, sp), line.substr(sp + 1));
  }
  return entries;
}

const std::string* ledger_digest(
    const std::vector<std::pair<std::string, std::string>>& ledger,
    const std::string& label) {
  for (const auto& [l, d] : ledger) {
    if (l == label) return &d;
  }
  return nullptr;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// EMPTCP_PERF_DIR, or nullptr when unset/empty.
const char* perf_dir() {
  const char* dir = std::getenv("EMPTCP_PERF_DIR");
  return dir != nullptr && *dir != '\0' ? dir : nullptr;
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignSpec spec, std::string out_dir)
    : spec_(std::move(spec)), out_dir_(std::move(out_dir)) {}

std::string CampaignRunner::ledger_path() const {
  return out_dir_ + "/campaign.ledger";
}

std::string CampaignRunner::heartbeat_path() const {
  return out_dir_ + "/heartbeat.jsonl";
}

void CampaignRunner::append_heartbeat(double wall_s) {
  Progress p;
  {
    const std::lock_guard<std::mutex> lock(progress_mu_);
    p = progress_;
  }
  const std::size_t remaining = p.total - std::min(p.done, p.total);
  // ETA from completed-cell wall time: remaining cells at the mean cell
  // cost, divided across the pool. 0 until the first cell lands.
  const double mean_cell =
      p.ran > 0 ? p.cell_wall_s / static_cast<double>(p.ran) : 0.0;
  const double eta_s =
      p.workers > 0
          ? static_cast<double>(remaining) * mean_cell /
                static_cast<double>(p.workers)
          : 0.0;
  // Per-worker simulator throughput over completed cells.
  const double events_per_sec =
      p.cell_wall_s > 0.0
          ? static_cast<double>(p.events_done) / p.cell_wall_s
          : 0.0;

  std::string line = "{\"schema\": \"emptcp-heartbeat-v1\"";
  line += ", \"wall_s\": " + stats::fmt_double(wall_s);
  line += ", \"cells_total\": " + std::to_string(p.total);
  line += ", \"cells_done\": " + std::to_string(p.done);
  line += ", \"cells_running\": [";
  for (std::size_t i = 0; i < p.running.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + p.running[i] + "\"";
  }
  line += "]";
  line += ", \"events_per_sec\": " + stats::fmt_double(events_per_sec);
  line += ", \"eta_s\": " + stats::fmt_double(eta_s);
  line += "}\n";

  std::ofstream out(heartbeat_path(), std::ios::binary | std::ios::app);
  if (!out) {
    std::fprintf(stderr, "campaign: warning: cannot append %s\n",
                 heartbeat_path().c_str());
    return;
  }
  out << line;
  out.flush();
}

void CampaignRunner::export_campaign_telemetry() const {
  // Campaign-level telemetry artifacts (quiescent: the pool is gone, so
  // every per-thread span buffer is stable): the full Chrome trace for
  // Perfetto plus the aggregated span table as a PerfDoc.
  if (!runtime::Telemetry::enabled()) return;
  const char* dir = perf_dir();
  if (dir == nullptr) return;
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string base = std::string(dir) + "/campaign-" + spec_.name;
  runtime::Telemetry& t = runtime::Telemetry::instance();
  if (!stats::write_file(base + ".trace.json", t.to_chrome_json())) {
    std::fprintf(stderr, "campaign: warning: cannot write %s.trace.json\n",
                 base.c_str());
  }
  analysis::PerfDoc doc;
  doc.label = "campaign " + spec_.name;
  analysis::fill_spans(doc);
  if (!stats::write_file(base + ".perf.json",
                         analysis::perf_doc_to_json(doc))) {
    std::fprintf(stderr, "campaign: warning: cannot write %s.perf.json\n",
                 base.c_str());
  }
}

std::vector<CampaignCell> CampaignRunner::cells() const {
  std::vector<CampaignCell> grid;
  grid.reserve(spec_.cell_count());
  for (const app::Protocol p : spec_.protocols) {
    for (const std::size_t fleet : spec_.fleet_sizes) {
      for (const std::uint64_t seed : spec_.seeds) {
        CampaignCell cell;
        cell.protocol = p;
        cell.fleet_size = fleet;
        cell.seed = seed;
        cell.derived_seed = seed;
        cell.label = spec_.name + "-" + protocol_slug(p) + "-f" +
                     std::to_string(fleet) + "-s" + std::to_string(seed);
        grid.push_back(std::move(cell));
      }
    }
  }
  return grid;
}

std::string CampaignRunner::run_cell(const CampaignCell& cell) {
  const auto t0 = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(progress_mu_);
    progress_.running.push_back(cell.label);
  }

  workload::FleetConfig cfg = spec_.workload;
  cfg.protocol = cell.protocol;
  cfg.clients = cell.fleet_size;
  cfg.scenario.trace = true;

  // Dispatches on cell structure: clients_per_cell == 0 runs the classic
  // single-World ClientFleet, anything else the sharded engine. Either
  // way the artifacts are a pure function of (cfg, seed) — the shard
  // count never leaks into them.
  workload::FleetMetrics m;
  {
    // One span per cell (interned: the label must outlive this frame —
    // the campaign trace is exported after all cells finish).
    std::optional<runtime::ScopedSpan> span;
    if (runtime::Telemetry::enabled()) {
      span.emplace(
          runtime::Telemetry::instance().intern("cell " + cell.label));
    }
    m = workload::run_fleet(cfg, cell.derived_seed);
  }

  analysis::RunManifest manifest;
  manifest.group = spec_.name;
  manifest.protocol = app::to_string(cell.protocol);
  manifest.seed = cell.seed;
  manifest.workload =
      std::string("fleet/") +
      (cfg.mode == workload::FleetConfig::Mode::kClosed ? "closed" : "open") +
      "/c" + std::to_string(cell.fleet_size);
  const bool sharded = cfg.sharding.clients_per_cell != 0;
  if (sharded) {
    manifest.workload += "/cells" + std::to_string(cfg.cell_count());
  }
  if (cfg.application.kind != workload::Application::Kind::kDownload) {
    manifest.workload +=
        std::string("/") + application_slug(cfg.application.kind);
  }
  manifest.params = analysis::describe_scenario(cfg.scenario);
  manifest.params.emplace_back("fleet.clients",
                               std::to_string(cell.fleet_size));
  manifest.params.emplace_back("fleet.flows_per_client",
                               std::to_string(cfg.flows_per_client));
  manifest.params.emplace_back(
      "fleet.mode",
      quoted(cfg.mode == workload::FleetConfig::Mode::kClosed ? "closed"
                                                              : "open"));
  if (sharded) {
    // The topology (cells, cross-traffic pattern) is part of the cell's
    // identity; the worker-shard count deliberately is NOT — artifacts
    // must be byte-identical for any shards value, so recording it would
    // break ledger verification across machines.
    manifest.params.emplace_back("fleet.cells",
                                 std::to_string(cfg.cell_count()));
    manifest.params.emplace_back(
        "fleet.clients_per_cell",
        std::to_string(cfg.sharding.clients_per_cell));
    manifest.params.emplace_back("fleet.cross_every",
                                 std::to_string(cfg.sharding.cross_every));
  }
  const std::string failed = analysis::write_run_artifacts(
      out_dir_, cell.label, m.run.trace_events, m.run.trace_metrics, manifest);
  if (!failed.empty()) {
    throw std::runtime_error("campaign: cannot write " + failed);
  }

  // Perf sidecar: engine telemetry goes to EMPTCP_PERF_DIR, never into
  // out_dir_ — resume verification and the determinism gates byte-compare
  // the campaign directory, and perf data is wall-clock noise.
  if (m.perf) {
    if (const char* dir = perf_dir()) {
      analysis::PerfDoc doc = *m.perf;
      doc.label = cell.label;
      const std::string path =
          std::string(dir) + "/" + cell.label + ".perf.json";
      if (!stats::write_file(path, analysis::perf_doc_to_json(doc))) {
        std::fprintf(stderr, "campaign: warning: cannot write %s\n",
                     path.c_str());
      }
    }
  }

  {
    const std::lock_guard<std::mutex> lock(progress_mu_);
    ++progress_.done;
    ++progress_.ran;
    progress_.events_done += m.run.profile.events_executed;
    progress_.cell_wall_s += seconds_since(t0);
    auto it = std::find(progress_.running.begin(), progress_.running.end(),
                        cell.label);
    if (it != progress_.running.end()) progress_.running.erase(it);
  }
  return manifest.trace_digest;
}

CampaignResult CampaignRunner::run(std::size_t workers) {
  // Programmatic specs bypass load_campaign_spec's validation, and an
  // empty grid would "succeed" having run nothing — fail loudly instead.
  if (spec_.cell_count() == 0) {
    throw std::invalid_argument(
        "campaign: spec \"" + spec_.name +
        "\" produces an empty cell grid (protocols x fleet_sizes x seeds "
        "must all be non-empty)");
  }

  std::error_code ec;
  fs::create_directories(out_dir_, ec);
  if (ec) {
    throw std::runtime_error("campaign: cannot create " + out_dir_ + ": " +
                             ec.message());
  }

  const std::vector<CampaignCell> grid = cells();
  const auto ledger = read_ledger(ledger_path());

  // Classify every cell up front: complete (ledger + manifest + trace all
  // agree) cells resume, everything else runs.
  std::vector<bool> complete(grid.size(), false);
  std::vector<std::string> digests(grid.size());
  std::vector<CampaignCell> pending;
  std::vector<std::size_t> pending_index;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const CampaignCell& cell = grid[i];
    const std::string* led = ledger_digest(ledger, cell.label);
    if (led != nullptr) {
      std::string manifest_text;
      std::string trace_digest;
      if (read_file(out_dir_ + "/" + cell.label + ".manifest.json",
                    manifest_text) &&
          stats::digest_file(out_dir_ + "/" + cell.label + ".jsonl",
                             trace_digest)) {
        std::string err;
        analysis::RunManifest manifest;
        const auto doc = analysis::parse_json_flat(manifest_text, &err);
        if (doc && analysis::manifest_from_json(*doc, manifest) &&
            manifest.trace_digest == *led && trace_digest == *led) {
          complete[i] = true;
          digests[i] = *led;
        }
      }
    }
    if (!complete[i]) {
      pending.push_back(cell);
      pending_index.push_back(i);
    }
  }

  {
    const std::lock_guard<std::mutex> lock(progress_mu_);
    progress_ = Progress();
    progress_.total = grid.size();
    progress_.done = grid.size() - pending.size();  // resumed cells
    progress_.workers =
        workers == 0 ? runtime::default_worker_count() : workers;
  }

  // Heartbeat thread: wakes every heartbeat_s_ and appends a status line.
  // The cv (not sleep) makes shutdown immediate, and the guard makes it
  // exception-safe around the pool run below.
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  std::thread hb_thread;
  const auto hb_t0 = std::chrono::steady_clock::now();
  const auto stop_heartbeat = [&]() noexcept {
    if (!hb_thread.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
    hb_thread.join();
  };
  if (heartbeat_s_ > 0.0) {
    hb_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(hb_mu);
      while (!hb_cv.wait_for(lock,
                             std::chrono::duration<double>(heartbeat_s_),
                             [&] { return hb_stop; })) {
        lock.unlock();
        append_heartbeat(seconds_since(hb_t0));
        lock.lock();
      }
    });
  }

  // Run what's left on the pool. Each finished cell appends to the ledger
  // immediately (flushed), so a kill mid-campaign loses at most the cells
  // in flight.
  try {
    if (!pending.empty()) {
      const std::vector<std::uint64_t> one{0};
      auto ran = runtime::run_replications(
          pending, one,
          [this](const CampaignCell& cell, std::uint64_t) {
            std::string digest = run_cell(cell);
            {
              const std::lock_guard<std::mutex> lock(ledger_mu_);
              std::ofstream out(ledger_path(),
                                std::ios::binary | std::ios::app);
              out << cell.label << ' ' << digest << '\n';
              out.flush();
            }
            return digest;
          },
          workers);
      for (std::size_t k = 0; k < pending.size(); ++k) {
        digests[pending_index[k]] = std::move(ran[k][0]);
      }
    }
  } catch (...) {
    stop_heartbeat();
    throw;
  }
  stop_heartbeat();
  // One final line regardless of timing, so an enabled heartbeat always
  // ends with a done == total record (what the gate asserts on).
  if (heartbeat_s_ > 0.0) append_heartbeat(seconds_since(hb_t0));

  // Rewrite the ledger sorted: the final file is a pure function of the
  // grid, independent of completion order and worker count.
  std::vector<std::string> lines;
  lines.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    lines.push_back(grid[i].label + " " + digests[i] + "\n");
  }
  std::sort(lines.begin(), lines.end());
  std::string ledger_text;
  for (const std::string& line : lines) ledger_text += line;
  if (!stats::write_file(ledger_path(), ledger_text)) {
    throw std::runtime_error("campaign: cannot write " + ledger_path());
  }

  export_campaign_telemetry();

  CampaignResult result;
  result.cells.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    CellOutcome outcome;
    outcome.cell = grid[i];
    outcome.kind = complete[i] ? CellOutcome::Kind::kResumed
                               : CellOutcome::Kind::kRan;
    (complete[i] ? result.resumed : result.ran) += 1;
    result.cells.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace emptcp::campaign
