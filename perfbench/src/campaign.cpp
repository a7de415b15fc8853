// paper_campaign: CampaignRunner over a small paper-shaped grid, then
// load_analyzed_runs + render_report over its artifacts — the
// campaign -> report loop a user runs for every figure.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "analysis/manifest.hpp"
#include "analysis/report_io.hpp"
#include "bench.hpp"
#include "campaign/runner.hpp"
#include "runtime/replication.hpp"
#include "runtime/telemetry.hpp"
#include "stats/csv.hpp"
#include "stats/trace_export.hpp"
#include "workload/sharded_fleet.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using emptcp::runtime::ScopedSpan;

/// Pool workers for the campaign. One: with two, whether two large cells
/// serialize their traces at the same moment decided the peak resident
/// memory (74-121 MB across runs of one grid) and the makespan; one
/// worker makes both a function of the grid alone.
constexpr std::size_t kWorkers = 1;
/// The untimed replay in plain runs only needs references: all cores.
constexpr std::size_t kReplayWorkers = 4;
constexpr std::size_t kFlowsPerClient = 3;
/// Cell times come from the first this-many traced repetitions, so the
/// cell statistics cover the same n on every run, however many
/// repetitions fit the budget (traced runs make at least this many).
constexpr std::size_t kCellTimeReps = 3;
constexpr const char* kIntegrityOk = "all digests and energy cross-checks ok";

/// The grid: 3 protocols x fleet sizes {1, 4} x one replication seed taken
/// from the workload seed, at the §4.1 lab rates (WiFi 12, LTE 9 Mbps).
/// Clients run a closed loop with exponential think time. Sizes follow a
/// fixed schedule by flow index, from the small-file range (Fig. 15) up to
/// one 16 MB flow (Fig. 16) in each 4-client cell, so every seed downloads
/// the same bytes. The §4.3 on-off WiFi process is left out: under it the
/// host time of one cell varied 3x between seeds at equal event counts
/// (0.5-2.0 s for 1.1-1.5M events), which no run length averages away.
std::string spec_text(std::uint64_t seed) {
  std::ostringstream s;
  s << "schema = emptcp-campaign-v1\n"
    << "name = perfbench\n"
    << "protocols = emptcp, mptcp, tcp-wifi\n"
    << "fleet_sizes = 1, 4\n"
    << "seeds = " << seed << "\n"
    << "mode = closed\n"
    << "flows_per_client = " << kFlowsPerClient << "\n"
    << "think.kind = exponential\n"
    << "think.mean_s = 1.0\n"
    << "size.kind = scheduled\n"
    << "size.values = 32768, 262144, 65536, 1048576, 131072, 524288, "
       "49152, 262144, 98304, 1048576, 24576, 16777216\n"
    << "size.max_bytes = 16777216\n"
    << "scenario.wifi.down_mbps = 12\n"
    << "scenario.cell.down_mbps = 9\n"
    << "scenario.record_series = false\n"
    << "scenario.fidelity = packet\n";
  return s.str();
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Removes everything inside `dir` but keeps the directory, so the next
/// repetition's set-up finds it in place (as a user re-running into the
/// same output directory does) and no ledger is left to resume from.
void empty_dir(const std::string& dir) {
  std::error_code ec;
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    entries.push_back(entry.path());
  }
  for (const auto& path : entries) fs::remove_all(path, ec);
}

/// label -> digest, from a campaign.ledger ("<label> <digest>" lines).
std::map<std::string, std::string> read_ledger(const std::string& path) {
  std::map<std::string, std::string> out;
  std::istringstream in(read_text(path));
  std::string label;
  std::string digest;
  while (in >> label >> digest) out[label] = digest;
  return out;
}

/// What replaying one cell through the library's phases produced.
struct CellReplay {
  std::string digest;
  std::uint64_t bad_flows = 0;  ///< incomplete, or delivered != requested
  Counts counts;
  std::uint64_t jsonl_bytes = 0;
  double sim_s = 0.0;
  double jsonl_s = 0.0;
  double digest_s = 0.0;
  double write_s = 0.0;
};

class PaperCampaignWorkload final : public Workload {
 public:
  PaperCampaignWorkload(std::uint64_t seed, Fault fault, std::string out)
      : text_(spec_text(seed)),
        fault_(fault),
        out_dir_(out + "/campaign"),
        replay_dir_(out + "/replay") {}

  ~PaperCampaignWorkload() override {
    std::error_code ec;
    fs::remove_all(out_dir_, ec);
    fs::remove_all(replay_dir_, ec);
  }

  void prepare(bool traced) override {
    // Replays the grid through the library's phases: run_fleet ->
    // trace_to_jsonl -> fnv1a64_hex (-> write_file, then load + render
    // when traced). Its digests are the reference every repetition's
    // ledger must match, and its flow records carry the delivered bytes
    // the artifacts omit. Traced runs replay sequentially so each phase's
    // time is its own; plain runs only need the references and use the
    // pool.
    emptcp::campaign::CampaignSpec spec;
    std::string err;
    if (!emptcp::campaign::parse_campaign_spec(text_, spec, err)) {
      throw std::runtime_error("campaign spec: " + err);
    }
    cells_ = emptcp::campaign::CampaignRunner(spec, replay_dir_).cells();
    std::error_code ec;
    fs::remove_all(replay_dir_, ec);
    replay_traced_ = traced;
    if (traced) fs::create_directories(replay_dir_);
    fs::remove_all(out_dir_, ec);
    fs::create_directories(out_dir_);
    const std::vector<std::uint64_t> one{0};
    const auto replays = emptcp::runtime::run_replications(
        cells_, one,
        [&](const emptcp::campaign::CampaignCell& cell, std::uint64_t) {
          return replay_cell(spec, cell, traced);
        },
        traced ? 1 : kReplayWorkers);
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const CellReplay& r = replays[i][0];
      const std::string& label = cells_[i].label;
      reference_[label] = fault_ == Fault::kDigest ? r.digest + "0" : r.digest;
      bad_flows_[label] = r.bad_flows;
      counts_.add(r.counts);
      max_slab_ = std::max(max_slab_, r.counts.slab_slots);
      max_pool_ = std::max(max_pool_, r.counts.pool_slots);
      jsonl_bytes_ += r.jsonl_bytes;
      sim_s_ += r.sim_s;
      jsonl_s_ += r.jsonl_s;
      digest_s_ += r.digest_s;
      write_s_ += r.write_s;
    }
    if (!traced) return;
    std::vector<emptcp::analysis::AnalyzedRun> runs;
    double t0 = now_s();
    if (!emptcp::analysis::load_analyzed_runs({replay_dir_}, runs, err)) {
      throw std::runtime_error("replay load: " + err);
    }
    load_s_ = now_s() - t0;
    t0 = now_s();
    const std::string report = emptcp::analysis::render_report(std::move(runs));
    render_s_ = now_s() - t0;
    replay_report_ok_ = report.find(kIntegrityOk) != std::string::npos;
    fs::remove_all(replay_dir_, ec);
  }

  void setup(bool traced) override {
    (void)traced;  // the campaign always retains traces: they are its output
    spec_.emplace();
    std::string err;
    if (!emptcp::campaign::parse_campaign_spec(text_, *spec_, err)) {
      throw std::runtime_error("campaign spec: " + err);
    }
    runner_.emplace(*spec_, out_dir_);
    fs::create_directories(out_dir_);
  }

  void run() override {
    double t0 = now_s();
    {
      ScopedSpan span("bench.campaign_run");
      runner_->run(kWorkers);
    }
    double t1 = now_s();
    run_s_.push_back(t1 - t0);
    std::string err;
    runs_.clear();
    {
      ScopedSpan span("bench.load");
      if (!emptcp::analysis::load_analyzed_runs({out_dir_}, runs_, err)) {
        load_error_ = err;
      }
    }
    ScopedSpan span("bench.render");
    report_ = emptcp::analysis::render_report(runs_);
  }

  RepOutcome finish_rep() override {
    RepOutcome o;
    const auto ledger = read_ledger(runner_->ledger_path());
    const bool report_ok =
        load_error_.empty() && report_.find(kIntegrityOk) != std::string::npos;
    if (!report_ok) ++report_failures_;
    for (const auto& cell : cells_) {
      const std::uint64_t flows = cell.fleet_size * kFlowsPerClient;
      o.attempted += flows;
      const auto it = ledger.find(cell.label);
      const bool digest_ok =
          it != ledger.end() && it->second == reference_.at(cell.label);
      if (!digest_ok) ++digest_mismatches_;
      // A matching digest means this cell's trace is byte-identical to the
      // replay's, so the replay's per-flow delivered-bytes verdicts hold.
      std::uint64_t bad = bad_flows_.at(cell.label);
      const emptcp::analysis::AnalyzedRun* run = find_run(cell.label);
      if (run == nullptr) {
        bad = flows;
      } else {
        const auto done = run->rollup.flows_completed;
        bad = std::max<std::uint64_t>(bad, flows - std::min(flows, done));
        o.client_s +=
            static_cast<double>(cell.fleet_size) * run->rollup.time_s;
      }
      o.failed += report_ok && digest_ok ? bad : flows;
    }
    runs_.clear();
    report_.clear();
    load_error_.clear();
    runner_.reset();
    spec_.reset();
    empty_dir(out_dir_);
    return o;
  }

  void discard() override {
    runner_.reset();
    spec_.reset();
    empty_dir(out_dir_);
  }

  std::map<std::string, double> layers(
      double traced_wall_s, double plain_wall_s,
      const std::map<std::string, SpanTime>& spans) override {
    std::map<std::string, double> l = count_layers(counts_);
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    // run_fleet returns the run's metrics, not its world: the links are
    // out of reach, and slots are the largest single cell's.
    l.erase("net.packets");
    l.erase("net.queue_drops");
    l.erase("net.loss_drops");
    l["sim.slab_slots"] = d(max_slab_);
    l["sim.pool_slots"] = d(max_pool_);
    l["sim.ns_per_event"] =
        sim_s_ * 1e9 / d(std::max<std::uint64_t>(counts_.events, 1));

    l["campaign.run_s"] = median(run_s_);
    std::vector<double> cell_s;
    double cell_total = 0.0;
    for (const auto& [name, t] : spans) {
      if (name.rfind("cell ", 0) != 0) continue;
      // One span per cell per traced repetition, in record order.
      const std::size_t n = std::min(t.durations_s.size(), kCellTimeReps);
      cell_s.insert(cell_s.end(), t.durations_s.begin(),
                    t.durations_s.begin() + static_cast<std::ptrdiff_t>(n));
      cell_total += t.total_s;
    }
    l["campaign.cell_s_p50"] = median(cell_s);
    // A tail percentile should leave at least ten cells beyond it. A 6-cell
    // grid over kCellTimeReps repetitions has too few cells, of two fleet
    // sizes, for any such percentile to be a tail (with n = 18 it is p44):
    // the tail reported is the slowest cell (p100).
    cell_n_ = cell_s.size();
    l["campaign.cell_s_tail"] = quantile(cell_s, 1.0);
    const auto run_span = spans.find("bench.campaign_run");
    l["campaign.worker_busy_share"] =
        run_span == spans.end()
            ? 0.0
            : cell_total /
                  (static_cast<double>(kWorkers) * run_span->second.total_s);

    l["trace.overhead_pct"] = (traced_wall_s / plain_wall_s - 1.0) * 100.0;
    l["stats.jsonl_mb"] = d(jsonl_bytes_) / 1e6;
    l["stats.jsonl_s"] = jsonl_s_;
    l["stats.write_s"] = write_s_;
    l["analysis.digest_s"] = digest_s_;
    l["analysis.load_s"] = load_s_;
    l["analysis.render_s"] = render_s_;
    l["analysis.parse_mb_per_s"] = d(jsonl_bytes_) / 1e6 / load_s_;
    return l;
  }

  std::vector<std::string> notes() override {
    std::vector<std::string> out = {
        fmt("grid: %zu cells (3 protocols x fleet 1,4 x 1 seed), workers %zu, "
            "%llu flows per repetition",
            cells_.size(), kWorkers,
            static_cast<unsigned long long>(flows_per_rep())),
        fmt("check: %llu cell digests differ from the replay, %llu reports "
            "without \"%s\", %llu replayed flows short of their bytes, "
            "replay report %s",
            static_cast<unsigned long long>(digest_mismatches_),
            static_cast<unsigned long long>(report_failures_), kIntegrityOk,
            static_cast<unsigned long long>(total_bad_flows()),
            replay_report_ok_ ? "ok" : "NOT ok"),
    };
    if (cell_n_ > 0) {
      out.push_back(fmt("campaign.cell_s_tail is p100 (the slowest cell) "
                        "over n=%zu cells of the first %zu traced "
                        "repetitions",
                        cell_n_, kCellTimeReps));
    }
    if (replay_traced_) {
      out.push_back(fmt(
          "replay phases (sequential): simulate %.4f s, jsonl %.4f s, digest "
          "%.4f s, write %.4f s, load %.4f s, render %.4f s over %.3f MB",
          sim_s_, jsonl_s_, digest_s_, write_s_, load_s_, render_s_,
          static_cast<double>(jsonl_bytes_) / 1e6));
    }
    return out;
  }

  [[nodiscard]] bool checks_ok() const override {
    return digest_mismatches_ == 0 && report_failures_ == 0 &&
           total_bad_flows() == 0 && replay_report_ok_;
  }

 private:
  CellReplay replay_cell(const emptcp::campaign::CampaignSpec& spec,
                         const emptcp::campaign::CampaignCell& cell,
                         bool write) const {
    CellReplay r;
    emptcp::workload::FleetConfig cfg = spec.workload;
    cfg.protocol = cell.protocol;
    cfg.clients = cell.fleet_size;
    cfg.scenario.trace = true;

    double t0 = now_s();
    const emptcp::workload::FleetMetrics m =
        emptcp::workload::run_fleet(cfg, cell.derived_seed);
    double t1 = now_s();
    r.sim_s = t1 - t0;
    const std::string jsonl = emptcp::stats::trace_to_jsonl(
        m.run.trace_events, m.run.trace_metrics);
    t0 = now_s();
    r.jsonl_s = t0 - t1;
    r.digest = emptcp::analysis::fnv1a64_hex(jsonl);
    t1 = now_s();
    r.digest_s = t1 - t0;

    emptcp::analysis::RunManifest manifest;
    manifest.group = spec.name;
    manifest.protocol = emptcp::app::to_string(cell.protocol);
    manifest.seed = cell.seed;
    manifest.workload = "fleet/closed/c" + std::to_string(cell.fleet_size);
    manifest.trace_file = cell.label + ".jsonl";
    manifest.trace_events = m.run.trace_events.size();
    manifest.trace_digest = r.digest;
    if (write) {
      const bool written =
          emptcp::stats::write_file(replay_dir_ + "/" + manifest.trace_file,
                                    jsonl) &&
          emptcp::stats::write_file(
              replay_dir_ + "/" + cell.label + ".manifest.json",
              emptcp::analysis::manifest_to_json(manifest));
      r.write_s = now_s() - t1;
      if (!written) throw std::runtime_error("cannot write " + replay_dir_);
    }

    r.jsonl_bytes = jsonl.size();
    count_trace(m.run.trace_events, r.counts);
    count_metrics(m.run.trace_metrics, r.counts);
    r.counts.events = m.run.profile.events_executed;
    r.counts.slab_slots = m.run.profile.sched_slab_slots;
    r.counts.pool_slots = m.run.profile.packet_pool_slots;
    r.counts.cellular_activations =
        static_cast<std::uint64_t>(m.run.cellular_activations);
    r.counts.flows_started = m.flows_started;
    r.counts.flows_completed = m.flows_completed;
    for (const auto& f : m.flows) {
      r.counts.delivered_bytes += f.delivered;
      if (!f.completed || f.delivered != f.bytes) ++r.bad_flows;
    }
    const std::uint64_t budget = cfg.total_flows();
    if (m.flows.size() < budget) r.bad_flows += budget - m.flows.size();
    return r;
  }

  const emptcp::analysis::AnalyzedRun* find_run(const std::string& label) const {
    const std::string suffix = "/" + label + ".manifest.json";
    for (const auto& run : runs_) {
      if (run.source.size() >= suffix.size() &&
          run.source.compare(run.source.size() - suffix.size(), suffix.size(),
                             suffix) == 0) {
        return &run;
      }
    }
    return nullptr;
  }

  [[nodiscard]] std::uint64_t flows_per_rep() const {
    std::uint64_t n = 0;
    for (const auto& cell : cells_) n += cell.fleet_size * kFlowsPerClient;
    return n;
  }

  [[nodiscard]] std::uint64_t total_bad_flows() const {
    std::uint64_t n = 0;
    for (const auto& [label, bad] : bad_flows_) n += bad;
    return n;
  }

  std::string text_;
  Fault fault_;
  std::string out_dir_;
  std::string replay_dir_;

  // Replay (once per invocation).
  std::vector<emptcp::campaign::CampaignCell> cells_;
  std::map<std::string, std::string> reference_;
  std::map<std::string, std::uint64_t> bad_flows_;
  Counts counts_;
  std::uint64_t max_slab_ = 0;
  std::uint64_t max_pool_ = 0;
  std::uint64_t jsonl_bytes_ = 0;
  double sim_s_ = 0.0, jsonl_s_ = 0.0, digest_s_ = 0.0, write_s_ = 0.0;
  double load_s_ = 0.0, render_s_ = 0.0;
  bool replay_traced_ = false;
  /// The replay's own report; plain runs do not render one.
  bool replay_report_ok_ = true;

  // The repetition in flight.
  std::optional<emptcp::campaign::CampaignSpec> spec_;
  std::optional<emptcp::campaign::CampaignRunner> runner_;
  std::vector<emptcp::analysis::AnalyzedRun> runs_;
  std::string report_;
  std::string load_error_;

  std::vector<double> run_s_;
  std::size_t cell_n_ = 0;
  std::uint64_t digest_mismatches_ = 0;
  std::uint64_t report_failures_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_campaign(std::uint64_t seed, Fault f,
                                              const std::string& out) {
  return std::make_unique<PaperCampaignWorkload>(seed, f, out);
}

}  // namespace perfbench
