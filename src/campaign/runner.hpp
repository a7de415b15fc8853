// Campaign execution: the grid, the artifacts, and the resume ledger.
//
// Each cell (protocol, fleet size, seed) runs one fleet simulation —
// single-World ClientFleet, or the sharded multi-cell engine when the
// spec sets `sharding.clients_per_cell` — and writes the standard
// artifact pair — `<label>.jsonl` trace plus
// `<label>.manifest.json` — into the output directory, exactly the format
// the benches emit under EMPTCP_TRACE_DIR and `emptcp-report` consumes.
//
// Seeds are paired: every cell seeds its World with its spec seed, so at
// seed s every protocol and fleet size starts from the same random
// stream (the same on-off holding times and interferer schedules), as
// the paper's lab runs compared protocols under identical conditions. A
// one-client cell with one fixed-size flow is then the run
// Scenario::run_download makes at that seed. Cells are independent of
// grid order and worker count: running sequentially, on 4 workers, or
// resuming half-way produces byte-identical artifacts.
//
// Resume: a `campaign.ledger` file in the output directory records
// "<label> <digest>" per completed cell, appended (flushed) as cells
// finish and rewritten sorted at the end. On start the runner skips any
// cell whose ledger entry, manifest and trace digest all agree — an
// interrupted campaign re-runs only what is missing or corrupt.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace emptcp::campaign {

struct CampaignCell {
  app::Protocol protocol = app::Protocol::kEmptcp;
  std::size_t fleet_size = 0;
  std::uint64_t seed = 0;          ///< spec-level replication seed
  /// What seeds the simulation; always equal to `seed` (seeds are
  /// paired, above). Replays of a cell read it.
  std::uint64_t derived_seed = 0;
  std::string label;               ///< artifact basename
};

struct CellOutcome {
  CampaignCell cell;
  enum class Kind : std::uint8_t {
    kRan,      ///< simulated this invocation
    kResumed,  ///< verified complete from a previous invocation; skipped
  };
  Kind kind = Kind::kRan;
};

struct CampaignResult {
  std::vector<CellOutcome> cells;  ///< grid order
  std::size_t ran = 0;
  std::size_t resumed = 0;
};

class CampaignRunner {
 public:
  CampaignRunner(CampaignSpec spec, std::string out_dir);

  /// The grid in spec order: protocols × fleet_sizes × seeds.
  [[nodiscard]] std::vector<CampaignCell> cells() const;

  /// Runs (or resumes) the whole campaign on `workers` pool threads
  /// (0 = all cores, respecting EMPTCP_JOBS). Throws on IO failure.
  CampaignResult run(std::size_t workers = 0);

  /// Live progress: while run() executes, append one status line to
  /// `<out_dir>/heartbeat.jsonl` every `seconds` (wall clock), plus one
  /// final line after the grid completes. 0 disables (the default — the
  /// heartbeat file is wall-clock data, so it is opt-in and lives outside
  /// the deterministic artifact set the ledger covers).
  void set_heartbeat(double seconds) { heartbeat_s_ = seconds; }
  [[nodiscard]] std::string heartbeat_path() const;

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& out_dir() const { return out_dir_; }
  [[nodiscard]] std::string ledger_path() const;

 private:
  std::string run_cell(const CampaignCell& cell);  ///< returns trace digest
  void append_heartbeat(double wall_s);
  void export_campaign_telemetry() const;

  CampaignSpec spec_;
  std::string out_dir_;
  std::mutex ledger_mu_;

  double heartbeat_s_ = 0.0;
  /// Shared between pool workers (run_cell) and the heartbeat thread.
  struct Progress {
    std::size_t total = 0;
    std::size_t done = 0;  ///< completed this run + resumed
    std::vector<std::string> running;
    std::size_t ran = 0;            ///< completed this invocation only
    std::uint64_t events_done = 0;  ///< simulator events, completed cells
    double cell_wall_s = 0.0;       ///< summed per-cell wall time
    std::size_t workers = 1;
  };
  std::mutex progress_mu_;
  Progress progress_;
};

}  // namespace emptcp::campaign
