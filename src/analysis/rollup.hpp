// Per-connection/run rollups computed from serialized traces.
//
// The rollup consumes the JSONL trace stream (events + metric snapshot)
// and reduces it to the aggregate view the paper reports: energy-per-bit,
// per-subflow byte shares, suspend/resume counts, retransmission ratios,
// mode switches. It deliberately works on the *serialized* form — the
// same bytes `emptcp-report` reads from disk — so in-process tests and
// the offline CLI run one code path, and a trace plus manifest is
// sufficient to reproduce every reported number without re-running the
// simulation. That path is RollupBuilder::feed: text in chunks of any
// size, each line scanned in place by one reused TraceLine and folded
// straight into the counters. No trace is ever materialized.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/histogram.hpp"
#include "analysis/manifest.hpp"
#include "analysis/trace_line.hpp"
#include "analysis/windowed.hpp"

namespace emptcp::analysis {

/// The per-run aggregate view.
struct RunRollup {
  // Identity (copied from the manifest).
  std::string group;
  std::string protocol;
  std::string workload;  ///< free-form, e.g. "fleet/closed/c4"
  std::uint64_t seed = 0;

  // Headline numbers (from the run.* gauges the scenario records into the
  // trace's metric snapshot).
  bool completed = false;
  double time_s = 0.0;
  double energy_j = 0.0;
  double wifi_j = 0.0;
  double cell_j = 0.0;
  std::uint64_t bytes = 0;

  /// Independent cross-check: trapezoid-free integration of the per-window
  /// energy_sample events (power * window). Should track energy_j closely;
  /// a large gap means the trace is stale or truncated.
  double integrated_energy_j = 0.0;

  // Scheduler / subflow activity. Summed over sched_pick lines and, for a
  // decisions-level trace, the trace.elided.sched_pick* counts that stand
  // in for them; at either level one of the two sources is zero.
  std::uint64_t sched_picks = 0;
  std::vector<std::pair<std::string, std::uint64_t>> sched_bytes_by_iface;
  std::uint64_t suspends = 0;       ///< MP_PRIO backup=true transitions
  std::uint64_t resumes = 0;        ///< MP_PRIO backup=false transitions
  std::uint64_t mode_changes = 0;   ///< eMPTCP path-usage decisions
  std::uint64_t radio_transitions = 0;
  std::uint64_t warnings = 0;
  /// Retained trace lines (metric lines excluded): the one field that
  /// depends on the trace level.
  std::uint64_t events = 0;
  std::uint64_t sim_events = 0;     ///< sim.events_executed gauge

  // TCP loss-recovery counters (from the metric snapshot).
  std::uint64_t retransmits = 0;
  std::uint64_t rtos = 0;
  std::uint64_t fast_recoveries = 0;
  std::uint64_t reinjections = 0;

  // Per-flow workload view (from flow_start / flow_complete events).
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  LogHistogram flow_fct_s;    ///< completed-flow completion time (seconds)
  LogHistogram flow_epb_uj;   ///< completed-flow energy per bit (µJ/bit)

  /// One completed flow, verbatim from its flow_complete trace event.
  /// Retained in completion order; O(flows) memory, which the workloads
  /// that feed reports keep comfortably bounded. The fidelity gate diffs
  /// these field-by-field between packet and hybrid runs.
  struct FlowRollup {
    std::uint64_t flow = 0;
    double bytes = 0.0;
    double fct_s = 0.0;
    double energy_j = 0.0;
  };
  std::vector<FlowRollup> flows;
  /// One stream flow's playback quality, from its stream trace event.
  struct StreamRollup {
    double startup_s = 0.0;
    double stall_s = 0.0;
    double rebuffers = 0.0;
  };
  std::vector<StreamRollup> streams;

  [[nodiscard]] double energy_per_bit_uj() const {
    return bytes == 0 ? 0.0
                      : energy_j * 1e6 / (static_cast<double>(bytes) * 8.0);
  }
  /// Retransmitted segments per megabyte received.
  [[nodiscard]] double retx_per_mb() const {
    return bytes == 0 ? 0.0
                      : static_cast<double>(retransmits) /
                            (static_cast<double>(bytes) / 1e6);
  }
  /// Fraction of scheduler-assigned bytes that went to `iface`.
  [[nodiscard]] double iface_share(std::string_view iface) const;
};

/// Streaming rollup: folds JSONL text chunk by chunk, never retaining
/// events. This is what `emptcp-report` runs over multi-hundred-MB traces
/// — memory stays O(interfaces + covered-time/window + one line),
/// independent of event count.
class RollupBuilder {
 public:
  explicit RollupBuilder(const RunManifest& manifest);

  /// Folds the next piece of JSONL text. Pieces may split lines anywhere;
  /// a partial line waits for the rest. False on the first malformed
  /// line, with `err` naming it ("line N: offset M: message").
  bool feed(std::string_view chunk, std::string& err);
  /// Folds a final line that has no newline. Call once, after the last
  /// feed.
  bool close(std::string& err);

  /// The finished rollup (metric-derived fields resolved on each call).
  [[nodiscard]] RunRollup finish() const;

  /// 10 s mean-power windows over every energy_sample seen — the report's
  /// power-timeline view, built in the same single pass.
  [[nodiscard]] const WindowedAggregator& power() const { return power_; }

 private:
  bool fold(std::string_view line, std::string& err);
  /// One scanned line: a metric line when it has a string "metric" field,
  /// otherwise an event dispatched on its "kind".
  void add(const TraceLine& line);

  TraceLine line_;
  std::string carry_;  ///< partial line from the previous chunk
  std::size_t line_no_ = 0;
  RunRollup r_;  ///< event-derived counters accumulate here
  std::vector<std::pair<std::string, double>> metrics_;
  /// Per-interface integrator state. Sharded fleets emit one co-timed
  /// sample per cell per window under the same interface name, so each
  /// sample integrates over the current timestep (cached in `step` for
  /// the co-timed followers) rather than the gap to the previous event.
  struct SampleStep {
    double t = 0.0;     ///< latest distinct sample time seen
    double step = 0.0;  ///< width of the window ending at `t`
  };
  std::vector<std::pair<std::string, SampleStep>> prev_sample_t_;
  WindowedAggregator power_{10.0};
};

}  // namespace emptcp::analysis
