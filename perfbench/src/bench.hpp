// Shared pieces of the benchmark harness: host-side measurement (clock,
// resident memory, medians), the per-layer metric table, per-layer count
// collection from worlds and traces, and the workload interface the
// repetition loop in main.cpp drives.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/manifest.hpp"
#include "app/world.hpp"
#include "trace/event.hpp"
#include "trace/sink.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Host measurement.

double now_s();  ///< steady clock, seconds

/// Resident memory from /proc/self/status, in MB (VmRSS / VmHWM).
double rss_mb();
double peak_rss_mb();
/// Returns freed heap to the OS and restarts the VmHWM peak counter, so
/// the next peak_rss_mb() covers only what runs after this call. Throws
/// where the kernel refuses the reset, rather than let an earlier peak
/// stand in for the next one.
void reset_peak_rss();

double median(std::vector<double> v);
/// Smallest value with at least `q` of the samples at or below it.
double quantile(std::vector<double> v, double q);

/// printf into a std::string (one line of the harness's text output).
template <typename... Args>
std::string fmt(const char* format, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

/// Feeds the bytes of a trivially copyable value to a digest.
template <typename T>
void hash_value(emptcp::analysis::Fnv1a64Stream& h, const T& v) {
  h.update(std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

/// One per-layer metric: its unit, the end-to-end metric it should move
/// and the workload on which it is expected to do so.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
  const char* on;
};

/// Every per-layer metric the traced run prints, in print order. Kept in
/// step with BENCHMARK.json's per_layer list (the benchmark's tests check
/// both directions).
const std::vector<LayerMetric>& layer_metrics();

/// Deterministic work counts gathered from one repetition. Every field is
/// a pure function of (config, seed).
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t slab_slots = 0;
  std::uint64_t pool_slots = 0;
  std::uint64_t packets = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t loss_drops = 0;
  std::uint64_t rate_changes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rtos = 0;
  std::uint64_t fast_recoveries = 0;
  std::uint64_t state_changes = 0;
  std::uint64_t cwnd_updates = 0;
  std::uint64_t sched_picks = 0;
  std::uint64_t mp_prio_changes = 0;
  std::uint64_t reinjected_chunks = 0;
  std::uint64_t mode_changes = 0;
  std::uint64_t cellular_activations = 0;
  std::uint64_t energy_samples = 0;
  std::uint64_t energy_windows = 0;
  std::uint64_t idle_windows = 0;
  std::uint64_t radio_transitions = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;

  void add(const Counts& o);
  [[nodiscard]] std::uint64_t digest() const;
};

/// Typed trace events of one world (one simulation), counted by kind.
void count_trace(const std::vector<emptcp::trace::Event>& events, Counts& c);
/// The always-on tcp/mptcp counters of one registry snapshot.
void count_metrics(const std::vector<emptcp::trace::MetricSnapshot>& snap,
                   Counts& c);
/// Link counters, metric registry and retained trace of a live world.
void count_world(emptcp::app::World& w, Counts& c);
/// The per-layer metrics that follow from counts alone, keyed by name.
std::map<std::string, double> count_layers(const Counts& c);
/// One line on how much of a traced fleet's work is per-ACK: the share of
/// retained trace events that are cwnd updates or scheduler picks.
std::string per_ack_note(const Counts& c);

/// Self time per span name over every thread's spans recorded since the
/// last Telemetry::clear(): a span's duration minus the part its children
/// on the same thread cover.
struct SpanTime {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;  ///< one per span, in record order
};
std::map<std::string, SpanTime> span_times();

// ---------------------------------------------------------------------------
// Workloads.

/// What one timed repetition produced, judged outside the timed region.
struct RepOutcome {
  double client_s = 0.0;        ///< simulated client-seconds
  std::uint64_t attempted = 0;  ///< flows attempted
  std::uint64_t failed = 0;     ///< flows failed (see README)
};

/// A deliberately broken reference, used by the benchmark's own tests to
/// show that each correctness check can fail.
enum class Fault { kNone, kDigest, kShardTwin, kFidelityBand };

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed, once per invocation: twins and references. `traced` runs
  /// also time the phases the repetitions cannot split from outside.
  virtual void prepare(bool traced) = 0;
  /// Timed as setup_s: first library call up to the first simulated event.
  virtual void setup(bool traced) = 0;
  /// Timed as wall_s.
  virtual void run() = 0;
  /// Untimed: checks the repetition's outputs and releases it.
  virtual RepOutcome finish_rep() = 0;
  /// Untimed: releases a repetition that only measured set-up.
  virtual void discard() = 0;

  /// Per-layer values from the traced repetitions, keyed by metric name.
  /// `traced_wall_s` / `plain_wall_s` are median wall_s with and without
  /// tracing; `spans` holds every traced repetition's spans. Metrics a
  /// workload cannot reach are left out (printed as 0).
  virtual std::map<std::string, double> layers(
      double traced_wall_s, double plain_wall_s,
      const std::map<std::string, SpanTime>& spans) = 0;
  /// Lines printed once after the metrics (checks, twin figures).
  virtual std::vector<std::string> notes() = 0;
  /// False once any invocation-level check (twin, determinism) failed.
  [[nodiscard]] virtual bool checks_ok() const = 0;
};

std::unique_ptr<Workload> make_paper_campaign(std::uint64_t seed, Fault f,
                                              const std::string& root);
std::unique_ptr<Workload> make_sharded_fleet(std::uint64_t seed, Fault f);
std::unique_ptr<Workload> make_hybrid_fleet(std::uint64_t seed, Fault f);

}  // namespace perfbench
