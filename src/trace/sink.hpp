// TraceSink: per-Simulation structured tracing and metrics.
//
// Design goals, in order:
//   1. Near-zero cost when disabled. Every instrumentation site compiles to
//      a load of one cached bool plus a branch (see trace/trace.hpp); no
//      stream, no string, no allocation. bench_micro measures this path and
//      records allocs/op in BENCH_core.json so regressions are visible.
//   2. Determinism. The sink belongs to one Simulation and is filled from
//      the single-threaded event core, so the recorded sequence is a pure
//      function of (scenario, seed). Serialized traces are byte-identical
//      across sequential and parallel replication runs — which is what lets
//      golden-trace diffs double as a regression harness.
//   3. Typed records. Each instrumented decision point calls a dedicated
//      record method; exporters in stats/ give the fields schema names.
//
// The metrics registry rides along: named monotonic counters and
// last-value gauges. Registration (find-or-create) allocates and belongs
// in constructors; handles are stable pointers, so hot-path increments are
// a single add through a cached pointer, enabled or not.
//
// Retention has two levels (DESIGN.md §7). kFull keeps every event;
// kDecisions keeps every kind but the per-ACK ones (cwnd, srtt,
// sched_pick) and counts those into trace.elided.* counters instead. The
// flight recorder and the observer see every event at either level.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/event.hpp"

namespace emptcp::trace {

class Metrics;

/// Monotonic counter. Obtain via Metrics::counter(); pointer-stable.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class Metrics;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::uint64_t value_ = 0;
};

/// Last-value gauge. Obtain via Metrics::gauge(); pointer-stable.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class Metrics;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  double value_ = 0.0;
};

/// One exported metric value (counters widen to double losslessly for the
/// magnitudes this simulator produces).
struct MetricSnapshot {
  std::string name;
  double value = 0.0;
};

class Metrics {
 public:
  /// Find-or-create by name. Allocates on first use of a name — call from
  /// constructors, cache the returned pointer for the hot path.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Registration-order snapshot (counters first, then gauges), the order
  /// exporters serialize — deterministic because registration order is.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  [[nodiscard]] const std::deque<Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::deque<Gauge>& gauges() const { return gauges_; }

 private:
  // deque: handles must stay valid as the registry grows.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
};

/// Bounded last-N ring of trace events — the simulator's flight recorder.
/// Always on (capacity is fixed at compile time, writes are an index mask
/// and a POD copy), so the most recent instrumented activity is available
/// for post-mortem dumps even when full event retention is disabled.
class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 256;

  void record(const Event& e) {
    ring_[total_ % kCapacity] = e;
    ++total_;
  }
  void clear() { total_ = 0; }

  /// Events ever recorded (retained tail is min(total, kCapacity)).
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::size_t size() const {
    return total_ < kCapacity ? static_cast<std::size_t>(total_) : kCapacity;
  }

  /// Retained tail, oldest first.
  [[nodiscard]] std::vector<Event> tail() const;

  /// Human-readable dump of the tail (raw record layout, one line per
  /// event) for invariant-violation and test-failure forensics.
  [[nodiscard]] std::string dump() const;

 private:
  std::array<Event, kCapacity> ring_{};
  std::uint64_t total_ = 0;
};

/// Out-of-band consumer of every recorded event, invoked synchronously
/// from push(). The invariant oracle (check::Oracle) attaches through
/// this to watch live runs without perturbing retention or determinism.
class EventObserver {
 public:
  virtual ~EventObserver() = default;
  virtual void on_trace_event(const Event& e) = 0;
};

/// How much of the event stream a sink retains.
enum class Level : std::uint8_t {
  kFull,       ///< every kind
  kDecisions,  ///< all but kPerAckKinds, which are counted instead
};

/// Bit of `k` in a per-kind mask.
constexpr std::uint32_t kind_bit(Kind k) {
  return std::uint32_t{1} << static_cast<unsigned>(k);
}
static_assert(static_cast<unsigned>(Kind::kWarning) < 32,
              "per-kind masks are 32 bits wide");

/// The per-ACK kinds: one record per ACK or per scheduled chunk, read by
/// no figure. kDecisions counts them instead of keeping them.
inline constexpr std::uint32_t kPerAckKinds =
    kind_bit(Kind::kCwnd) | kind_bit(Kind::kSrtt) |
    kind_bit(Kind::kSchedPick);

class TraceSink {
 public:
  TraceSink() = default;
  // At kDecisions the sink points into its own registry (elided_).
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// The one hot-path query; instrumentation macros branch on it. True when
  /// anything wants the record: full event retention (enabled), the
  /// always-on flight recorder, or an attached observer.
  [[nodiscard]] bool recording() const { return recording_; }

  /// Full event retention (the exported trace stream).
  [[nodiscard]] bool enabled() const { return enabled_; }
  void enable(bool on = true) {
    enabled_ = on;
    recompute_recording();
  }

  /// Retention level of the event stream (default kFull). Set it before
  /// the first event. kDecisions registers `trace.elided.<kind>` for the
  /// three per-ACK kinds, and `trace.elided.sched_pick.bytes.<iface>` as
  /// each interface first shows up, and counts the elided events into
  /// them; kFull registers nothing, so its snapshot is unchanged.
  void set_level(Level level);

  /// The bounded flight-recorder ring; on by default. Turning it off (with
  /// retention also off and no observer) reduces every instrumentation
  /// site to a cached bool load and branch.
  void flight_enable(bool on = true) {
    flight_on_ = on;
    recompute_recording();
  }
  [[nodiscard]] bool flight_enabled() const { return flight_on_; }
  [[nodiscard]] const FlightRecorder& flight() const { return flight_; }
  FlightRecorder& flight() { return flight_; }

  // Typed record methods. Call only when recording() — the EMPTCP_TRACE
  // macro enforces the gate so fully-disabled runs never reach these.
  void tcp_state(sim::Time t, std::uint32_t flow, const char* from,
                 const char* to) {
    push({t, Kind::kTcpState, flow, from, to, 0, 0, 0.0, 0.0});
  }
  void cwnd(sim::Time t, std::uint32_t flow, std::uint64_t cwnd_bytes,
            std::uint64_t ssthresh_bytes) {
    push({t, Kind::kCwnd, flow, nullptr, nullptr,
          static_cast<std::int64_t>(cwnd_bytes),
          static_cast<std::int64_t>(ssthresh_bytes), 0.0, 0.0});
  }
  void srtt(sim::Time t, std::uint32_t flow, sim::Duration srtt_ns,
            sim::Duration rto_ns) {
    push({t, Kind::kSrtt, flow, nullptr, nullptr, srtt_ns, rto_ns, 0.0, 0.0});
  }
  void sched_pick(sim::Time t, std::uint32_t subflow, const char* iface,
                  std::uint64_t data_seq, std::uint32_t len) {
    push({t, Kind::kSchedPick, subflow, iface, nullptr,
          static_cast<std::int64_t>(data_seq), len, 0.0, 0.0});
  }
  void mp_prio(sim::Time t, std::uint32_t subflow, const char* iface,
               bool backup, const char* origin) {
    push({t, Kind::kMpPrio, subflow, iface, origin, backup ? 1 : 0, 0, 0.0,
          0.0});
  }
  void mode_change(sim::Time t, const char* from, const char* to,
                   double wifi_mbps, double cell_mbps) {
    push({t, Kind::kModeChange, 0, from, to, 0, 0, wifi_mbps, cell_mbps});
  }
  void radio_state(sim::Time t, std::uint32_t iface_code, const char* iface,
                   const char* state) {
    push({t, Kind::kRadioState, iface_code, iface, state, 0, 0, 0.0, 0.0});
  }
  void energy_sample(sim::Time t, std::uint32_t iface_code, const char* iface,
                     double mbps, double power_mw) {
    push({t, Kind::kEnergySample, iface_code, iface, nullptr, 0, 0, mbps,
          power_mw});
  }
  void channel_rate(sim::Time t, const char* what, double mbps,
                    double extra = 0.0) {
    push({t, Kind::kChannelRate, 0, what, nullptr, 0, 0, mbps, extra});
  }
  void flow_start(sim::Time t, std::uint32_t flow, std::uint64_t bytes) {
    push({t, Kind::kFlowStart, flow, nullptr, nullptr,
          static_cast<std::int64_t>(bytes), 0, 0.0, 0.0});
  }
  void flow_complete(sim::Time t, std::uint32_t flow, std::uint64_t bytes,
                     double fct_s, double energy_j_est) {
    push({t, Kind::kFlowComplete, flow, nullptr, nullptr,
          static_cast<std::int64_t>(bytes), 0, fct_s, energy_j_est});
  }
  void stream(sim::Time t, std::uint32_t flow, double startup_s,
              double stall_s, int rebuffers) {
    push({t, Kind::kStream, flow, nullptr, nullptr, rebuffers, 0, startup_s,
          stall_s});
  }
  /// `state` is the governor state entered (measure/drain/fluid), `reason`
  /// why; rates are the flow's frozen per-interface payload rates.
  void fastpath(sim::Time t, std::uint32_t flow, const char* state,
                const char* reason, std::uint64_t pending_bytes,
                double wifi_mbps, double cell_mbps) {
    push({t, Kind::kFastpath, flow, state, reason,
          static_cast<std::int64_t>(pending_bytes), 0, wifi_mbps, cell_mbps});
  }
  void warning(sim::Time t, const char* what, std::int64_t v0 = 0,
               std::int64_t v1 = 0) {
    push({t, Kind::kWarning, 0, what, nullptr, v0, v1, 0.0, 0.0});
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  /// Installs an event observer; returns the previous one so callers can
  /// save/restore LIFO-style. Pass nullptr to remove.
  EventObserver* set_observer(EventObserver* obs) {
    EventObserver* prev = observer_;
    observer_ = obs;
    recompute_recording();
    return prev;
  }
  [[nodiscard]] EventObserver* observer() const { return observer_; }

  Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

 private:
  void push(const Event& e) {
    if (enabled_) {
      if ((keep_ & kind_bit(e.kind)) != 0) {
        events_.push_back(e);
      } else {
        elide(e);
      }
    }
    if (flight_on_) flight_.record(e);
    if (observer_ != nullptr) observer_->on_trace_event(e);
  }

  /// Counts an event the level does not keep.
  void elide(const Event& e);

  void recompute_recording() {
    recording_ = enabled_ || flight_on_ || observer_ != nullptr;
  }

  bool enabled_ = false;
  bool flight_on_ = true;
  bool recording_ = true;  ///< any consumer active, cached for the gate
  std::uint32_t keep_ = ~std::uint32_t{0};  ///< kind_bit()s retained
  EventObserver* observer_ = nullptr;
  std::vector<Event> events_;
  /// kDecisions only: per-kind counts of elided events, and the elided
  /// sched_pick bytes per interface label (static storage, so keyed by
  /// pointer).
  std::array<Counter*, 32> elided_{};
  std::vector<std::pair<const char*, Counter*>> elided_bytes_;
  FlightRecorder flight_;
  Metrics metrics_;
};

/// When EMPTCP_FLIGHT_DIR is set, writes `why` + the recorder's dump()
/// into that directory (created if missing) and returns the path written;
/// returns "" when the variable is unset, the recorder is empty, or the
/// write failed. The file name embeds the sanitized `context` (test or
/// cell name), the process id, a per-process thread ordinal and an atomic
/// sequence number — collision-free by construction when tests or
/// campaign cells run concurrently under EMPTCP_JOBS > 1, where a
/// name-only scheme would interleave or overwrite dumps.
std::string dump_flight_to_file(const FlightRecorder& fr,
                                std::string_view context,
                                std::string_view why);

/// Thread-local "most recently constructed, still alive" sink, maintained
/// by sim::Simulation. Lets out-of-band observers — the gtest failure
/// listener, signal-style panic paths — find the flight recorder of the
/// simulation under test without threading a reference through every call.
/// Returns nullptr when no Simulation is alive on this thread.
[[nodiscard]] TraceSink* current_sink();

namespace detail {
/// Pushes `s` as the thread's current sink; returns the previous one so
/// the caller (Simulation's destructor) can restore it LIFO-style.
TraceSink* set_current_sink(TraceSink* s);
}  // namespace detail

}  // namespace emptcp::trace
