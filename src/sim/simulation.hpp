// Simulation context: one object owning the clock, RNG and trace sink.
//
// Every protocol / channel / application object receives a Simulation& at
// construction and keeps a reference. This replaces global state: two
// simulations can run back-to-back (or interleaved in tests) without
// touching each other, and a run is reproducible from (scenario, seed).
#pragma once

#include <cstdint>
#include <memory>
#include <typeindex>
#include <unordered_map>

#include "sim/event.hpp"
#include "sim/random.hpp"
#include "trace/sink.hpp"

namespace emptcp::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {
    // Register as this thread's current sink so out-of-band observers
    // (test-failure listeners, panic paths) can reach the flight recorder.
    prev_sink_ = trace::detail::set_current_sink(&trace_);
  }
  ~Simulation() {
    // Best-effort LIFO restore (simulations are stack objects in practice;
    // out-of-order destruction just loses the current-sink shortcut).
    if (trace::current_sink() == &trace_) {
      trace::detail::set_current_sink(prev_sink_);
    }
  }

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Time now() const { return sched_.now(); }

  Scheduler& scheduler() { return sched_; }
  Rng& rng() { return rng_; }

  /// Structured tracing / metrics for this run. A direct member (not a
  /// context<>() entry) because instrumentation sites query its enabled
  /// flag on hot paths — the map lookup would dominate the gate.
  trace::TraceSink& trace() { return trace_; }
  [[nodiscard]] const trace::TraceSink& trace() const { return trace_; }

  EventId at(Time t, Scheduler::Action a) {
    return sched_.schedule_at(t, std::move(a));
  }
  EventId in(Duration dt, Scheduler::Action a) {
    return sched_.schedule_in(dt, std::move(a));
  }

  /// Runs until `t`; see Scheduler::run_until. On a simulation invariant
  /// violation (scheduler exceptions: event-limit runaway, scheduling in
  /// the past, anything thrown out of an event action) the flight-recorder
  /// tail is dumped to stderr before the exception propagates.
  std::size_t run_until(Time t) {
    try {
      return sched_.run_until(t);
    } catch (...) {
      dump_flight_recorder("exception out of the event loop");
      throw;
    }
  }
  std::size_t run() { return run_until(kTimeNever); }

  /// Dumps the flight-recorder tail to stderr (no-op when empty) — the
  /// post-mortem view of what the simulation did last.
  void dump_flight_recorder(const char* why) const;

  /// Per-simulation singleton of an arbitrary default-constructible type,
  /// created on first use. Lets higher layers (e.g. the net packet pool)
  /// share run-scoped resources without the sim layer depending on them,
  /// and keeps those resources isolated between concurrently-running
  /// simulations.
  template <typename T>
  T& context() {
    auto it = contexts_.find(std::type_index(typeid(T)));
    if (it == contexts_.end()) {
      it = contexts_
               .emplace(std::type_index(typeid(T)),
                        ContextPtr(new T(), [](void* p) {
                          delete static_cast<T*>(p);
                        }))
               .first;
    }
    return *static_cast<T*>(it->second.get());
  }

 private:
  using ContextPtr = std::unique_ptr<void, void (*)(void*)>;

  // Declared first so contexts (e.g. the packet pool) are destroyed *after*
  // the scheduler: pending events may hold pooled resources whose
  // destructors return them to their pool.
  std::unordered_map<std::type_index, ContextPtr> contexts_;
  Scheduler sched_;
  Rng rng_;
  trace::TraceSink trace_;
  trace::TraceSink* prev_sink_ = nullptr;
};

}  // namespace emptcp::sim
