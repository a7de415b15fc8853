// FastPath: the hybrid-fidelity coordinator (DESIGN.md §13).
//
// Watches every MptcpConnection in a world through sim::Hooks and,
// when a flow proves quiescent — congestion avoidance on every subflow,
// nothing in flight, no loss state, stable measured throughput — advances
// it analytically in whole scheduler quanta instead of packet by packet:
// data-level and subflow sequence spaces, congestion windows, interface
// byte counters and radio activity all move in one step per quantum.
//
// Any transient (loss signal observed at entry, link rate/loss change,
// MP_PRIO, subflow set change, app write/close) drops the flow back to
// packet level; the quiescence predicates are re-proven before analytic
// advancement resumes. Per-flow state machine:
//
//   kMeasure --(pending bytes + stable rate + CA on all senders)--> pause tx
//   kDraining --(both endpoints macro-quiescent)--> kFluid
//   kFluid --(transient | tail reached | timeout)--> unpause, kMeasure
//
// The fast path always leaves a packet-level tail (cfg.tail_bytes) so the
// close handshake, DATA_FIN and radio tail run at full fidelity. Every
// transition is recorded as a `fastpath` trace event.
#pragma once

#include <cstdint>
#include <vector>

#include "mptcp/fastpath_listener.hpp"
#include "mptcp/meta_socket.hpp"

namespace emptcp::app {

struct World;

class FastPath final : public mptcp::FastPathListener {
 public:
  struct Config {
    /// Governor period; also the analytic advancement quantum. Offset by
    /// half a period from the EnergyTracker's sampling chain so the two
    /// never race on the same instant.
    sim::Duration quantum = sim::milliseconds(100);
    /// Unassigned sender backlog below which fluid mode is not worth the
    /// drain round-trip.
    std::uint64_t min_fluid_bytes = 300 * 1024;
    /// Backlog left to packet level so teardown runs at full fidelity.
    std::uint64_t tail_bytes = 64 * 1024;
    /// Consecutive in-band rate measurements required before entry.
    int stable_ticks = 3;
    /// Relative spread tolerated between consecutive rate measurements.
    double stability_spread = 0.25;
    /// Governor ticks to wait for in-flight data to drain before giving up.
    int max_drain_ticks = 15;
    /// Consecutive ticks with no flow activity (no received bytes, every
    /// flow in kMeasure) before the governor parks itself. Keeps the
    /// scheduler quiescent for idle fleets; any transient re-arms it.
    int idle_park_ticks = 2;
  };

  FastPath(World& w, Config cfg);
  explicit FastPath(World& w) : FastPath(w, Config{}) {}
  ~FastPath() override;

  FastPath(const FastPath&) = delete;
  FastPath& operator=(const FastPath&) = delete;

  // FastPathListener.
  void on_conn_established(mptcp::MptcpConnection& conn) override;
  void on_conn_destroyed(mptcp::MptcpConnection& conn) override;
  void on_conn_transient(mptcp::MptcpConnection& conn) override;

  /// A path property changed (link rate or loss): every fluid flow drops
  /// back to packet level and re-measures against the new path.
  void kick_all();

  /// Bytes advanced analytically so far (tests; also a run.* gauge).
  [[nodiscard]] std::uint64_t fluid_bytes() const { return fluid_bytes_; }
  /// Number of measure->fluid entries (tests).
  [[nodiscard]] std::uint64_t fluid_entries() const { return fluid_entries_; }

 private:
  enum class State { kMeasure, kDraining, kFluid };
  /// Client-side interfaces a flow can ride: [0]=wifi, [1]=cellular.
  static constexpr int kIfaces = 2;

  struct Flow {
    mptcp::MptcpConnection* client = nullptr;
    mptcp::MptcpConnection* server = nullptr;
    /// Direction chosen at measurement time: whichever side holds the
    /// unassigned backlog sends; the other receives.
    mptcp::MptcpConnection* sender = nullptr;
    mptcp::MptcpConnection* receiver = nullptr;
    State state = State::kMeasure;
    double rate_bps[kIfaces] = {0.0, 0.0};    ///< payload bytes/s, frozen at entry
    std::uint64_t last_rx[kIfaces] = {0, 0};  ///< receiver subflow counters
    double carry[kIfaces] = {0.0, 0.0};       ///< sub-byte fluid remainder
    double last_total = 0.0;                  ///< previous tick's total rate
    int stable = 0;
    int drain = 0;
    bool dead = false;  ///< destroyed mid-tick; swept after the loop
    /// Whether the flow moved or held data last tick. A busy<->idle edge
    /// on any flow is a load change for every peer sharing the links
    /// (closed-loop completions and think-time gaps never destroy the
    /// connection, so membership callbacks alone would miss them).
    bool busy = false;
  };

  void arm();
  void disarm();
  void tick(std::uint64_t epoch);
  /// Returns true when bytes moved (or direction flipped) this tick.
  bool measure(Flow& f, double dt);
  void try_enter(Flow& f);
  /// Per-tick aggregates of the wire traffic fluid flows would have put on
  /// the network: total per client interface (energy metering) and split
  /// by direction (link background load).
  struct WireLoad {
    double total[kIfaces] = {0.0, 0.0};  ///< bytes/s, both directions
    double down[kIfaces] = {0.0, 0.0};   ///< bytes/s toward the client
    double up[kIfaces] = {0.0, 0.0};     ///< bytes/s toward the server
  };

  /// Advances one fluid flow by `rate[i] * dt` payload bytes per carrying
  /// interface. `rate` is the flow's equalized, capacity-clamped share
  /// computed by tick() — not its raw frozen measurement.
  void fluid_step(Flow& f, double dt, const double rate[kIfaces],
                  WireLoad& load);
  /// Applies (or clears, when zero) the fluid share to the energy tracker
  /// and to every access/WAN link in both directions.
  void apply_wire_load(const WireLoad& load);
  /// Records a `fastpath` trace event: the flow entering `state` (static
  /// storage) for `reason`, with its sender backlog and frozen rates.
  void trace_transition(const Flow& f, const char* state, const char* reason);
  void drop_to_measure(Flow& f, const char* why);
  [[nodiscard]] Flow* find(const mptcp::MptcpConnection& conn);

  World& w_;
  Config cfg_;
  std::vector<Flow> flows_;
  std::vector<mptcp::MptcpConnection*> pending_;  ///< established, unpaired
  bool armed_ = false;
  bool in_tick_ = false;
  int idle_ticks_ = 0;  ///< consecutive all-quiet ticks (parks the governor)
  std::uint64_t epoch_ = 0;  ///< retires stale scheduled ticks on disarm
  sim::Time last_tick_ = 0;
  std::uint64_t fluid_bytes_ = 0;
  std::uint64_t fluid_entries_ = 0;
};

}  // namespace emptcp::app
