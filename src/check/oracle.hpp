// The protocol-invariant oracle: ~15 machine-checked invariants evaluated
// against a live simulation.
//
// Two feeds converge here:
//   * every trace event, via trace::EventObserver (cwnd bounds, TCP
//     state-machine legality, mode-change legality, energy-sample sanity,
//     per-sink time monotonicity, warnings-as-violations), and
//   * direct hooks from protocol code through sim::Hooks (sequence-space
//     sanity on every new ACK, exactly-once delivery identity on every
//     payload, DSS assignment contiguity/no-overlap, scheduler eligibility
//     of the picked subflow, the RFC 6356 LIA aggressiveness bound).
//
// The oracle draws no random numbers and schedules no events, so attaching
// it cannot perturb a deterministic run; serialized traces are byte-equal
// with and without it. Detach (or destroy) the oracle before its
// simulation is destroyed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "sim/time.hpp"
#include "trace/sink.hpp"

namespace emptcp::sim {
class Simulation;
}

namespace emptcp::check {

struct Violation {
  double t_s = 0.0;
  std::string invariant;
  std::string detail;
};

class Oracle : public trace::EventObserver {
 public:
  struct Config {
    std::uint32_t mss = 1448;  ///< net::kMss; plain literal keeps this light
    std::uint64_t max_cwnd = 16ull * 1024 * 1024;
    bool allow_cell_only = false;
    /// Detailed Violation records retained; the count keeps growing past
    /// this so a violation storm cannot exhaust memory.
    std::size_t max_violations = 64;
  };

  Oracle() = default;
  explicit Oracle(Config cfg) : cfg_(cfg) {}
  ~Oracle() override;

  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Installs this oracle as the simulation's hooks oracle and trace
  /// observer (saving whatever was there, restored on detach).
  void attach(sim::Simulation& sim);
  void detach();

  // --- trace::EventObserver --------------------------------------------
  void on_trace_event(const trace::Event& e) override;

  // --- direct hooks (called through sim::Hooks) ------------------------
  struct TcpAckView {
    std::uint64_t snd_una = 0;
    std::uint64_t snd_nxt = 0;
    std::uint64_t in_flight = 0;  ///< snd_nxt - snd_una
    std::uint64_t sacked = 0;
    std::uint64_t lost = 0;
    std::uint64_t cwnd = 0;
    std::uint32_t local_port = 0;
  };
  void on_tcp_ack(const TcpAckView& v);
  /// Running FNV-1a over every on_tcp_ack view's (snd_una, sacked, lost,
  /// cwnd), in call order: one number that pins a sender's per-ACK
  /// loss-recovery trajectory for regression tests.
  [[nodiscard]] std::uint64_t tcp_ack_digest() const {
    return tcp_ack_digest_;
  }

  /// After every payload insert: `received` application bytes must equal
  /// the reassembly cumulative point minus its initial value (1).
  void on_tcp_rx(std::uint64_t received, std::uint64_t rcv_cumulative,
                 std::uint32_t local_port);

  struct DssAssign {
    const void* conn = nullptr;  ///< identifies the data-sequence space
    std::uint64_t data_seq = 0;
    std::uint32_t len = 0;
    bool fresh = false;  ///< newly striped (else reinjected)
    bool sf_usable = false;
    bool sf_backup = false;
    bool other_regular_usable = false;
    std::size_t subflow_id = 0;
  };
  void on_dss_assign(const DssAssign& a);

  /// Hybrid fidelity: the fast path advanced `len` bytes of `conn`'s
  /// data-sequence space analytically, starting at `data_seq`. Must be
  /// contiguous with the fresh-assignment frontier (a gap or overlap means
  /// the macro-step and packet-level striping disagree about what has been
  /// sent); advances the frontier so post-fluid packet-level assignment is
  /// still held to dss.fresh_contiguous.
  void on_macro_advance(const void* conn, std::uint64_t data_seq,
                        std::uint64_t len);

  void on_lia_increase(const LiaSample& s);

  /// Harness-level check: the fuzzer funnels world-teardown and
  /// differential assertions through the same violation machinery.
  void expect(bool ok, const char* invariant, std::string detail);

  // --- results ----------------------------------------------------------
  [[nodiscard]] bool ok() const { return violation_count_ == 0; }
  [[nodiscard]] std::uint64_t violation_count() const {
    return violation_count_;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_; }
  /// One line per retained violation, suitable for repro files.
  [[nodiscard]] std::string report() const;

 private:
  void fail(const char* invariant, std::string detail);
  [[nodiscard]] double now_s() const;

  Config cfg_;
  sim::Simulation* sim_ = nullptr;
  trace::EventObserver* prev_observer_ = nullptr;
  Oracle* prev_hooks_oracle_ = nullptr;
  sim::Time last_event_t_ = 0;
  /// Per-connection fresh-assignment frontier of the data-sequence space.
  std::map<const void*, std::uint64_t> dss_frontier_;
  std::vector<Violation> violations_;
  std::uint64_t violation_count_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t tcp_ack_digest_ = 0xCBF29CE484222325ULL;
};

}  // namespace emptcp::check
