// Coupled congestion control: the LIA algorithm of RFC 6356, used by the
// Linux MPTCP implementation the paper runs ("How hard can it be?", Raiciu
// et al., NSDI'12 [29]).
//
// Per ACK in congestion avoidance, subflow i increases its window by
//     min( alpha * bytes_acked * MSS / cwnd_total ,
//          bytes_acked * MSS / cwnd_i )
// where
//     alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / ( sum_i cwnd_i/rtt_i )^2.
// Slow start, loss and timeout reactions stay per-subflow Reno, also per the
// RFC. The shared state (alpha, total cwnd) lives in LiaState, owned by the
// MPTCP meta-socket of the sending side; each subflow's controller holds a
// reference.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"
#include "tcp/cc.hpp"

namespace emptcp::sim {
struct Hooks;
}  // namespace emptcp::sim

namespace emptcp::mptcp {

class LiaCoupledCc;

/// Shared LIA state across the subflows of one connection.
class LiaState {
 public:
  struct Member {
    LiaCoupledCc* cc = nullptr;
    std::function<sim::Duration()> srtt;  ///< subflow's smoothed RTT
  };

  void add_member(Member m) { members_.push_back(std::move(m)); }
  void remove_member(const LiaCoupledCc* cc);

  /// Total congestion window across member subflows (bytes).
  [[nodiscard]] std::uint64_t total_cwnd() const;

  /// Recomputes and returns alpha per RFC 6356 §4.
  [[nodiscard]] double alpha() const;

 private:
  std::vector<Member> members_;
};

class LiaCoupledCc final : public tcp::CongestionControl {
 public:
  LiaCoupledCc(Config cfg, LiaState& state)
      : tcp::CongestionControl(cfg), state_(state) {}

  /// Lets the invariant oracle observe every coupled increase. The
  /// meta-socket wires its simulation's hooks in at creation.
  void set_hooks(sim::Hooks* hooks) { hooks_ = hooks; }

 protected:
  std::uint64_t ca_increase(std::uint64_t acked_bytes) override;

 private:
  LiaState& state_;
  sim::Hooks* hooks_ = nullptr;
};

}  // namespace emptcp::mptcp
