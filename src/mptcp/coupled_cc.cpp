#include "mptcp/coupled_cc.hpp"

#include <algorithm>
#include <cmath>

#include "sim/hooks.hpp"
#include "check/oracle.hpp"

namespace emptcp::mptcp {

namespace {
/// RTT used in alpha when a subflow has no sample yet (or eMPTCP zeroed it
/// for probing): a small positive value keeps the formula finite.
constexpr double kMinRttSeconds = 1e-3;

double rtt_seconds(const LiaState::Member& m) {
  return std::max(sim::to_seconds(m.srtt()), kMinRttSeconds);
}
}  // namespace

void LiaState::remove_member(const LiaCoupledCc* cc) {
  std::erase_if(members_, [cc](const Member& m) { return m.cc == cc; });
}

std::uint64_t LiaState::total_cwnd() const {
  std::uint64_t total = 0;
  for (const Member& m : members_) total += m.cc->cwnd();
  return total;
}

double LiaState::alpha() const {
  if (members_.empty()) return 1.0;
  double best = 0.0;
  double denom = 0.0;
  for (const Member& m : members_) {
    const double cwnd = static_cast<double>(m.cc->cwnd());
    const double rtt = rtt_seconds(m);
    best = std::max(best, cwnd / (rtt * rtt));
    denom += cwnd / rtt;
  }
  if (denom <= 0.0) return 1.0;
  const double total = static_cast<double>(total_cwnd());
  return total * best / (denom * denom);
}

std::uint64_t LiaCoupledCc::ca_increase(std::uint64_t acked_bytes) {
  const double total = static_cast<double>(state_.total_cwnd());
  const double own = static_cast<double>(cwnd());
  if (total <= 0.0 || own <= 0.0) return 1;
  const double mss = static_cast<double>(cfg_.mss);
  const double acked = static_cast<double>(acked_bytes);
  const double alpha = state_.alpha();
  const double coupled = alpha * acked * mss / total;
  const double reno = acked * mss / own;
  const auto inc = static_cast<std::uint64_t>(std::min(coupled, reno));
  const std::uint64_t result = std::max<std::uint64_t>(inc, 1);
  if (hooks_ != nullptr) {
    if (check::Oracle* oracle = hooks_->oracle) {
      oracle->on_lia_increase({acked_bytes, cfg_.mss, cwnd(),
                               state_.total_cwnd(), alpha, result});
    }
  }
  return result;
}

}  // namespace emptcp::mptcp
