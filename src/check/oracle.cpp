#include "check/oracle.hpp"

#include <string>

#include "sim/hooks.hpp"
#include "sim/simulation.hpp"

namespace emptcp::check {

namespace {
std::string u64(std::uint64_t v) { return std::to_string(v); }
std::string i64(std::int64_t v) { return std::to_string(v); }
}  // namespace

Oracle::~Oracle() { detach(); }

void Oracle::attach(sim::Simulation& sim) {
  detach();
  sim_ = &sim;
  sim::Hooks& h = sim::hooks(sim);
  prev_hooks_oracle_ = h.oracle;
  h.oracle = this;
  prev_observer_ = sim.trace().set_observer(this);
  last_event_t_ = sim.now();
}

void Oracle::detach() {
  if (sim_ == nullptr) return;
  sim::hooks(*sim_).oracle = prev_hooks_oracle_;
  sim_->trace().set_observer(prev_observer_);
  sim_ = nullptr;
  prev_observer_ = nullptr;
  prev_hooks_oracle_ = nullptr;
}

double Oracle::now_s() const {
  return sim_ != nullptr ? sim::to_seconds(sim_->now()) : 0.0;
}

void Oracle::fail(const char* invariant, std::string detail) {
  ++violation_count_;
  if (violations_.size() < cfg_.max_violations) {
    violations_.push_back(Violation{now_s(), invariant, std::move(detail)});
  }
}

void Oracle::expect(bool ok, const char* invariant, std::string detail) {
  ++checks_;
  if (!ok) fail(invariant, std::move(detail));
}

std::string Oracle::report() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += "t=" + std::to_string(v.t_s) + " " + v.invariant + ": " +
           v.detail + "\n";
  }
  if (violation_count_ > violations_.size()) {
    out += "(+" + u64(violation_count_ - violations_.size()) +
           " further violations not retained)\n";
  }
  return out;
}

void Oracle::on_trace_event(const trace::Event& e) {
  expect(e.t >= last_event_t_, "trace.time_monotonic",
         "event at t=" + i64(e.t) + " after t=" + i64(last_event_t_));
  last_event_t_ = e.t;

  switch (e.kind) {
    case trace::Kind::kCwnd:
      expect(cwnd_bounds_ok(static_cast<std::uint64_t>(e.i0),
                            static_cast<std::uint64_t>(e.i1), cfg_.mss,
                            cfg_.max_cwnd),
             "tcp.cwnd_bounds",
             "flow=" + u64(e.id) + " cwnd=" + i64(e.i0) +
                 " ssthresh=" + i64(e.i1));
      break;
    case trace::Kind::kTcpState:
      expect(tcp_transition_ok(e.label, e.label2), "tcp.state_transition",
             "flow=" + u64(e.id) + " " +
                 (e.label != nullptr ? e.label : "?") + " -> " +
                 (e.label2 != nullptr ? e.label2 : "?"));
      break;
    case trace::Kind::kSrtt:
      expect(e.i0 >= 0 && e.i1 > 0, "tcp.rtt_sane",
             "flow=" + u64(e.id) + " srtt_ns=" + i64(e.i0) +
                 " rto_ns=" + i64(e.i1));
      break;
    case trace::Kind::kSchedPick:
      expect(e.i1 > 0, "sched.pick_nonempty",
             "subflow=" + u64(e.id) + " len=" + i64(e.i1));
      break;
    case trace::Kind::kModeChange:
      expect(mode_transition_ok(e.label, e.label2, cfg_.allow_cell_only),
             "mode.transition",
             std::string(e.label != nullptr ? e.label : "?") + " -> " +
                 (e.label2 != nullptr ? e.label2 : "?"));
      break;
    case trace::Kind::kEnergySample:
      expect(e.d0 >= 0.0 && e.d1 >= 0.0, "energy.sample_nonnegative",
             std::string(e.label != nullptr ? e.label : "?") +
                 " mbps=" + std::to_string(e.d0) +
                 " power_mw=" + std::to_string(e.d1));
      break;
    case trace::Kind::kFlowStart:
      expect(e.i0 >= 0, "flow.start_bytes_nonnegative",
             "flow=" + u64(e.id) + " bytes=" + i64(e.i0));
      break;
    case trace::Kind::kFlowComplete:
      expect(e.i0 >= 0 && e.d0 >= 0.0 && e.d1 >= 0.0, "flow.complete_sane",
             "flow=" + u64(e.id) + " bytes=" + i64(e.i0) +
                 " fct_s=" + std::to_string(e.d0) +
                 " energy_j=" + std::to_string(e.d1));
      break;
    case trace::Kind::kWarning:
      expect(false, "trace.warning",
             std::string(e.label != nullptr ? e.label : "?") +
                 " v0=" + i64(e.i0) + " v1=" + i64(e.i1));
      break;
    default:
      break;
  }
}

void Oracle::on_tcp_ack(const TcpAckView& v) {
  for (const std::uint64_t x : {v.snd_una, v.sacked, v.lost, v.cwnd}) {
    for (int byte = 0; byte < 8; ++byte) {
      tcp_ack_digest_ ^= (x >> (8 * byte)) & 0xFFu;
      tcp_ack_digest_ *= 0x100000001B3ULL;
    }
  }
  expect(v.snd_una <= v.snd_nxt, "tcp.seq_order",
         "port=" + u64(v.local_port) + " snd_una=" + u64(v.snd_una) +
             " snd_nxt=" + u64(v.snd_nxt));
  expect(v.sacked + v.lost <= v.in_flight, "tcp.pipe_nonnegative",
         "port=" + u64(v.local_port) + " sacked=" + u64(v.sacked) +
             " lost=" + u64(v.lost) + " in_flight=" + u64(v.in_flight));
  expect(v.cwnd >= cfg_.mss, "tcp.cwnd_floor",
         "port=" + u64(v.local_port) + " cwnd=" + u64(v.cwnd));
}

void Oracle::on_tcp_rx(std::uint64_t received, std::uint64_t rcv_cumulative,
                       std::uint32_t local_port) {
  // Application data starts at sequence 1, so exactly-once in-order
  // delivery through IntervalReassembly means the delivered-byte count and
  // the cumulative point move in lockstep. Double delivery (or a skipped
  // range) breaks the identity immediately.
  expect(received == rcv_cumulative - 1, "tcp.exactly_once_delivery",
         "port=" + u64(local_port) + " received=" + u64(received) +
             " cumulative=" + u64(rcv_cumulative));
}

void Oracle::on_dss_assign(const DssAssign& a) {
  expect(a.len > 0, "dss.assign_nonempty",
         "subflow=" + u64(a.subflow_id) + " data_seq=" + u64(a.data_seq));
  expect(a.sf_usable, "sched.subflow_usable",
         "subflow=" + u64(a.subflow_id) + " picked while not usable");
  expect(!(a.sf_backup && a.other_regular_usable), "sched.backup_suppressed",
         "subflow=" + u64(a.subflow_id) +
             " is backup but a regular subflow is usable");

  // The frontier starts at the first fresh assignment seen (the oracle may
  // attach after a connection began striping); from then on fresh chunks
  // must extend it exactly and reinjections must stay below it. A
  // first-seen reinjection has no frontier to judge against.
  auto it = dss_frontier_.find(a.conn);
  if (it == dss_frontier_.end()) {
    if (a.fresh) dss_frontier_.emplace(a.conn, a.data_seq + a.len);
    return;
  }
  if (a.fresh) {
    expect(a.data_seq == it->second, "dss.fresh_contiguous",
           "data_seq=" + u64(a.data_seq) + " frontier=" + u64(it->second));
    it->second = a.data_seq + a.len;
  } else {
    expect(a.data_seq + a.len <= it->second, "dss.reinject_below_frontier",
           "data_seq=" + u64(a.data_seq) + " len=" + u64(a.len) +
               " frontier=" + u64(it->second));
  }
}

void Oracle::on_macro_advance(const void* conn, std::uint64_t data_seq,
                              std::uint64_t len) {
  expect(len > 0, "macro.advance_nonempty", "data_seq=" + u64(data_seq));
  // A macro-step is an aggregated fresh assignment: it must extend the
  // fresh frontier exactly (and advances it, so packet-level striping that
  // resumes after the fluid interval is still judged contiguous).
  auto it = dss_frontier_.find(conn);
  if (it == dss_frontier_.end()) {
    dss_frontier_.emplace(conn, data_seq + len);
    return;
  }
  expect(data_seq == it->second, "macro.fresh_contiguous",
         "data_seq=" + u64(data_seq) + " frontier=" + u64(it->second));
  it->second = data_seq + len;
}

void Oracle::on_lia_increase(const LiaSample& s) {
  expect(lia_increase_within_bound(s), "lia.increase_bound",
         "acked=" + u64(s.acked_bytes) + " mss=" + u64(s.mss) +
             " own=" + u64(s.own_cwnd) + " total=" + u64(s.total_cwnd) +
             " alpha=" + std::to_string(s.alpha) +
             " inc=" + u64(s.increase));
  expect(s.alpha >= 0.0, "lia.alpha_nonnegative",
         "alpha=" + std::to_string(s.alpha));
}

}  // namespace emptcp::check
