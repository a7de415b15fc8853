#include "tcp/tcp_socket.hpp"

#include <algorithm>

#include "check/mutation.hpp"
#include "check/oracle.hpp"
#include "trace/trace.hpp"

namespace emptcp::tcp {

const char* to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait: return "FIN_WAIT";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kDone: return "DONE";
  }
  return "?";
}

TcpSocket::TcpSocket(sim::Simulation& sim, net::Node& node, Config cfg)
    : sim_(sim),
      node_(node),
      cfg_(cfg),
      cc_(std::make_unique<RenoCongestionControl>(cfg.cc)),
      rtt_(cfg.rtt),
      rto_timer_(sim.scheduler(), [this] { on_rto(); }),
      ctr_retransmits_(&sim.trace().metrics().counter("tcp.retransmits")),
      ctr_rtos_(&sim.trace().metrics().counter("tcp.rtos")),
      ctr_fast_recoveries_(
          &sim.trace().metrics().counter("tcp.fast_recoveries")),
      hooks_(&sim::hooks(sim)) {}

void TcpSocket::transition(TcpState next) {
  EMPTCP_TRACE(sim_, tcp_state(sim_.now(), key_.local_port,
                               to_string(state_), to_string(next)));
  state_ = next;
}

void TcpSocket::trace_cwnd() {
  EMPTCP_TRACE(sim_, cwnd(sim_.now(), key_.local_port, cc_->cwnd(),
                          cc_->ssthresh()));
}

void TcpSocket::trace_srtt() {
  EMPTCP_TRACE(sim_,
               srtt(sim_.now(), key_.local_port, rtt_.srtt(), rtt_.rto()));
}

TcpSocket::~TcpSocket() {
  if (flow_registered_) node_.unregister_flow(key_);
}

void TcpSocket::set_congestion_control(
    std::unique_ptr<CongestionControl> cc) {
  const bool validation = cc_->cwnd_validation();
  cc_ = std::move(cc);
  cc_->set_cwnd_validation(validation);
}

void TcpSocket::register_flow() {
  node_.register_flow(key_, [this](const net::Packet& p) { on_receive(p); });
  flow_registered_ = true;
}

void TcpSocket::connect(net::Addr local, net::Port local_port,
                        net::Addr remote, net::Port remote_port,
                        bool mp_capable, bool mp_join) {
  key_ = net::FlowKey{local, local_port, remote, remote_port};
  mp_capable_ = mp_capable;
  mp_join_ = mp_join;
  register_flow();
  transition(TcpState::kSynSent);
  syn_sent_at_ = sim_.now();

  net::Packet syn;
  syn.src = key_.local_addr;
  syn.dst = key_.remote_addr;
  syn.sport = key_.local_port;
  syn.dport = key_.remote_port;
  syn.seq = 0;
  syn.syn = true;
  syn.mp_capable = mp_capable_;
  syn.mp_join = mp_join_;
  syn.mp_token = mp_token_;
  syn.mp_backup = mp_backup_;
  syn.app_tag = app_tag_;
  node_.send(syn);
  rto_timer_.arm_in(rtt_.rto());
}

std::unique_ptr<TcpSocket> TcpSocket::accept(sim::Simulation& sim,
                                             net::Node& node, Config cfg,
                                             const net::Packet& syn) {
  auto sock = std::make_unique<TcpSocket>(sim, node, cfg);
  sock->key_ = syn.flow_at_receiver();
  sock->register_flow();
  sock->transition(TcpState::kSynReceived);
  sock->syn_sent_at_ = sim.now();

  net::Packet synack;
  synack.src = sock->key_.local_addr;
  synack.dst = sock->key_.remote_addr;
  synack.sport = sock->key_.local_port;
  synack.dport = sock->key_.remote_port;
  synack.seq = 0;
  synack.syn = true;
  synack.is_ack = true;
  synack.ack = 1;
  node.send(synack);
  sock->rto_timer_.arm_in(sock->rtt_.rto());
  return sock;
}

void TcpSocket::send_app_data(std::uint64_t bytes) {
  app_bytes_queued_ += bytes;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    try_send();
  }
}

void TcpSocket::shutdown_write() {
  if (fin_queued_) return;
  fin_queued_ = true;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    try_send();
  }
}

void TcpSocket::abort() {
  if (state_ == TcpState::kDone) return;
  finish(/*failed=*/true);
}

void TcpSocket::send_mp_prio(bool backup) {
  announced_prio_ = backup;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait ||
      state_ == TcpState::kFinWait) {
    send_pure_ack();  // flushes the option immediately
  }
}

bool TcpSocket::can_macro_step() const {
  if (state_ != TcpState::kEstablished) return false;
  if (failed_) return false;
  if (fin_queued_ || fin_sent_ || fin_rcv_seq_.has_value()) return false;
  if (rcv_.has_gaps()) return false;
  if (check::active_mutation() == check::Mutation::kMacroQuiescenceBlind) {
    // Injected fault: skip every in-flight/loss term below. The property
    // tests must catch this (a flow with outstanding or marked-lost data
    // would be declared quiescent).
    return true;
  }
  if (!retx_.empty() || bytes_in_flight() != 0) return false;
  if (in_recovery_ || dupacks_ != 0) return false;
  if (sacked_bytes_ != 0 || lost_bytes_ != 0) return false;
  if (rto_timer_.armed()) return false;
  return true;
}

void TcpSocket::macro_advance_sender(std::uint64_t bytes,
                                     std::uint64_t cwnd_cap) {
  snd_nxt_ += bytes;
  snd_una_ = snd_nxt_;
  app_bytes_sent_ += bytes;
  app_bytes_acked_ += bytes;
  // Keeps RFC 2861 idle detection from collapsing cwnd on packet-level
  // resume: the flow was never idle, its events were just aggregated.
  last_send_ = sim_.now();
  cc_->macro_advance(bytes, cwnd_cap);
  trace_cwnd();
  if (check::Oracle* oracle = hooks_->oracle) {
    oracle->on_tcp_ack({snd_una_, snd_nxt_, bytes_in_flight(), sacked_bytes_,
                        lost_bytes_, cc_->cwnd(), key_.local_port});
  }
}

void TcpSocket::macro_advance_receiver(std::uint64_t bytes) {
  const std::uint64_t newly = rcv_.insert(rcv_.cumulative(), bytes);
  app_bytes_received_ += newly;
  if (check::Oracle* oracle = hooks_->oracle) {
    oracle->on_tcp_rx(app_bytes_received_, rcv_.cumulative(),
                      key_.local_port);
  }
}

std::uint64_t TcpSocket::rcv_ack_point() const {
  return rcv_.cumulative() + (fin_consumed_ ? 1 : 0);
}

void TcpSocket::on_receive(const net::Packet& pkt) {
  if (state_ == TcpState::kDone || state_ == TcpState::kClosed) return;
  if (cb_.on_packet) cb_.on_packet(pkt);
  if (pkt.rst) {
    finish(/*failed=*/true, /*send_rst=*/false);
    return;
  }

  switch (state_) {
    case TcpState::kSynSent:
      if (pkt.syn && pkt.is_ack && pkt.ack >= 1) handle_synack(pkt);
      return;
    case TcpState::kSynReceived:
      if (pkt.syn && !pkt.is_ack) {
        // Duplicate SYN: our SYN-ACK was lost; resend it.
        handle_syn(pkt);
        return;
      }
      if (pkt.is_ack && pkt.ack >= 1) {
        handshake_rtt_ = sim_.now() - syn_sent_at_;
        rtt_.add_sample(handshake_rtt_);
        trace_srtt();
        enter_established();
        // Fall through to normal processing of any piggybacked content.
        break;
      }
      return;
    default:
      break;
  }

  if (pkt.syn) {
    // A retransmitted SYN-ACK means our handshake ACK was lost and the
    // peer is stuck in SYN-RECEIVED: acknowledge again.
    if (pkt.is_ack) send_pure_ack();
    return;
  }

  if (pkt.is_ack) process_ack(pkt);
  if (pkt.payload > 0 || pkt.fin) process_payload(pkt);
}

void TcpSocket::handle_syn(const net::Packet&) {
  net::Packet synack;
  synack.src = key_.local_addr;
  synack.dst = key_.remote_addr;
  synack.sport = key_.local_port;
  synack.dport = key_.remote_port;
  synack.seq = 0;
  synack.syn = true;
  synack.is_ack = true;
  synack.ack = 1;
  node_.send(synack);
}

void TcpSocket::handle_synack(const net::Packet&) {
  handshake_rtt_ = sim_.now() - syn_sent_at_;
  rtt_.add_sample(handshake_rtt_);
  trace_srtt();
  send_pure_ack();
  enter_established();
}

void TcpSocket::enter_established() {
  snd_una_ = 1;
  snd_nxt_ = 1;
  transition(TcpState::kEstablished);
  rto_timer_.cancel();
  last_send_ = sim_.now();
  if (cb_.on_connected) cb_.on_connected();
  try_send();
}

bool TcpSocket::apply_sack(const net::Packet& pkt) {
  if (pkt.sack.empty()) return false;
  // One merged walk: retx_ ascends by seq and the blocks ascend and are
  // disjoint (SackList's precondition), so the only block that can cover a
  // segment is the first one ending past the segment's start. Segments
  // below the first block's start cannot be covered; skip them by binary
  // search.
  const std::uint64_t first_start = pkt.sack[0].first;
  std::size_t lo = 0;
  std::size_t hi = retx_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (retx_[mid].seq < first_start) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const net::SackList::Block* block = pkt.sack.begin();
  const net::SackList::Block* const blocks_end = pkt.sack.end();
  bool changed = false;
  for (std::size_t i = lo; i < retx_.size(); ++i) {
    TxSegment& seg = retx_[i];
    while (block->second <= seg.seq) {
      if (++block == blocks_end) break;
    }
    if (block == blocks_end) break;  // past the last block's end
    if (seg.sacked) continue;
    const std::uint64_t end = seg.seq + seg.size();
    if (seg.seq < block->first || end > block->second) continue;
    seg.sacked = true;
    sacked_bytes_ += seg.size();
    if (seg.lost) {
      // A retransmission (or late original) arrived after all.
      seg.lost = false;
      lost_bytes_ -= seg.size();
    }
    high_sacked_ = std::max(high_sacked_, end);
    changed = true;
  }
  if (changed) mark_losses();
  return changed;
}

void TcpSocket::mark_losses() {
  const std::uint64_t threshold = 3ull * cc_->mss();
  // RACK-style guard: a segment (re)transmitted less than one smoothed RTT
  // ago may simply not have been acknowledged yet; don't re-mark it.
  const sim::Time fresh_after = sim_.now() - std::max<sim::Duration>(
                                                 rtt_.srtt(),
                                                 sim::milliseconds(10));
  for (TxSegment& seg : retx_) {
    const std::uint64_t end = seg.seq + seg.size();
    if (end + threshold > high_sacked_) break;  // no loss evidence beyond
    if (seg.sacked || seg.lost) continue;
    if (seg.sent_at > fresh_after) continue;  // still plausibly in flight
    seg.lost = true;
    lost_bytes_ += seg.size();
  }
}

void TcpSocket::enter_recovery() {
  in_recovery_ = true;
  ++recovery_epoch_;
  recover_point_ = snd_nxt_;
  cc_->on_loss_event();
  ctr_fast_recoveries_->add();
  trace_cwnd();
  // With few dupacks and nothing marked yet, the front segment is the
  // presumed hole (classic fast retransmit) — unless its last transmission
  // is fresher than an RTT.
  if (lost_bytes_ == 0 && !retx_.empty() && !retx_.front().sacked &&
      sim_.now() - retx_.front().sent_at >= rtt_.srtt()) {
    retx_.front().lost = true;
    lost_bytes_ += retx_.front().size();
  }
  retransmit_holes();
  try_send();
}

void TcpSocket::retransmit_holes() {
  if (lost_bytes_ == 0) return;  // common case: nothing marked
  for (TxSegment& seg : retx_) {
    if (lost_bytes_ == 0) break;
    if (pipe() >= cc_->cwnd()) break;
    if (!seg.lost || seg.sacked) continue;
    seg.lost = false;
    lost_bytes_ -= seg.size();
    seg.rtx_epoch = recovery_epoch_;
    send_segment(seg, /*retransmission=*/true);
  }
}

void TcpSocket::process_ack(const net::Packet& pkt) {
  const std::uint64_t ack = pkt.ack;
  if (ack > snd_nxt_) return;  // acks data we never sent; ignore

  const bool sack_advanced = apply_sack(pkt);

  if (ack > snd_una_) {
    const std::uint64_t acked = ack - snd_una_;
    snd_una_ = ack;
    dupacks_ = 0;
    consecutive_rtos_ = 0;

    // Retire covered segments; take an RTT sample per Karn's rule.
    std::uint64_t app_acked = 0;
    std::optional<sim::Time> sample_from;
    while (!retx_.empty()) {
      const TxSegment& seg = retx_.front();
      const std::uint64_t seg_end = seg.seq + seg.len + (seg.fin ? 1 : 0);
      if (seg_end > ack) break;
      app_acked += seg.len;
      if (seg.sacked) sacked_bytes_ -= seg.size();
      if (seg.lost) lost_bytes_ -= seg.size();
      if (!seg.retransmitted) sample_from = seg.sent_at;
      if (seg.fin) fin_acked_ = true;
      retx_.pop_front();
    }
    if (sample_from) {
      rtt_.add_sample(sim_.now() - *sample_from);
      trace_srtt();
    }

    if (in_recovery_ && ack >= recover_point_) in_recovery_ = false;
    if (!in_recovery_) {
      cc_->on_ack(acked);
      trace_cwnd();
    }
    retransmit_holes();  // fill any remaining marked holes first

    if (check::Oracle* oracle = hooks_->oracle) {
      oracle->on_tcp_ack({snd_una_, snd_nxt_, bytes_in_flight(),
                          sacked_bytes_, lost_bytes_, cc_->cwnd(),
                          key_.local_port});
    }

    if (app_acked > 0) {
      app_bytes_acked_ += app_acked;
      if (cb_.on_bytes_acked) cb_.on_bytes_acked(app_acked);
    }

    if (retx_.empty()) {
      rto_timer_.cancel();
    } else {
      arm_rto();
    }

    if (fin_acked_) {
      if (state_ == TcpState::kFinWait && fin_consumed_) {
        finish(false);
        return;
      }
      if (state_ == TcpState::kLastAck) {
        finish(false);
        return;
      }
    }
    try_send();
    return;
  }

  // Duplicate ACK: same cumulative point with data outstanding, carried by
  // a pure ACK or anything that conveyed new SACK information.
  if (ack == snd_una_ && bytes_in_flight() > 0 &&
      ((pkt.payload == 0 && !pkt.fin) || sack_advanced)) {
    ++dupacks_;
    if (!in_recovery_ &&
        (dupacks_ >= 3 ||
         sacked_bytes_ > 3ull * cc_->mss())) {
      enter_recovery();
    } else if (in_recovery_ && sack_advanced) {
      retransmit_holes();
      try_send();
    }
  }
}

void TcpSocket::process_payload(const net::Packet& pkt) {
  if (pkt.fin) fin_rcv_seq_ = pkt.seq + pkt.payload;

  if (pkt.payload > 0) {
    const std::uint64_t newly = rcv_.insert(pkt.seq, pkt.payload);
    if (newly > 0) {
      app_bytes_received_ += newly;
      if (cb_.on_data) cb_.on_data(newly);
    }
    if (check::Oracle* oracle = hooks_->oracle) {
      oracle->on_tcp_rx(app_bytes_received_, rcv_.cumulative(),
                        key_.local_port);
    }
  }

  if (fin_rcv_seq_ && !fin_consumed_ && rcv_.cumulative() == *fin_rcv_seq_) {
    fin_consumed_ = true;
    if (state_ == TcpState::kEstablished) transition(TcpState::kCloseWait);
    if (!eof_delivered_) {
      eof_delivered_ = true;
      if (cb_.on_eof) cb_.on_eof();
    }
  }

  // Acknowledge everything that carried sequence space.
  send_pure_ack();

  if (fin_consumed_ && fin_sent_ && fin_acked_) finish(false);
}

std::optional<TcpSocket::Chunk> TcpSocket::next_chunk(std::uint32_t max_len) {
  if (source_) return source_(max_len);
  const std::uint64_t remaining = app_bytes_queued_ - app_bytes_sent_;
  if (remaining == 0) return std::nullopt;
  Chunk c;
  c.len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(remaining, max_len));
  return c;
}

void TcpSocket::try_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;
  }

  // RFC 2861: restarting after an idle period — unless eMPTCP disabled
  // validation on this (resumed) subflow.
  if (retx_.empty() && last_send_ > 0) {
    cc_->on_idle_restart(sim_.now() - last_send_, rtt_.rto());
  }

  while (pipe() < cc_->cwnd()) {
    const std::uint64_t space = cc_->cwnd() - pipe();
    const auto max_len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(space, cc_->mss()));
    auto chunk = next_chunk(max_len);
    if (!chunk || chunk->len == 0) break;

    TxSegment seg;
    seg.seq = snd_nxt_;
    seg.len = chunk->len;
    seg.dss = chunk->dss;
    snd_nxt_ += seg.len;
    app_bytes_sent_ += seg.len;
    retx_.push_back(seg);
    send_segment(retx_.back(), /*retransmission=*/false);
  }

  maybe_send_fin();
}

void TcpSocket::maybe_send_fin() {
  if (!fin_queued_ || fin_sent_) return;
  // All internally queued data must be out; an external source signals
  // completion simply by the owner calling shutdown_write() after the last
  // byte was handed out.
  if (!source_ && app_bytes_sent_ < app_bytes_queued_) return;

  TxSegment seg;
  seg.seq = snd_nxt_;
  seg.fin = true;
  fin_seq_ = seg.seq;
  snd_nxt_ += 1;
  fin_sent_ = true;
  retx_.push_back(seg);
  send_segment(retx_.back(), /*retransmission=*/false);

  transition(state_ == TcpState::kCloseWait ? TcpState::kLastAck
                                            : TcpState::kFinWait);
}

void TcpSocket::send_segment(TxSegment& seg, bool retransmission) {
  net::Packet pkt;
  pkt.src = key_.local_addr;
  pkt.dst = key_.remote_addr;
  pkt.sport = key_.local_port;
  pkt.dport = key_.remote_port;
  pkt.seq = seg.seq;
  pkt.payload = seg.len;
  pkt.fin = seg.fin;
  pkt.is_ack = true;
  pkt.ack = rcv_ack_point();
  pkt.dss = seg.dss;
  fill_sack(pkt);
  attach_options(pkt);

  seg.sent_at = sim_.now();
  if (retransmission) {
    seg.retransmitted = true;
    ++retransmit_count_;
    ctr_retransmits_->add();
  }
  last_send_ = sim_.now();
  node_.send(pkt);
  if (!rto_timer_.armed()) arm_rto();
}

void TcpSocket::send_pure_ack() {
  net::Packet pkt;
  pkt.src = key_.local_addr;
  pkt.dst = key_.remote_addr;
  pkt.sport = key_.local_port;
  pkt.dport = key_.remote_port;
  pkt.seq = snd_nxt_;
  pkt.is_ack = true;
  pkt.ack = rcv_ack_point();
  fill_sack(pkt);
  attach_options(pkt);
  node_.send(pkt);
}

void TcpSocket::fill_sack(net::Packet& pkt) const {
  // SackList's fixed capacity *is* the kMaxSackBlocks bound; stop as soon
  // as it is reached rather than silently dropping later blocks.
  for (const auto& [start, end] : rcv_.intervals()) {
    if (pkt.sack.full()) break;
    pkt.sack.emplace_back(start, end);
  }
}

void TcpSocket::attach_options(net::Packet& pkt) {
  if (data_ack_) pkt.data_ack = data_ack_;
  if (data_fin_) pkt.data_fin = data_fin_;
  if (announced_prio_) pkt.mp_prio = net::MpPrio{*announced_prio_};
}

void TcpSocket::retransmit_front() {
  if (retx_.empty()) return;
  send_segment(retx_.front(), /*retransmission=*/true);
}

void TcpSocket::on_rto() {
  switch (state_) {
    case TcpState::kSynSent: {
      if (++syn_retries_ > cfg_.max_syn_retries) {
        finish(/*failed=*/true);
        return;
      }
      net::Packet syn;
      syn.src = key_.local_addr;
      syn.dst = key_.remote_addr;
      syn.sport = key_.local_port;
      syn.dport = key_.remote_port;
      syn.seq = 0;
      syn.syn = true;
      syn.mp_capable = mp_capable_;
      syn.mp_join = mp_join_;
      syn.mp_token = mp_token_;
  syn.mp_backup = mp_backup_;
  syn.app_tag = app_tag_;
      node_.send(syn);
      rtt_.backoff();
      rto_timer_.arm_in(rtt_.rto());
      return;
    }
    case TcpState::kSynReceived: {
      if (++syn_retries_ > cfg_.max_syn_retries) {
        finish(/*failed=*/true);
        return;
      }
      handle_syn(net::Packet{});
      rtt_.backoff();
      rto_timer_.arm_in(rtt_.rto());
      return;
    }
    default:
      break;
  }

  if (retx_.empty()) return;
  if (++consecutive_rtos_ > cfg_.max_data_rtos) {
    finish(/*failed=*/true);
    return;
  }
  cc_->on_timeout();
  ctr_rtos_->add();
  trace_cwnd();
  rtt_.backoff();
  in_recovery_ = false;
  dupacks_ = 0;
  // RFC 6675 after RTO: every outstanding unsacked segment is presumed
  // lost; retransmission restarts from the front under slow start.
  ++recovery_epoch_;
  for (TxSegment& seg : retx_) {
    if (!seg.sacked && !seg.lost) {
      seg.lost = true;
      lost_bytes_ += seg.size();
    }
  }
  retransmit_holes();
  rto_timer_.arm_in(rtt_.rto());
}

void TcpSocket::arm_rto() { rto_timer_.arm_in(rtt_.rto()); }

void TcpSocket::finish(bool failed, bool send_rst) {
  if (state_ == TcpState::kDone) return;
  const bool was_synced = state_ != TcpState::kClosed;
  transition(TcpState::kDone);
  failed_ = failed;
  if (failed && send_rst && was_synced) {
    // Tear the peer down too (the kernel resets a connection it gives up
    // on); this lets MPTCP reinject the dead subflow's data promptly.
    net::Packet rst;
    rst.src = key_.local_addr;
    rst.dst = key_.remote_addr;
    rst.sport = key_.local_port;
    rst.dport = key_.remote_port;
    rst.rst = true;
    node_.send(rst);
  }
  rto_timer_.cancel();
  if (flow_registered_) {
    node_.unregister_flow(key_);
    flow_registered_ = false;
  }
  if (cb_.on_closed) cb_.on_closed();
}

TcpListener::TcpListener(net::Node& node, net::Port port, Acceptor acceptor)
    : node_(node) {
  node_.listen(port, [acceptor = std::move(acceptor)](const net::Packet& syn) {
    acceptor(syn);
  });
}

}  // namespace emptcp::tcp
