#include "mptcp/meta_socket.hpp"

#include <algorithm>
#include <atomic>

#include "check/oracle.hpp"
#include "mptcp/fastpath_listener.hpp"
#include "trace/trace.hpp"

namespace emptcp::mptcp {

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kFullMptcp: return "full-mptcp";
    case Mode::kSinglePath: return "single-path";
    case Mode::kBackup: return "backup";
  }
  return "?";
}

std::uint64_t MptcpConnection::next_token() {
  // Atomic so concurrent replications (runtime::run_replications) mint
  // distinct tokens; behaviour depends only on uniqueness, not the value.
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

MptcpConnection::MptcpConnection(sim::Simulation& sim, net::Node& node,
                                 Config cfg)
    : sim_(sim),
      node_(node),
      cfg_(std::move(cfg)),
      scheduler_(std::make_unique<MinRttScheduler>()),
      ctr_reinjected_(
          &sim.trace().metrics().counter("mptcp.reinjected_chunks")),
      hooks_(&sim::hooks(sim)) {}

MptcpConnection::~MptcpConnection() {
  if (hooks_->fast_path != nullptr) hooks_->fast_path->on_conn_destroyed(*this);
}

void MptcpConnection::notify_transient() {
  if (hooks_->fast_path != nullptr) hooks_->fast_path->on_conn_transient(*this);
}

void MptcpConnection::connect(net::Addr local, net::Addr remote,
                              net::Port remote_port) {
  token_ = next_token();
  remote_addr_ = remote;
  remote_port_ = remote_port;

  auto socket = std::make_unique<tcp::TcpSocket>(sim_, node_, cfg_.subflow);
  socket->set_mp_token(token_);
  socket->set_app_tag(app_tag_);
  const net::Port local_port = node_.allocate_port();
  const net::InterfaceType iface = node_.interface_for(local).type();
  tcp::TcpSocket* raw = socket.get();
  create_subflow(std::move(socket), iface);
  raw->connect(local, local_port, remote, remote_port,
               /*mp_capable=*/true, /*mp_join=*/false);
}

Subflow* MptcpConnection::add_subflow(net::Addr local, bool backup) {
  if (is_server_) return nullptr;
  notify_transient();  // the subflow set is changing
  const net::InterfaceType iface = node_.interface_for(local).type();
  if (subflow_on(iface) != nullptr && subflow_on(iface)->usable()) {
    return nullptr;  // already have a live subflow on this interface
  }
  if (cfg_.mode == Mode::kSinglePath) {
    const bool any_usable =
        std::any_of(subflows_.begin(), subflows_.end(),
                    [](const auto& sf) { return sf->usable(); });
    if (any_usable) return nullptr;
  }
  if (cfg_.mode == Mode::kBackup && iface != net::InterfaceType::kWifi) {
    backup = true;  // paper §2.1: non-primary interfaces stay in backup
  }

  auto socket = std::make_unique<tcp::TcpSocket>(sim_, node_, cfg_.subflow);
  socket->set_mp_token(token_);
  socket->set_mp_backup_flag(backup);
  const net::Port local_port = node_.allocate_port();
  tcp::TcpSocket* raw = socket.get();
  Subflow& sf = create_subflow(std::move(socket), iface);
  sf.set_backup(backup);
  raw->connect(local, local_port, remote_addr_, remote_port_,
               /*mp_capable=*/false, /*mp_join=*/true);
  return &sf;
}

std::unique_ptr<MptcpConnection> MptcpConnection::accept(
    sim::Simulation& sim, net::Node& node, Config cfg,
    const net::Packet& syn) {
  auto conn = std::make_unique<MptcpConnection>(sim, node, std::move(cfg));
  conn->is_server_ = true;
  conn->token_ = syn.mp_token;
  conn->app_tag_ = syn.app_tag;
  conn->remote_addr_ = syn.src;
  conn->remote_port_ = syn.sport;
  auto socket =
      tcp::TcpSocket::accept(sim, node, conn->cfg_.subflow, syn);
  const net::InterfaceType iface = conn->cfg_.classify_peer
                                       ? conn->cfg_.classify_peer(syn.src)
                                       : net::InterfaceType::kEthernet;
  // The socket is already live (SYN-ACK sent); wire it into the subflow
  // before any further packet can arrive.
  conn->create_subflow(std::move(socket), iface);
  return conn;
}

void MptcpConnection::accept_join(const net::Packet& syn) {
  auto socket = tcp::TcpSocket::accept(sim_, node_, cfg_.subflow, syn);
  const net::InterfaceType iface = cfg_.classify_peer
                                       ? cfg_.classify_peer(syn.src)
                                       : net::InterfaceType::kEthernet;
  Subflow& sf = create_subflow(std::move(socket), iface);
  if (syn.mp_backup) sf.set_backup(true);
}

Subflow& MptcpConnection::create_subflow(
    std::unique_ptr<tcp::TcpSocket> socket, net::InterfaceType iface) {
  tcp::TcpSocket* sock = socket.get();

  tcp::CongestionControl* coupled = nullptr;
  if (cfg_.coupled_cc) {
    auto cc = std::make_unique<LiaCoupledCc>(cfg_.subflow.cc, lia_);
    cc->set_hooks(hooks_);
    coupled = cc.get();
    sock->set_congestion_control(std::move(cc));
    lia_.add_member({static_cast<LiaCoupledCc*>(coupled),
                     [sock] { return sock->srtt(); }});
  }
  subflow_cc_.push_back(coupled);

  auto sf = std::make_unique<Subflow>(subflows_.size(), iface,
                                      std::move(socket));
  Subflow* raw = sf.get();
  subflows_.push_back(std::move(sf));
  subflow_view_.push_back(raw);

  sock->set_data_ack(data_rcv_.cumulative());
  sock->set_segment_source(
      [this, raw](std::uint32_t max_len) { return pull_chunk(*raw, max_len); });

  tcp::TcpSocket::Callbacks cb;
  cb.on_connected = [this, raw] { on_subflow_established_cb(*raw); };
  cb.on_packet = [this, raw](const net::Packet& p) {
    on_subflow_packet(*raw, p);
  };
  cb.on_eof = [this, raw] { on_subflow_eof(*raw); };
  cb.on_closed = [this, raw] { on_subflow_closed(*raw); };
  sock->set_callbacks(std::move(cb));
  return *raw;
}

Subflow* MptcpConnection::subflow_on(net::InterfaceType t) {
  // Latest subflow on the interface wins (an earlier one may have failed).
  Subflow* found = nullptr;
  for (auto& sf : subflows_) {
    if (sf->iface() == t) found = sf.get();
  }
  return found;
}

void MptcpConnection::send(std::uint64_t bytes) {
  app_queued_ += bytes;
  data_end_ += bytes;
  notify_transient();  // app write: re-measure before advancing again
  poke_subflows();
}

void MptcpConnection::shutdown_write() {
  fin_pending_ = true;
  notify_transient();  // app close: the stream end is now known
  maybe_send_fins();
}

void MptcpConnection::request_priority(Subflow& sf, bool backup) {
  if (sf.backup() == backup) return;
  notify_transient();  // MP_PRIO changes which paths carry data
  sf.set_backup(backup);
  sf.socket().send_mp_prio(backup);
  EMPTCP_TRACE(sim_, mp_prio(sim_.now(), static_cast<std::uint32_t>(sf.id()),
                             net::to_string(sf.iface()), backup, "local"));
  if (!backup) poke_subflows();
}

void MptcpConnection::handle_interface_down(net::InterfaceType type) {
  for (auto& sf : subflows_) {
    if (sf->iface() == type && sf->usable()) {
      sf->socket().abort();  // on_closed marks it failed and reinjects
    }
  }
}

std::optional<tcp::TcpSocket::Chunk> MptcpConnection::pull_chunk(
    Subflow& sf, std::uint32_t max_len) {
  if (tx_paused_) return std::nullopt;
  if (max_len == 0) return std::nullopt;
  if (!scheduler_->eligible(sf, subflows())) return std::nullopt;

  const bool fresh = reinject_.empty();
  DataChunk chunk;
  if (!reinject_.empty()) {
    DataChunk& front = reinject_.front();
    chunk.data_seq = front.data_seq;
    chunk.len = std::min(front.len, max_len);
    if (chunk.len == front.len) {
      reinject_.pop_front();
    } else {
      front.data_seq += chunk.len;
      front.len -= chunk.len;
    }
  } else {
    const std::uint64_t remaining = data_end_ - data_next_seq_;
    if (remaining == 0) return std::nullopt;
    chunk.data_seq = data_next_seq_;
    chunk.len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, max_len));
    data_next_seq_ += chunk.len;
  }

  sf.outstanding().push_back(chunk);
  if (check::Oracle* oracle = hooks_->oracle) {
    bool other_regular = false;
    for (const Subflow* other : subflow_view_) {
      if (other != &sf && other->usable() && !other->backup()) {
        other_regular = true;
        break;
      }
    }
    oracle->on_dss_assign({this, chunk.data_seq, chunk.len, fresh,
                           sf.usable(), sf.backup(), other_regular,
                           sf.id()});
  }
  EMPTCP_TRACE(sim_, sched_pick(sim_.now(),
                                static_cast<std::uint32_t>(sf.id()),
                                net::to_string(sf.iface()), chunk.data_seq,
                                chunk.len));
  tcp::TcpSocket::Chunk out;
  out.len = chunk.len;
  out.dss = net::DssMapping{chunk.data_seq, 0, chunk.len};
  return out;
}

void MptcpConnection::on_subflow_packet(Subflow& sf, const net::Packet& pkt) {
  // Receive side: map arriving payload into the data sequence space.
  if (pkt.dss && pkt.payload > 0) {
    const std::uint64_t newly = data_rcv_.insert(pkt.dss->data_seq,
                                                 pkt.dss->length);
    const std::uint64_t cum = data_rcv_.cumulative();
    for (auto& each : subflows_) each->socket().set_data_ack(cum);
    if (newly > 0 && cb_.on_data) cb_.on_data(newly);
  }

  // Send side: connection-level acknowledgement progress.
  if (pkt.data_ack && *pkt.data_ack > data_snd_una_) {
    const std::uint64_t newly = *pkt.data_ack - data_snd_una_;
    data_snd_una_ = *pkt.data_ack;
    for (auto& each : subflows_) each->prune_outstanding(data_snd_una_);
    if (cb_.on_data_acked) cb_.on_data_acked(newly);
    maybe_send_fins();
  }

  // Connection-level close: DATA_FIN tells us where the stream ends.
  if (pkt.data_fin && !data_fin_rcv_) {
    data_fin_rcv_ = *pkt.data_fin;
  }
  if (data_fin_rcv_) check_eof();

  // Priority signalling: the peer (de)prioritised this subflow. The
  // option repeats on every packet (loss robustness); act on changes only.
  if (pkt.mp_prio && pkt.mp_prio->backup != sf.backup()) {
    const bool backup = pkt.mp_prio->backup;
    const bool was_backup = sf.backup();
    notify_transient();  // which paths carry data is changing
    sf.set_backup(backup);
    EMPTCP_TRACE(sim_,
                 mp_prio(sim_.now(), static_cast<std::uint32_t>(sf.id()),
                         net::to_string(sf.iface()), backup, "peer"));
    if (was_backup && !backup && cfg_.resume_tweaks) {
      // Paper §3.6: a resumed subflow must ramp up quickly — disable the
      // RFC 2861 cwnd reset and zero the measured RTT so the scheduler
      // probes it first.
      sf.socket().set_cwnd_validation(false);
      sf.socket().reset_srtt_for_probe();
    }
    if (cb_.on_subflow_priority) cb_.on_subflow_priority(sf, backup);
    if (!backup) poke_subflows();
  }
}

void MptcpConnection::on_subflow_established_cb(Subflow& sf) {
  if (!established_reported_) {
    established_reported_ = true;
    if (hooks_->fast_path != nullptr) hooks_->fast_path->on_conn_established(*this);
    if (cb_.on_established) cb_.on_established();
  } else {
    notify_transient();  // an additional subflow joined the set
  }
  if (cb_.on_subflow_established) cb_.on_subflow_established(sf);
  if (subflow_fins_sent_) {
    // The connection is already closing; close late-arriving joins too.
    sf.socket().shutdown_write();
  }
  poke_subflows();
}

void MptcpConnection::on_subflow_eof(Subflow&) { check_eof(); }

void MptcpConnection::on_subflow_closed(Subflow& sf) {
  notify_transient();  // subflow set shrank (failure or orderly close)
  if (subflow_cc_[sf.id()] != nullptr) {
    lia_.remove_member(
        static_cast<LiaCoupledCc*>(subflow_cc_[sf.id()]));
    subflow_cc_[sf.id()] = nullptr;
  }
  if (sf.socket().failed()) {
    sf.mark_failed();
    // Reinject connection-level data stranded on the dead subflow.
    for (const DataChunk& c : sf.outstanding()) {
      if (c.data_seq + c.len > data_snd_una_) {
        reinject_.push_back(c);
        ctr_reinjected_->add();
      }
    }
    sf.outstanding().clear();
    poke_subflows();
  }
  check_eof();
  check_closed();
}

void MptcpConnection::poke_subflows() {
  // Borrow the recycled buffer for the duration of the poke: if a callback
  // re-enters poke_subflows, the inner call simply starts from an empty
  // (moved-from) scratch instead of clobbering this iteration.
  std::vector<Subflow*> order = std::move(prefs_scratch_);
  scheduler_->preference_order_into(subflows(), order);
  for (Subflow* sf : order) sf->socket().notify_data_available();
  prefs_scratch_ = std::move(order);
}

void MptcpConnection::maybe_send_fins() {
  if (!fin_pending_ || subflow_fins_sent_) return;
  const bool all_assigned = data_next_seq_ == data_end_ && reinject_.empty();
  const bool all_acked = data_snd_una_ >= data_end_;
  if (!all_assigned || !all_acked) return;
  subflow_fins_sent_ = true;
  for (auto& sf : subflows_) {
    if (!sf->failed()) {
      // The DATA_FIN rides on the subflow FINs (and any retransmissions),
      // so the peer learns where the data stream ends even if some other
      // subflow died without delivering its FIN.
      sf->socket().set_data_fin(data_end_);
      sf->socket().shutdown_write();
    }
  }
}

void MptcpConnection::check_eof() {
  if (eof_reported_ || subflows_.empty()) return;
  // Primary signal: DATA_FIN received and the data stream is complete.
  if (data_fin_rcv_ && data_rcv_.cumulative() >= *data_fin_rcv_) {
    eof_reported_ = true;
    if (cb_.on_eof) cb_.on_eof();
    return;
  }
  // Fallback: every subflow's read side finished (covers peers that close
  // a data-less connection).
  bool any_eof = false;
  for (auto& sf : subflows_) {
    if (sf->socket().eof_received()) {
      any_eof = true;
    } else if (!sf->failed()) {
      return;  // still an open read side
    }
  }
  if (!any_eof) return;
  eof_reported_ = true;
  if (cb_.on_eof) cb_.on_eof();
}

void MptcpConnection::set_tx_paused(bool paused) {
  if (tx_paused_ == paused) return;
  tx_paused_ = paused;
  if (!paused) poke_subflows();
}

bool MptcpConnection::can_macro_step_send() const {
  if (!established_reported_ || closed_reported_) return false;
  if (subflow_fins_sent_) return false;
  if (!reinject_.empty()) return false;
  if (data_snd_una_ != data_next_seq_) return false;
  for (const auto& sf : subflows_) {
    if (sf->failed()) continue;
    if (!sf->outstanding().empty()) return false;
    if (!sf->socket().can_macro_step()) return false;
  }
  return true;
}

bool MptcpConnection::can_macro_step_recv() const {
  if (!established_reported_ || closed_reported_) return false;
  if (data_rcv_.has_gaps()) return false;
  if (data_fin_rcv_.has_value() || eof_reported_) return false;
  for (const auto& sf : subflows_) {
    if (sf->failed()) continue;
    if (!sf->socket().can_macro_step()) return false;
  }
  return true;
}

void MptcpConnection::macro_advance_send(net::InterfaceType iface,
                                         std::uint64_t bytes,
                                         std::uint64_t cwnd_cap) {
  if (bytes == 0) return;
  Subflow* sf = subflow_on(iface);
  if (sf == nullptr) return;
  if (check::Oracle* oracle = hooks_->oracle) {
    oracle->on_macro_advance(this, data_next_seq_, bytes);
  }
  sf->socket().macro_advance_sender(bytes, cwnd_cap);
  data_next_seq_ += bytes;
  data_snd_una_ += bytes;
  if (cb_.on_data_acked) cb_.on_data_acked(bytes);
}

void MptcpConnection::macro_advance_recv(net::InterfaceType iface,
                                         std::uint64_t bytes) {
  if (bytes == 0) return;
  Subflow* sf = subflow_on(iface);
  if (sf == nullptr) return;
  sf->socket().macro_advance_receiver(bytes);
  const std::uint64_t newly = data_rcv_.insert(data_rcv_.cumulative(), bytes);
  const std::uint64_t cum = data_rcv_.cumulative();
  for (auto& each : subflows_) each->socket().set_data_ack(cum);
  if (newly > 0 && cb_.on_data) cb_.on_data(newly);
}

void MptcpConnection::check_closed() {
  if (closed_reported_ || subflows_.empty()) return;
  for (auto& sf : subflows_) {
    if (sf->socket().state() != tcp::TcpState::kDone) return;
  }
  closed_reported_ = true;
  if (cb_.on_closed) cb_.on_closed();
}

MptcpListener::MptcpListener(sim::Simulation& sim, net::Node& node,
                             net::Port port, MptcpConnection::Config cfg,
                             OnAccept on_accept)
    : sim_(sim),
      node_(node),
      cfg_(std::move(cfg)),
      on_accept_(std::move(on_accept)) {
  node_.listen(port, [this](const net::Packet& syn) { on_syn(syn); });
}

void MptcpListener::on_syn(const net::Packet& syn) {
  if (syn.mp_join) {
    if (auto it = by_token_.find(syn.mp_token); it != by_token_.end()) {
      it->second->accept_join(syn);
    }
    return;
  }
  auto conn = MptcpConnection::accept(sim_, node_, cfg_, syn);
  MptcpConnection* raw = conn.get();
  connections_.push_back(std::move(conn));
  if (syn.mp_capable && syn.mp_token != 0) by_token_[syn.mp_token] = raw;
  if (on_accept_) on_accept_(*raw);
}

}  // namespace emptcp::mptcp
