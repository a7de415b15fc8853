// MptcpConnection: the meta-socket tying subflows into one data stream.
//
// This is the standard-MPTCP layer the paper's Figure 2 shows below the
// eMPTCP components. It implements:
//   * connection setup (MP_CAPABLE on the initial subflow, MP_JOIN with a
//     token for additional subflows),
//   * the data-level: a single data-sequence space striped over subflows by
//     the scheduler at transmission time (DSS mappings on segments,
//     DATA_ACKs on the reverse path), with reinjection of chunks stranded
//     on a failed subflow,
//   * RFC 6356 LIA coupled congestion control across subflows,
//   * MP_PRIO priority signalling — the mechanism eMPTCP actuates to
//     suspend and resume the cellular subflow (paper §3.6) — including the
//     sender-side resumed-subflow treatment: RFC 2861 cwnd-reset disabled
//     and SRTT zeroed so the min-RTT scheduler probes the subflow quickly,
//   * the three operating modes of §2.1 (Full-MPTCP / Single-Path / Backup).
//
// Data is counted bytes; applications exchange fixed-size requests and
// counted responses (see app/).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mptcp/coupled_cc.hpp"
#include "mptcp/scheduler.hpp"
#include "mptcp/subflow.hpp"
#include "net/node.hpp"
#include "sim/ring_deque.hpp"
#include "tcp/buffers.hpp"
#include "tcp/tcp_socket.hpp"

namespace emptcp::mptcp {

/// Operating modes (paper §2.1).
enum class Mode {
  kFullMptcp,   ///< use all interfaces
  kSinglePath,  ///< one subflow at a time; new one only if the active dies
  kBackup,      ///< subflows on all interfaces, some flagged backup
};

const char* to_string(Mode m);

class MptcpConnection {
 public:
  struct Config {
    tcp::TcpSocket::Config subflow;
    bool coupled_cc = true;
    Mode mode = Mode::kFullMptcp;
    /// Classifies a peer address into the interface type of the path it
    /// belongs to (lets the server name subflows "wifi"/"lte" for logging
    /// and lets tests assert per-path behaviour). Optional.
    std::function<net::InterfaceType(net::Addr)> classify_peer;
    /// Disable the §3.6 sender-side resumed-subflow treatment (ablation).
    bool resume_tweaks = true;
  };

  struct Callbacks {
    std::function<void()> on_established;  ///< first subflow completed
    /// Fresh in-order connection-level bytes available to the application.
    std::function<void(std::uint64_t newly)> on_data;
    /// Connection-level send progress: `newly` more bytes DATA_ACKed.
    std::function<void(std::uint64_t newly)> on_data_acked;
    std::function<void()> on_eof;     ///< peer closed its write side
    std::function<void()> on_closed;  ///< all subflows fully closed
    std::function<void(Subflow&)> on_subflow_established;
    /// Remote MP_PRIO processed for `sf` (new backup state given).
    std::function<void(Subflow&, bool backup)> on_subflow_priority;
  };

  MptcpConnection(sim::Simulation& sim, net::Node& node, Config cfg);
  ~MptcpConnection();

  MptcpConnection(const MptcpConnection&) = delete;
  MptcpConnection& operator=(const MptcpConnection&) = delete;

  void set_callbacks(Callbacks cb) { cb_ = std::move(cb); }

  /// Application tag announced on the initial SYN (see Packet::app_tag).
  /// Set before connect(); the passive side reads it via app_tag().
  void set_app_tag(std::uint32_t tag) { app_tag_ = tag; }
  [[nodiscard]] std::uint32_t app_tag() const { return app_tag_; }

  /// Client: opens the initial subflow from `local` (the default primary
  /// interface — WiFi in all paper scenarios, §3.6).
  void connect(net::Addr local, net::Addr remote, net::Port remote_port);

  /// Client: establishes an additional subflow from another local address
  /// (MP_JOIN). `backup` sets the MP_JOIN B-bit so the peer never assigns
  /// the subflow fresh data (Backup mode / WiFi-First start this way; in
  /// Mode::kBackup non-WiFi subflows are forced to backup). Returns the
  /// new subflow, or nullptr if refused (e.g. a subflow on that address
  /// already exists, or Single-Path mode).
  Subflow* add_subflow(net::Addr local, bool backup = false);

  /// Server: builds a connection from a received MP_CAPABLE SYN.
  static std::unique_ptr<MptcpConnection> accept(sim::Simulation& sim,
                                                 net::Node& node, Config cfg,
                                                 const net::Packet& syn);

  /// Server: attaches an MP_JOIN SYN to this connection.
  void accept_join(const net::Packet& syn);

  /// Queues `bytes` of application data onto the connection.
  void send(std::uint64_t bytes);

  /// Half-closes the write side once all queued data is delivered and
  /// acknowledged at the data level.
  void shutdown_write();

  /// Requests an MP_PRIO change on `sf`: the option is sent to the peer and
  /// the local scheduler honours it immediately.
  void request_priority(Subflow& sf, bool backup);

  /// Interface-down notification (the kernel's NETDEV_DOWN handling):
  /// every subflow on the interface is reset and its outstanding data
  /// reinjected onto the survivors. This is what lets Single-Path mode
  /// replace its subflow and WiFi-First fail over on association loss.
  void handle_interface_down(net::InterfaceType type);

  // --- Introspection ----------------------------------------------------
  [[nodiscard]] const std::vector<Subflow*>& subflows() const {
    return subflow_view_;
  }
  [[nodiscard]] Subflow* subflow_on(net::InterfaceType t);
  [[nodiscard]] bool established() const { return established_reported_; }
  [[nodiscard]] bool eof() const { return eof_reported_; }
  [[nodiscard]] bool closed() const { return closed_reported_; }
  [[nodiscard]] std::uint64_t token() const { return token_; }
  [[nodiscard]] std::uint64_t data_bytes_received() const {
    return data_rcv_.cumulative() - 1;
  }
  [[nodiscard]] std::uint64_t data_bytes_acked() const {
    return data_snd_una_ - 1;
  }
  [[nodiscard]] std::uint64_t bytes_queued() const { return app_queued_; }
  [[nodiscard]] net::Node& node() { return node_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] bool is_server() const { return is_server_; }

  // --- Macro-step interface (hybrid fidelity; see DESIGN.md §13) --------
  /// Connection-level bytes queued but not yet assigned to any subflow —
  /// what the fast path may advance analytically.
  [[nodiscard]] std::uint64_t macro_pending_bytes() const {
    return data_end_ - data_next_seq_;
  }
  [[nodiscard]] bool tx_paused() const { return tx_paused_; }
  /// Freezes packet-level assignment of fresh data (pull_chunk returns
  /// nothing) so in-flight data drains before analytic advancement begins.
  /// Unpausing pokes the subflows so transmission resumes immediately.
  void set_tx_paused(bool paused);
  /// Sender-side quiescence: established, nothing reinjecting, everything
  /// assigned is DATA_ACKed, and every live subflow socket individually
  /// quiescent with no outstanding chunks. fin_pending_ is tolerated — a
  /// server queues its FIN at response time, but it cannot be sent while
  /// unassigned data remains, and the fast path always leaves a
  /// packet-level tail so the close handshake runs at full fidelity.
  [[nodiscard]] bool can_macro_step_send() const;
  /// Receiver-side mirror: no reassembly gap at the data level, no
  /// DATA_FIN seen, every live subflow socket quiescent.
  [[nodiscard]] bool can_macro_step_recv() const;
  /// Analytically assigns-and-acknowledges `bytes` of fresh data on the
  /// subflow riding `iface`: advances the data-level sequence space and the
  /// subflow socket together, leaving nothing in flight. Caller must hold
  /// can_macro_step_send() and advance the peer's receive side by the same
  /// bytes on the same interface type.
  void macro_advance_send(net::InterfaceType iface, std::uint64_t bytes,
                          std::uint64_t cwnd_cap);
  void macro_advance_recv(net::InterfaceType iface, std::uint64_t bytes);

 private:
  Subflow& create_subflow(std::unique_ptr<tcp::TcpSocket> socket,
                          net::InterfaceType iface);
  std::optional<tcp::TcpSocket::Chunk> pull_chunk(Subflow& sf,
                                                  std::uint32_t max_len);
  void on_subflow_packet(Subflow& sf, const net::Packet& pkt);
  void on_subflow_established_cb(Subflow& sf);
  void on_subflow_eof(Subflow& sf);
  void on_subflow_closed(Subflow& sf);
  void poke_subflows();
  void maybe_send_fins();
  void check_eof();
  void check_closed();
  /// Tells the fast path (when attached) that this connection saw a
  /// transient and must drop out of any analytic advancement.
  void notify_transient();
  static std::uint64_t next_token();

  sim::Simulation& sim_;
  net::Node& node_;
  Config cfg_;
  Callbacks cb_;
  std::unique_ptr<SubflowScheduler> scheduler_;
  LiaState lia_;
  trace::Counter* ctr_reinjected_ = nullptr;  ///< reinjected data chunks
  /// Oracle and fast-path attachment point (see sim/hooks.hpp).
  sim::Hooks* hooks_ = nullptr;
  std::vector<std::unique_ptr<Subflow>> subflows_;
  /// Raw-pointer view of `subflows_`, maintained alongside it so the hot
  /// scheduling paths never materialise a fresh vector.
  std::vector<Subflow*> subflow_view_;
  /// Recycled buffer for scheduler preference orders (see poke_subflows).
  std::vector<Subflow*> prefs_scratch_;
  std::vector<tcp::CongestionControl*> subflow_cc_;  ///< parallel to subflows_
  std::uint64_t token_ = 0;
  std::uint32_t app_tag_ = 0;
  net::Addr remote_addr_ = net::kAddrInvalid;
  net::Port remote_port_ = 0;
  bool is_server_ = false;

  // Send side (connection-level data sequence space; byte 0 unused so that
  // "cumulative == 1" means nothing received, mirroring subflow numbering).
  std::uint64_t data_next_seq_ = 1;
  std::uint64_t data_end_ = 1;
  std::uint64_t app_queued_ = 0;
  std::uint64_t data_snd_una_ = 1;
  sim::RingDeque<DataChunk> reinject_;
  bool fin_pending_ = false;
  bool subflow_fins_sent_ = false;
  bool tx_paused_ = false;  ///< fast path froze fresh assignment

  // Receive side.
  tcp::IntervalReassembly data_rcv_{1};
  std::optional<std::uint64_t> data_fin_rcv_;

  bool established_reported_ = false;
  bool eof_reported_ = false;
  bool closed_reported_ = false;
};

/// Server-side acceptor: listens on a port, builds an MptcpConnection per
/// MP_CAPABLE SYN, and routes MP_JOINs to the right connection by token.
/// Plain (non-MPTCP) client SYNs become single-subflow connections, which
/// is also how the TCP-over-WiFi baseline server works.
class MptcpListener {
 public:
  using OnAccept = std::function<void(MptcpConnection&)>;

  MptcpListener(sim::Simulation& sim, net::Node& node, net::Port port,
                MptcpConnection::Config cfg, OnAccept on_accept);

  [[nodiscard]] std::size_t connection_count() const {
    return connections_.size();
  }

 private:
  void on_syn(const net::Packet& syn);

  sim::Simulation& sim_;
  net::Node& node_;
  MptcpConnection::Config cfg_;
  OnAccept on_accept_;
  std::vector<std::unique_ptr<MptcpConnection>> connections_;
  std::unordered_map<std::uint64_t, MptcpConnection*> by_token_;
};

}  // namespace emptcp::mptcp
