// A complete simulated TCP endpoint.
//
// One engine serves three roles in this system:
//   * plain single-path TCP (the paper's "TCP over WiFi" baseline),
//   * each MPTCP subflow (the meta-socket plugs in a SegmentSource that
//     hands out connection-level data with DSS mappings, and an observer
//     that sees every arriving packet's MPTCP options),
//   * both client and server ends (connect/accept).
//
// Implemented behaviour: three-way handshake (with SYN retransmission),
// cumulative ACKs, out-of-order reassembly, RFC 6298 RTO with Karn's rule
// and exponential backoff, NewReno fast retransmit/recovery with partial
// ACKs, RFC 2861 cwnd validation after idle (the switchable behaviour from
// paper §3.6), FIN-based teardown, and MPTCP option carriage (MP_CAPABLE /
// MP_JOIN / DSS / DATA_ACK / MP_PRIO).
//
// Transfers are counted bytes — no payload content is stored — which keeps
// the 256 MB download experiments fast while preserving every protocol
// dynamic the paper's results depend on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/hooks.hpp"
#include "sim/ring_deque.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"
#include "tcp/buffers.hpp"
#include "tcp/cc.hpp"
#include "tcp/rtt.hpp"

namespace emptcp::tcp {

enum class TcpState {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait,    ///< our FIN sent, not yet acknowledged
  kCloseWait,  ///< peer's FIN consumed, ours not yet sent
  kLastAck,    ///< peer's FIN consumed and our FIN in flight
  kDone,       ///< both directions closed
};

const char* to_string(TcpState s);

class TcpSocket {
 public:
  struct Config {
    CongestionControl::Config cc;
    RttEstimator::Config rtt;
    int max_syn_retries = 6;
    /// Consecutive data RTOs before the connection is declared dead (the
    /// kernel's tcp_retries2 analogue); lets a subflow on a broken path
    /// fail so MPTCP can reinject its data elsewhere.
    int max_data_rtos = 10;
  };

  /// One transmission opportunity handed out by a SegmentSource.
  struct Chunk {
    std::uint32_t len = 0;
    std::optional<net::DssMapping> dss;
  };

  /// Supplies payload when the congestion window opens. `max_len` is the
  /// most the socket can take (<= MSS). Returning nullopt means "no data
  /// available right now"; the socket will ask again after
  /// notify_data_available().
  using SegmentSource =
      std::function<std::optional<Chunk>(std::uint32_t max_len)>;

  struct Callbacks {
    std::function<void()> on_connected;
    /// In-order payload progress: `newly` bytes advanced past the
    /// cumulative point (plain-TCP applications count these).
    std::function<void(std::uint64_t newly)> on_data;
    /// Every packet that reaches this socket, before processing. The MPTCP
    /// meta-socket reads DSS / DATA_ACK / MP_PRIO options here.
    std::function<void(const net::Packet&)> on_packet;
    /// Cumulative application bytes newly acknowledged by the peer.
    std::function<void(std::uint64_t newly_acked)> on_bytes_acked;
    /// Peer's FIN consumed in order: the read side is finished.
    std::function<void()> on_eof;
    /// Both directions closed (or the connection failed).
    std::function<void()> on_closed;
  };

  TcpSocket(sim::Simulation& sim, net::Node& node, Config cfg);
  ~TcpSocket();

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  void set_callbacks(Callbacks cb) { cb_ = std::move(cb); }

  /// Replaces the congestion controller (the meta-socket installs LIA).
  void set_congestion_control(std::unique_ptr<CongestionControl> cc);

  /// Installs an external payload source (MPTCP mode). Without one, the
  /// socket serves its internal counted-byte queue (`send_app_data`).
  void set_segment_source(SegmentSource src) { source_ = std::move(src); }

  /// Active open. `mp_capable` / `mp_join` tag the SYN's MPTCP option.
  void connect(net::Addr local, net::Port local_port, net::Addr remote,
               net::Port remote_port, bool mp_capable = false,
               bool mp_join = false);

  /// Token carried on this socket's SYN (MP_CAPABLE announces it, MP_JOIN
  /// uses it to find the connection). Set before connect().
  void set_mp_token(std::uint64_t token) { mp_token_ = token; }

  /// Sets the MP_JOIN backup ("B") bit on this socket's SYN.
  void set_mp_backup_flag(bool backup) { mp_backup_ = backup; }

  /// Application tag carried on this socket's SYN.
  void set_app_tag(std::uint32_t tag) { app_tag_ = tag; }

  /// Passive open from a received SYN: registers the flow and answers
  /// SYN-ACK. The caller owns the returned socket.
  static std::unique_ptr<TcpSocket> accept(sim::Simulation& sim,
                                           net::Node& node, Config cfg,
                                           const net::Packet& syn);

  /// Plain-TCP mode: enqueues `bytes` of application data to transmit.
  void send_app_data(std::uint64_t bytes);

  /// MPTCP mode: tells the socket its SegmentSource may have data again.
  void notify_data_available() { try_send(); }

  /// Half-closes the write side: a FIN follows the last queued byte.
  void shutdown_write();

  /// Immediately tears the socket down (no RST modelling needed here).
  void abort();

  // --- MPTCP option plumbing -------------------------------------------
  /// Announces an MP_PRIO priority for this subflow: a pure ACK carries it
  /// immediately (paper §3.6: the change is "added to the next packet to
  /// be transmitted"), and the option stays attached to every subsequent
  /// packet so a lost ACK cannot strand the peer on a stale priority (the
  /// receiver treats repeats as idempotent).
  void send_mp_prio(bool backup);
  /// Sets the connection-level DATA_ACK attached to outgoing ACKs.
  void set_data_ack(std::uint64_t data_ack) { data_ack_ = data_ack; }
  /// Sets the DATA_FIN attached to outgoing packets (meta-socket closing).
  void set_data_fin(std::uint64_t data_fin) { data_fin_ = data_fin; }

  // --- eMPTCP resumed-subflow tweaks (paper §3.6) -----------------------
  void set_cwnd_validation(bool enabled) { cc_->set_cwnd_validation(enabled); }
  void reset_srtt_for_probe() { rtt_.force_srtt(0); }

  // --- Introspection ----------------------------------------------------
  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] const net::FlowKey& flow() const { return key_; }
  [[nodiscard]] sim::Duration srtt() const { return rtt_.srtt(); }
  [[nodiscard]] sim::Duration rto() const { return rtt_.rto(); }
  /// Three-way-handshake RTT (eMPTCP's predictor sampling interval δ).
  [[nodiscard]] sim::Duration handshake_rtt() const { return handshake_rtt_; }
  [[nodiscard]] std::uint64_t cwnd() const { return cc_->cwnd(); }
  [[nodiscard]] std::uint64_t bytes_in_flight() const {
    return snd_nxt_ - snd_una_;
  }
  /// Bytes believed to be in the network: outstanding minus SACKed minus
  /// marked-lost-and-not-yet-retransmitted (RFC 6675's pipe).
  [[nodiscard]] std::uint64_t pipe() const {
    return bytes_in_flight() - sacked_bytes_ - lost_bytes_;
  }
  /// The SACK scoreboard's totals: outstanding bytes the peer has SACKed,
  /// and bytes marked lost whose retransmission is not yet sent.
  [[nodiscard]] std::uint64_t sacked_bytes() const { return sacked_bytes_; }
  [[nodiscard]] std::uint64_t lost_bytes() const { return lost_bytes_; }
  [[nodiscard]] std::uint64_t app_bytes_acked() const {
    return app_bytes_acked_;
  }
  [[nodiscard]] std::uint64_t app_bytes_received() const {
    return app_bytes_received_;
  }
  [[nodiscard]] std::uint64_t retransmitted_segments() const {
    return retransmit_count_;
  }
  /// Peer's FIN consumed: no more data will arrive.
  [[nodiscard]] bool eof_received() const { return eof_delivered_; }
  /// The socket ended abnormally (handshake failure, RST, abort()).
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const CongestionControl& congestion_control() const {
    return *cc_;
  }

  // --- Macro-step interface (hybrid fidelity; see DESIGN.md §13) --------
  /// Quiescence predicate: true only when this endpoint is in established
  /// steady state with no transient pending — nothing in flight, no SACK
  /// holes or marked losses, not in recovery, no RTO armed, no FIN in
  /// either direction, no reassembly gap. The fast path may only advance a
  /// flow analytically while this holds on every subflow socket; every
  /// per-packet transition out of the quiescent set happens exclusively
  /// through packet-level code, so a false predicate is sufficient to drop
  /// back to full fidelity. Deliberately redundant terms (retx_ empty AND
  /// zero in flight AND no timer) keep the predicate safe even if one
  /// bookkeeping path drifts; Mutation::kMacroQuiescenceBlind blinds the
  /// loss/in-flight terms so tests can prove they have teeth.
  [[nodiscard]] bool can_macro_step() const;
  /// Analytically sends-and-acknowledges `bytes` in one step, as if the
  /// peer had cumulatively ACKed a whole quantum of MSS segments: advances
  /// snd_nxt/snd_una together (nothing is left in flight), credits the
  /// application counters, and grows cwnd through the congestion
  /// controller's normal virtual increase capped at `cwnd_cap` (see
  /// CongestionControl::macro_advance). Caller must hold can_macro_step().
  void macro_advance_sender(std::uint64_t bytes, std::uint64_t cwnd_cap);
  /// Receiver-side mirror: appends `bytes` contiguously at the cumulative
  /// point as if delivered in order. Does not fire the on_data callback —
  /// the MPTCP meta-socket accounts for delivery at the data level.
  /// Caller must hold can_macro_step().
  void macro_advance_receiver(std::uint64_t bytes);

 private:
  struct TxSegment {
    std::uint64_t seq = 0;
    std::uint32_t len = 0;
    bool fin = false;
    bool retransmitted = false;
    bool sacked = false;
    bool lost = false;  ///< deemed lost, retransmission not yet sent
    std::uint64_t rtx_epoch = 0;  ///< recovery round of the last retransmit
    sim::Time sent_at = 0;
    std::optional<net::DssMapping> dss;

    /// Sequence space consumed (payload plus the FIN's virtual byte).
    [[nodiscard]] std::uint64_t size() const {
      return static_cast<std::uint64_t>(len) + (fin ? 1 : 0);
    }
  };

  /// State-machine transitions funnel through here so every one is traced.
  void transition(TcpState next);
  /// Trace helpers for the two high-churn observables.
  void trace_cwnd();
  void trace_srtt();

  void on_receive(const net::Packet& pkt);
  void handle_syn(const net::Packet& pkt);
  void handle_synack(const net::Packet& pkt);
  void process_ack(const net::Packet& pkt);
  void process_payload(const net::Packet& pkt);
  void enter_established();
  void try_send();
  void maybe_send_fin();
  void send_segment(TxSegment& seg, bool retransmission);
  void send_pure_ack();
  void fill_sack(net::Packet& pkt) const;
  void retransmit_front();
  /// Applies the SACK blocks of an incoming ACK in one pass over the
  /// blocks and the covered part of retx_; returns true if any segment was
  /// newly marked. A segment is SACKed only when one block covers all of
  /// it.
  bool apply_sack(const net::Packet& pkt);
  /// RFC 6675 IsLost: marks unsacked segments more than 3 MSS below the
  /// highest SACK as lost (removing them from the pipe).
  void mark_losses();
  void enter_recovery();
  /// Retransmits marked-lost segments while the pipe allows.
  void retransmit_holes();
  void on_rto();
  void arm_rto();
  void attach_options(net::Packet& pkt);
  void register_flow();
  void finish(bool failed, bool send_rst = true);
  [[nodiscard]] std::uint64_t rcv_ack_point() const;
  std::optional<Chunk> next_chunk(std::uint32_t max_len);

  sim::Simulation& sim_;
  net::Node& node_;
  Config cfg_;
  Callbacks cb_;
  net::FlowKey key_;
  TcpState state_ = TcpState::kClosed;
  bool flow_registered_ = false;

  std::unique_ptr<CongestionControl> cc_;
  RttEstimator rtt_;
  sim::Timer rto_timer_;

  // Cached metric handles (registered once in the constructor; increments
  // are a pointer-chase + add, cheap enough for the loss paths they sit on).
  trace::Counter* ctr_retransmits_ = nullptr;
  trace::Counter* ctr_rtos_ = nullptr;
  trace::Counter* ctr_fast_recoveries_ = nullptr;
  /// Invariant-oracle attachment point (see sim/hooks.hpp); cached so each
  /// hook site is one load + branch when no oracle is attached.
  sim::Hooks* hooks_ = nullptr;

  // Send side. Sequence 0 is the SYN; application data starts at 1.
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  sim::RingDeque<TxSegment> retx_;
  std::uint64_t app_bytes_queued_ = 0;  ///< plain-TCP mode backlog
  std::uint64_t app_bytes_sent_ = 0;
  std::uint64_t app_bytes_acked_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  std::uint64_t fin_seq_ = 0;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_point_ = 0;
  std::uint64_t sacked_bytes_ = 0;
  std::uint64_t lost_bytes_ = 0;    ///< lost and not yet retransmitted
  std::uint64_t high_sacked_ = 0;   ///< highest SACKed sequence end
  std::uint64_t recovery_epoch_ = 0;
  sim::Time last_send_ = 0;
  std::uint64_t retransmit_count_ = 0;
  int syn_retries_ = 0;
  int consecutive_rtos_ = 0;

  // Receive side.
  IntervalReassembly rcv_{1};
  std::uint64_t app_bytes_received_ = 0;
  std::optional<std::uint64_t> fin_rcv_seq_;
  bool fin_consumed_ = false;
  bool eof_delivered_ = false;
  bool failed_ = false;

  // MPTCP flags for the SYN we send.
  bool mp_capable_ = false;
  bool mp_join_ = false;
  std::uint64_t mp_token_ = 0;
  bool mp_backup_ = false;
  std::uint32_t app_tag_ = 0;

  // Option plumbing.
  std::optional<bool> announced_prio_;
  std::optional<std::uint64_t> data_ack_;
  std::optional<std::uint64_t> data_fin_;

  // Handshake measurement.
  sim::Time syn_sent_at_ = 0;
  sim::Duration handshake_rtt_ = 0;

  SegmentSource source_;
};

/// Passive-open helper: owns nothing but the node's listener registration;
/// hands every new SYN to the acceptor, which decides what socket to build
/// (plain TCP server app, MPTCP meta-socket, ...).
class TcpListener {
 public:
  using Acceptor = std::function<void(const net::Packet& syn)>;

  TcpListener(net::Node& node, net::Port port, Acceptor acceptor);

 private:
  net::Node& node_;
};

}  // namespace emptcp::tcp
