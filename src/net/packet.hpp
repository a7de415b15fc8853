// Simulated packet: TCP segment plus the MPTCP options this system needs.
//
// The simulator is packet-level: every TCP segment, ACK, SYN and FIN is an
// individual Packet pushed through links with real transmission and
// propagation delay, drop-tail queueing and random loss. MPTCP signalling is
// carried the way the protocol carries it — as options on TCP segments
// (DSS mappings, data ACKs, MP_PRIO) — so the eMPTCP control decisions
// travel in-band exactly as in the kernel implementation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace emptcp::net {

/// DSS option: maps this segment's subflow payload into connection-level
/// data sequence space (RFC 6824 §3.3).
struct DssMapping {
  std::uint64_t data_seq = 0;
  std::uint64_t subflow_seq = 0;
  std::uint32_t length = 0;
};

/// MP_PRIO option: announces a priority change for the subflow it is sent
/// on (RFC 6824 §3.3.8). eMPTCP uses it to suspend/resume the LTE subflow.
struct MpPrio {
  bool backup = false;
};

/// Fixed-capacity list of SACK blocks carried inline in the packet, so a
/// Packet never owns heap memory and per-hop handling stays allocation-
/// free. The capacity *is* the protocol bound: pushes beyond capacity are
/// dropped, enforcing kMaxSackBlocks structurally at the generation point.
///
/// Precondition: blocks are ascending and disjoint. TcpSocket::fill_sack
/// copies the receiver's IntervalReassembly map, whose intervals are
/// sorted, disjoint and above the cumulative ACK, and the sender's
/// one-pass TcpSocket::apply_sack relies on that order.
class SackList {
 public:
  using Block = std::pair<std::uint64_t, std::uint64_t>;
  static constexpr std::size_t kCapacity = 64;

  SackList() = default;
  SackList(const SackList& other) { assign(other); }
  SackList& operator=(const SackList& other) {
    if (this != &other) assign(other);
    return *this;
  }

  void emplace_back(std::uint64_t start, std::uint64_t end) {
    if (count_ < kCapacity) blocks_[count_++] = Block{start, end};
  }
  void push_back(const Block& b) { emplace_back(b.first, b.second); }
  void clear() { count_ = 0; }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool full() const { return count_ == kCapacity; }
  [[nodiscard]] const Block& operator[](std::size_t i) const {
    return blocks_[i];
  }
  [[nodiscard]] const Block* begin() const { return blocks_.data(); }
  [[nodiscard]] const Block* end() const { return blocks_.data() + count_; }

 private:
  void assign(const SackList& other) {
    count_ = other.count_;
    // Only the live prefix is meaningful; don't copy the whole array.
    for (std::size_t i = 0; i < count_; ++i) blocks_[i] = other.blocks_[i];
  }

  std::size_t count_ = 0;
  std::array<Block, kCapacity> blocks_;  // tail intentionally uninitialised
};

struct Packet {
  // Network layer.
  Addr src = kAddrInvalid;
  Addr dst = kAddrInvalid;
  Port sport = 0;
  Port dport = 0;

  // TCP header. Sequence numbers are 64-bit in the simulator (a real header
  // carries 32 bits and wraps; nothing in this system depends on wrapping).
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  bool syn = false;
  bool is_ack = false;
  bool fin = false;
  bool rst = false;

  /// SACK blocks: [start, end) ranges buffered above the cumulative ACK
  /// (RFC 2018). A real header carries 3-4 blocks but a receiver cycles
  /// through its whole scoreboard across successive ACKs; carrying the
  /// scoreboard directly models that steady state without the bookkeeping.
  SackList sack;
  static constexpr std::size_t kMaxSackBlocks = SackList::kCapacity;

  /// Application payload bytes carried by this segment.
  std::uint32_t payload = 0;

  // MPTCP options.
  bool mp_capable = false;  ///< on the initial subflow's SYN
  bool mp_join = false;     ///< on additional subflows' SYNs
  /// Connection token carried by MP_CAPABLE / MP_JOIN SYNs so the passive
  /// side can associate additional subflows with the right connection
  /// (RFC 6824 derives this from a key exchange; the simulator carries it
  /// directly).
  std::uint64_t mp_token = 0;
  /// RFC 6824 MP_JOIN "B" bit: this subflow starts as a backup path.
  bool mp_backup = false;
  /// Application tag carried on the MP_CAPABLE SYN; the evaluation's
  /// stand-in for request-level identification (e.g. the URL an HTTP
  /// request would carry), used by the web workload to pair each client
  /// connection with its object list independent of accept order.
  std::uint32_t app_tag = 0;
  std::optional<DssMapping> dss;
  std::optional<std::uint64_t> data_ack;
  /// DATA_FIN (RFC 6824 §3.3.3): the connection-level stream ends at this
  /// data sequence number (one past the last byte). Carried on any
  /// subflow, so the stream terminates even if other subflows died.
  std::optional<std::uint64_t> data_fin;
  std::optional<MpPrio> mp_prio;

  // Non-TCP datagram marker (background UDP traffic).
  bool udp = false;

  // Simulation metadata (not "on the wire").
  std::uint64_t id = 0;       ///< unique per simulation, for tracing
  sim::Time enqueued_at = 0;  ///< when the sender handed it to the link

  /// IP+TCP header overhead modelled on every packet.
  static constexpr std::uint32_t kHeaderBytes = 40;

  [[nodiscard]] std::uint32_t wire_bytes() const {
    return payload + kHeaderBytes;
  }

  /// Flow key from the *receiver's* point of view.
  [[nodiscard]] FlowKey flow_at_receiver() const {
    return FlowKey{dst, dport, src, sport};
  }
};

/// Maximum segment size used by all TCP senders (typical Ethernet MSS).
inline constexpr std::uint32_t kMss = 1448;

}  // namespace emptcp::net
