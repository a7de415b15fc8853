// Subflow: one TCP flow belonging to an MPTCP connection.
//
// A subflow couples a TcpSocket with the MPTCP-level state the schedulers
// and eMPTCP's controller care about: which interface it runs over, its
// priority (MP_PRIO backup flag, both the locally-requested and the
// remotely-announced view), and the set of connection-level data chunks
// currently entrusted to it (for reinjection if the subflow dies).
#pragma once

#include <cstdint>
#include <memory>

#include "net/interface.hpp"
#include "sim/ring_deque.hpp"
#include "tcp/tcp_socket.hpp"

namespace emptcp::mptcp {

/// A contiguous range of connection-level data assigned to a subflow and
/// not yet acknowledged at the data level.
struct DataChunk {
  std::uint64_t data_seq = 0;
  std::uint32_t len = 0;
};

class Subflow {
 public:
  Subflow(std::size_t id, net::InterfaceType iface,
          std::unique_ptr<tcp::TcpSocket> socket)
      : id_(id), iface_(iface), socket_(std::move(socket)) {}

  [[nodiscard]] std::size_t id() const { return id_; }
  [[nodiscard]] net::InterfaceType iface() const { return iface_; }
  [[nodiscard]] tcp::TcpSocket& socket() { return *socket_; }
  [[nodiscard]] const tcp::TcpSocket& socket() const { return *socket_; }

  /// Backup priority as seen by the local scheduler: set either by the
  /// local host (it asked for the change) or learned from a received
  /// MP_PRIO. A backup subflow receives no fresh data while any regular
  /// subflow is usable.
  void set_backup(bool b) { backup_ = b; }
  [[nodiscard]] bool backup() const { return backup_; }

  [[nodiscard]] bool established() const {
    const auto s = socket_->state();
    return s == tcp::TcpState::kEstablished ||
           s == tcp::TcpState::kCloseWait;
  }
  [[nodiscard]] bool usable() const {
    return established() && !failed_;
  }
  void mark_failed() { failed_ = true; }
  [[nodiscard]] bool failed() const { return failed_; }

  // Outstanding connection-level chunks for reinjection on failure.
  sim::RingDeque<DataChunk>& outstanding() { return outstanding_; }

  /// Prunes chunks fully covered by the connection-level cumulative ACK.
  void prune_outstanding(std::uint64_t data_una) {
    while (!outstanding_.empty() &&
           outstanding_.front().data_seq + outstanding_.front().len <=
               data_una) {
      outstanding_.pop_front();
    }
  }

 private:
  std::size_t id_;
  net::InterfaceType iface_;
  std::unique_ptr<tcp::TcpSocket> socket_;
  bool backup_ = false;
  bool failed_ = false;
  sim::RingDeque<DataChunk> outstanding_;
};

}  // namespace emptcp::mptcp
