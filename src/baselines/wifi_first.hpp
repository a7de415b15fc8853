// "MPTCP with WiFi First" baseline (Raiciu et al. [28], paper §4.6).
//
// The strategy: open subflows on all interfaces, but place the cellular one
// in backup mode, so it carries data only when WiFi explicitly breaks (AP
// disassociation / subflow failure). The paper's two critiques — both of
// which this implementation exhibits — are:
//   * the cellular radio is activated at connection establishment anyway
//     (the MP_JOIN handshake wakes it and pays promotion + tail), and
//   * a degraded-but-associated WiFi link never triggers the backup, so
//     the strategy degenerates into TCP-over-WiFi exactly when WiFi is at
//     its least efficient.
#pragma once

#include <memory>

#include "mptcp/meta_socket.hpp"

namespace emptcp::baseline {

class WifiFirstConnection {
 public:
  using Callbacks = mptcp::MptcpConnection::Callbacks;

  WifiFirstConnection(sim::Simulation& sim, net::Node& node,
                      mptcp::MptcpConnection::Config cfg);

  void set_callbacks(mptcp::MptcpConnection::Callbacks cb);

  /// Opens the WiFi subflow, then immediately joins over cellular in
  /// backup mode (the needless activation the paper points out).
  void connect(net::Addr wifi_local, net::Addr cell_local, net::Addr remote,
               net::Port remote_port);

  void send(std::uint64_t bytes) { meta_->send(bytes); }
  void shutdown_write() { meta_->shutdown_write(); }

  [[nodiscard]] mptcp::MptcpConnection& mptcp() { return *meta_; }

 private:
  std::unique_ptr<mptcp::MptcpConnection> meta_;
  mptcp::MptcpConnection::Callbacks user_cb_;
  net::Addr cell_local_ = net::kAddrInvalid;
  bool joined_ = false;
};

}  // namespace emptcp::baseline
