// Type-erased client connection.
//
// The evaluation harness runs the same applications over every protocol
// variant (TCP over WiFi, TCP over LTE, standard MPTCP, eMPTCP, WiFi-First,
// MDP-scheduled MPTCP). ClientConnHandle is the minimal app-facing surface
// they all share — mirroring the paper's point that MPTCP variants hide
// behind a standard socket, so applications need no changes.
#pragma once

#include <cstdint>
#include <functional>

namespace emptcp::app {

class ClientConnHandle {
 public:
  struct Callbacks {
    std::function<void()> on_established;
    std::function<void(std::uint64_t newly)> on_data;
    std::function<void()> on_eof;
    std::function<void()> on_closed;
  };

  virtual ~ClientConnHandle() = default;

  virtual void set_callbacks(Callbacks cb) = 0;
  /// Tags the connection before connect() (see Packet::app_tag). Default:
  /// untagged.
  virtual void set_app_tag(std::uint32_t) {}
  /// Opens the connection (local/remote addressing is fixed at creation).
  virtual void connect() = 0;
  virtual void send(std::uint64_t bytes) = 0;
  virtual void shutdown_write() = 0;
  [[nodiscard]] virtual std::uint64_t bytes_received() const = 0;
  /// Bytes sent that the peer acknowledged (an upload's progress).
  [[nodiscard]] virtual std::uint64_t bytes_acked() const { return 0; }
  /// Path-usage switches made by the protocol's controller (0 for
  /// protocols without one).
  [[nodiscard]] virtual std::uint64_t controller_switches() const {
    return 0;
  }
};

}  // namespace emptcp::app
