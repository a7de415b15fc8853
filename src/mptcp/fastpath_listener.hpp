// The MPTCP stack's view of the hybrid-fidelity fast path (app::FastPath).
//
// The governor attaches as its simulation's sim::Hooks::fast_path; every
// notification site is one pointer load plus a branch when none is
// attached (the packet-only default). `mptcp` must not depend on `app`,
// hence the abstract listener.
#pragma once

namespace emptcp::mptcp {

class MptcpConnection;

/// Implemented by the fast-path coordinator. All calls are synchronous and
/// must not destroy the connection they are called about.
class FastPathListener {
 public:
  virtual ~FastPathListener() = default;
  /// First subflow of `conn` completed its handshake.
  virtual void on_conn_established(MptcpConnection& conn) = 0;
  /// `conn` is being destroyed; drop every reference to it.
  virtual void on_conn_destroyed(MptcpConnection& conn) = 0;
  /// A transient happened on `conn` (app write/close, subflow set change,
  /// MP_PRIO, failure): any analytic advancement must stop until the flow
  /// proves quiescent again.
  virtual void on_conn_transient(MptcpConnection& conn) = 0;
};

}  // namespace emptcp::mptcp
