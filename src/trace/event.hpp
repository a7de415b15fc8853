// Typed trace event records (the observability layer's wire format).
//
// One Event is a fixed-size POD: recording never allocates beyond the
// amortised growth of the sink's event vector, and the record order is the
// deterministic event-core execution order, so a serialized trace is a
// reproducible artifact of (scenario, seed) — byte-identical whether the
// replication ran sequentially or on a pool worker.
//
// Fields are kind-specific; the exporters (stats/trace_export.hpp) give
// them schema names. String fields must point at static storage (state
// names, interface names): the sink stores the pointer, never a copy.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace emptcp::trace {

enum class Kind : std::uint8_t {
  kTcpState,      ///< TCP state-machine transition
  kCwnd,          ///< congestion window / ssthresh update
  kSrtt,          ///< smoothed RTT / RTO update
  kSchedPick,     ///< scheduler assigned fresh data to a subflow
  kMpPrio,        ///< subflow priority (MP_PRIO backup flag) changed
  kModeChange,    ///< eMPTCP path-usage decision changed
  kRadioState,    ///< radio power-state transition (idle/promo/active/tail)
  kEnergySample,  ///< one EnergyTracker sampling window for one interface
  kChannelRate,   ///< channel/link rate change (on-off, contention, walk)
  kFlowStart,     ///< workload flow issued its request (fleet runs)
  kFlowComplete,  ///< workload flow fully delivered; carries FCT + energy
  kStream,        ///< stream flow's playback quality, at its completion
  kFastpath,      ///< hybrid-fidelity governor moved a flow between states
  kWarning,       ///< anomaly worth surfacing (e.g. counter went backwards)
};

const char* to_string(Kind k);

struct Event {
  sim::Time t = 0;
  Kind kind = Kind::kWarning;
  std::uint32_t id = 0;          ///< flow port / subflow id / iface code
  const char* label = nullptr;   ///< kind-specific name (static storage)
  const char* label2 = nullptr;  ///< second name (static storage)
  std::int64_t i0 = 0;
  std::int64_t i1 = 0;
  double d0 = 0.0;
  double d1 = 0.0;
};

}  // namespace emptcp::trace
