// EMPTCP_TRACE: the instrumentation gate.
//
// Usage at a decision point (simref is anything with a .trace() accessor
// returning trace::TraceSink&, i.e. the owning Simulation):
//
//   EMPTCP_TRACE(sim, cwnd(sim.now(), id, cwnd_, ssthresh_));
//
// Each site is a load of the sink's cached bool and a predictable branch —
// no allocation, no virtual call. The arguments are not evaluated unless
// the sink is recording, so sites may pass expressions that would be
// wasteful to compute on the disabled path.
// "Recording" covers both full event retention (sink.enable) and the
// always-on bounded flight recorder; sites that fire record into whichever
// of the two is active.
#pragma once

#include "trace/sink.hpp"

#define EMPTCP_TRACE(simref, call)                            \
  do {                                                        \
    ::emptcp::trace::TraceSink& emptcp_ts_ = (simref).trace(); \
    if (emptcp_ts_.recording()) {                             \
      emptcp_ts_.call;                                        \
    }                                                         \
  } while (0)
