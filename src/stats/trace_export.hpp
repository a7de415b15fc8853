// Trace exporter: serializes a TraceSink's event log (and optionally its
// metric snapshot) as JSONL text.
//
// The serialization is deterministic: events appear in record order, field
// order is fixed per kind, and doubles are printed with shortest-roundtrip
// precision via a locale-independent formatter. Two runs of the same
// (scenario, seed) therefore produce byte-identical text — the property
// the golden-trace tests pin down with trace::diff_trace_text.
#pragma once

#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/sink.hpp"

namespace emptcp::stats {

/// One JSON object per line. Every line carries "t_ns" and "kind"; the
/// remaining fields are kind-specific schema names (e.g. cwnd lines carry
/// "flow", "cwnd", "ssthresh"). Metric snapshots, when given, follow the
/// events as {"metric": name, "value": v} lines in registration order.
std::string trace_to_jsonl(
    const std::vector<trace::Event>& events,
    const std::vector<trace::MetricSnapshot>& metrics = {});

}  // namespace emptcp::stats
