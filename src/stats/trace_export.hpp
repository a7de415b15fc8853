// Trace exporter: serializes a TraceSink's event log (and optionally its
// metric snapshot) as JSONL text.
//
// The serialization is deterministic: events appear in record order, field
// order is fixed per kind, and doubles are printed with shortest-roundtrip
// precision via a locale-independent formatter. Two runs of the same
// (scenario, seed) therefore produce byte-identical text — the property
// the golden-trace tests pin down with trace::diff_trace_text.
//
// One appender formats every line into a bounded buffer (~256 KB). The
// in-memory form collects the chunks into a string; the file form digests
// each chunk and writes it, so no whole-trace string ever exists.
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

/// Writes exactly trace_to_jsonl(events, metrics) to `path`, chunk by
/// chunk, and sets `digest_hex` to the FNV-1a digest of those bytes
/// (stats::fnv1a64_hex form). False when the file cannot be opened or
/// any write or the final close fails.
bool write_trace_jsonl(const std::string& path,
                       const std::vector<trace::Event>& events,
                       const std::vector<trace::MetricSnapshot>& metrics,
                       std::string& digest_hex);

}  // namespace emptcp::stats
