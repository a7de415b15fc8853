#include "analysis/perf_report.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "sim/shard_engine.hpp"
#include "stats/csv.hpp"

namespace emptcp::analysis {

namespace {

std::string fmt(double v) { return stats::fmt_double(v); }

void appendf(std::string& out, const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  out += buf;
}

std::string dist_json(const PerfDist& d) {
  std::string out = "{";
  out += "\"count\": " + std::to_string(d.count);
  out += ", \"mean\": " + fmt(d.mean);
  out += ", \"p50\": " + std::to_string(d.p50);
  out += ", \"p90\": " + std::to_string(d.p90);
  out += ", \"p99\": " + std::to_string(d.p99);
  out += ", \"max\": " + std::to_string(d.max);
  out += "}";
  return out;
}

PerfDist dist_from_flat(const FlatJson& flat, const std::string& prefix) {
  PerfDist d;
  d.count = static_cast<std::uint64_t>(json_num(flat, prefix + ".count", 0));
  d.mean = json_num(flat, prefix + ".mean", 0);
  d.p50 = static_cast<std::uint64_t>(json_num(flat, prefix + ".p50", 0));
  d.p90 = static_cast<std::uint64_t>(json_num(flat, prefix + ".p90", 0));
  d.p99 = static_cast<std::uint64_t>(json_num(flat, prefix + ".p99", 0));
  d.max = static_cast<std::uint64_t>(json_num(flat, prefix + ".max", 0));
  return d;
}

}  // namespace

PerfDist summarize(const runtime::LogBuckets& h) {
  PerfDist d;
  d.count = h.count();
  d.mean = h.mean();
  d.p50 = h.quantile_upper(0.50);
  d.p90 = h.quantile_upper(0.90);
  d.p99 = h.quantile_upper(0.99);
  d.max = h.max();
  return d;
}

PerfDoc make_perf_doc(const sim::ShardEnginePerf& perf) {
  PerfDoc doc;
  doc.epochs = perf.epochs;
  doc.busy_epochs = perf.busy_epochs;
  doc.cross_messages = perf.cross_messages;
  doc.min_lookahead_ns = static_cast<double>(perf.min_lookahead);
  doc.events_per_epoch = summarize(perf.events_per_epoch);
  doc.advance_ns_per_epoch = summarize(perf.advance_ns_per_epoch);
  doc.cross_per_epoch = summarize(perf.cross_per_epoch);
  doc.imbalance_pct = summarize(perf.imbalance_pct);
  if (doc.min_lookahead_ns > 0.0) {
    doc.lookahead_utilization =
        doc.advance_ns_per_epoch.mean / doc.min_lookahead_ns;
  }
  doc.places.reserve(perf.places.size());
  for (const sim::ShardEnginePerf::Place& p : perf.places) {
    PerfDoc::Place out;
    out.name = p.name;
    out.events = p.events;
    out.busy_epochs = p.busy_epochs;
    out.work_s = p.work_s;
    doc.places.push_back(std::move(out));
  }
  doc.parties.reserve(perf.parties.size());
  for (const sim::ShardEnginePerf::Party& p : perf.parties) {
    doc.parties.push_back(PerfDoc::Party{p.busy_s, p.wait_s});
  }
  return doc;
}

void fill_spans(PerfDoc& doc, std::size_t max_spans) {
  runtime::Telemetry& t = runtime::Telemetry::instance();
  doc.spans.clear();
  for (const runtime::Telemetry::SpanTotal& s : t.aggregate()) {
    if (doc.spans.size() >= max_spans) break;
    PerfDoc::Span out;
    out.name = s.name;
    out.count = s.count;
    out.total_s = static_cast<double>(s.total_ns) / 1e9;
    out.max_ms = static_cast<double>(s.max_ns) / 1e6;
    doc.spans.push_back(std::move(out));
  }
  doc.spans_dropped = t.spans_dropped();
}

std::string perf_doc_to_json(const PerfDoc& doc) {
  std::string out = "{\n";
  out += "  \"schema\": \"emptcp-perf-v1\",\n";
  out += "  \"label\": ";
  stats::append_json_string(out, doc.label);
  out += ",\n";
  out += "  \"engine\": {";
  out += "\"epochs\": " + std::to_string(doc.epochs);
  out += ", \"busy_epochs\": " + std::to_string(doc.busy_epochs);
  out += ", \"cross_messages\": " + std::to_string(doc.cross_messages);
  out += ", \"min_lookahead_ns\": " + fmt(doc.min_lookahead_ns);
  out += ", \"lookahead_utilization\": " + fmt(doc.lookahead_utilization);
  out += "},\n";
  out += "  \"events_per_epoch\": " + dist_json(doc.events_per_epoch) + ",\n";
  out += "  \"advance_ns_per_epoch\": " + dist_json(doc.advance_ns_per_epoch) +
         ",\n";
  out += "  \"cross_per_epoch\": " + dist_json(doc.cross_per_epoch) + ",\n";
  out += "  \"imbalance_pct\": " + dist_json(doc.imbalance_pct) + ",\n";
  out += "  \"places\": [";
  for (std::size_t i = 0; i < doc.places.size(); ++i) {
    const PerfDoc::Place& p = doc.places[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    stats::append_json_string(out, p.name);
    out += ", \"events\": " + std::to_string(p.events);
    out += ", \"busy_epochs\": " + std::to_string(p.busy_epochs);
    out += ", \"cross_tx\": " + std::to_string(p.cross_tx);
    out += ", \"work_s\": " + fmt(p.work_s);
    out += "}";
  }
  out += doc.places.empty() ? "],\n" : "\n  ],\n";
  out += "  \"parties\": [";
  for (std::size_t i = 0; i < doc.parties.size(); ++i) {
    const PerfDoc::Party& p = doc.parties[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"busy_s\": " + fmt(p.busy_s) +
           ", \"wait_s\": " + fmt(p.wait_s) + "}";
  }
  out += doc.parties.empty() ? "],\n" : "\n  ],\n";
  out += "  \"spans\": [";
  for (std::size_t i = 0; i < doc.spans.size(); ++i) {
    const PerfDoc::Span& s = doc.spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    stats::append_json_string(out, s.name);
    out += ", \"count\": " + std::to_string(s.count);
    out += ", \"total_s\": " + fmt(s.total_s);
    out += ", \"max_ms\": " + fmt(s.max_ms);
    out += "}";
  }
  out += doc.spans.empty() ? "],\n" : "\n  ],\n";
  out += "  \"spans_dropped\": " + std::to_string(doc.spans_dropped) + "\n";
  out += "}\n";
  return out;
}

bool perf_doc_from_flat(const FlatJson& flat, PerfDoc& doc,
                        std::string* err) {
  if (json_str(flat, "schema") != "emptcp-perf-v1") {
    if (err != nullptr) *err = "not an emptcp-perf-v1 document";
    return false;
  }
  doc = PerfDoc();
  doc.label = json_str(flat, "label", "?");
  doc.epochs =
      static_cast<std::uint64_t>(json_num(flat, "engine.epochs", 0));
  doc.busy_epochs =
      static_cast<std::uint64_t>(json_num(flat, "engine.busy_epochs", 0));
  doc.cross_messages =
      static_cast<std::uint64_t>(json_num(flat, "engine.cross_messages", 0));
  doc.min_lookahead_ns = json_num(flat, "engine.min_lookahead_ns", 0);
  doc.lookahead_utilization =
      json_num(flat, "engine.lookahead_utilization", 0);
  doc.events_per_epoch = dist_from_flat(flat, "events_per_epoch");
  doc.advance_ns_per_epoch = dist_from_flat(flat, "advance_ns_per_epoch");
  doc.cross_per_epoch = dist_from_flat(flat, "cross_per_epoch");
  doc.imbalance_pct = dist_from_flat(flat, "imbalance_pct");
  for (std::size_t i = 0;; ++i) {
    const std::string prefix = "places." + std::to_string(i) + ".";
    const JsonScalar* name = json_find(flat, prefix + "name");
    if (name == nullptr) break;
    PerfDoc::Place p;
    p.name = name->str;
    p.events =
        static_cast<std::uint64_t>(json_num(flat, prefix + "events", 0));
    p.busy_epochs =
        static_cast<std::uint64_t>(json_num(flat, prefix + "busy_epochs", 0));
    p.cross_tx =
        static_cast<std::uint64_t>(json_num(flat, prefix + "cross_tx", 0));
    p.work_s = json_num(flat, prefix + "work_s", 0);
    doc.places.push_back(std::move(p));
  }
  for (std::size_t i = 0;; ++i) {
    const std::string prefix = "parties." + std::to_string(i) + ".";
    const JsonScalar* busy = json_find(flat, prefix + "busy_s");
    if (busy == nullptr) break;
    PerfDoc::Party p;
    p.busy_s = busy->num;
    p.wait_s = json_num(flat, prefix + "wait_s", 0);
    doc.parties.push_back(p);
  }
  for (std::size_t i = 0;; ++i) {
    const std::string prefix = "spans." + std::to_string(i) + ".";
    const JsonScalar* name = json_find(flat, prefix + "name");
    if (name == nullptr) break;
    PerfDoc::Span s;
    s.name = name->str;
    s.count = static_cast<std::uint64_t>(json_num(flat, prefix + "count", 0));
    s.total_s = json_num(flat, prefix + "total_s", 0);
    s.max_ms = json_num(flat, prefix + "max_ms", 0);
    doc.spans.push_back(std::move(s));
  }
  doc.spans_dropped =
      static_cast<std::uint64_t>(json_num(flat, "spans_dropped", 0));
  return true;
}

std::string render_perf_report(const std::vector<PerfDoc>& docs,
                               std::size_t top_spans) {
  std::string out;
  for (const PerfDoc& doc : docs) {
    appendf(out, "== perf: %s ==\n", doc.label.c_str());
    appendf(out,
            "engine: %llu epochs (%llu busy), %llu cross messages, "
            "lookahead %.3f ms, utilization %.2f\n",
            static_cast<unsigned long long>(doc.epochs),
            static_cast<unsigned long long>(doc.busy_epochs),
            static_cast<unsigned long long>(doc.cross_messages),
            doc.min_lookahead_ns / 1e6, doc.lookahead_utilization);
    auto dist_row = [&](const char* name, const PerfDist& d) {
      appendf(out,
              "  %-18s mean %10.1f  p50<=%-10llu p90<=%-10llu "
              "p99<=%-10llu max %llu\n",
              name, d.mean, static_cast<unsigned long long>(d.p50),
              static_cast<unsigned long long>(d.p90),
              static_cast<unsigned long long>(d.p99),
              static_cast<unsigned long long>(d.max));
    };
    out += "epoch distributions (log-bucket upper bounds):\n";
    dist_row("events/epoch", doc.events_per_epoch);
    dist_row("advance ns/epoch", doc.advance_ns_per_epoch);
    dist_row("cross msgs/epoch", doc.cross_per_epoch);
    dist_row("imbalance pct", doc.imbalance_pct);

    if (!doc.places.empty()) {
      double total_work = 0.0;
      std::uint64_t total_events = 0;
      for (const PerfDoc::Place& p : doc.places) {
        total_work += p.work_s;
        total_events += p.events;
      }
      out += "per-place utilization:\n";
      out +=
          "  place            events   share%   busy_ep     work_s   work%"
          "   cross_tx\n";
      for (const PerfDoc::Place& p : doc.places) {
        const double share =
            total_events == 0
                ? 0.0
                : 100.0 * static_cast<double>(p.events) /
                      static_cast<double>(total_events);
        const double workpct =
            total_work <= 0.0 ? 0.0 : 100.0 * p.work_s / total_work;
        appendf(out, "  %-14s %9llu %8.2f %9llu %10.4f %7.2f %10llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.events),
                share, static_cast<unsigned long long>(p.busy_epochs),
                p.work_s, workpct,
                static_cast<unsigned long long>(p.cross_tx));
      }
    }

    if (!doc.parties.empty()) {
      out += "parties (shard workers):\n";
      out += "  party     busy_s     wait_s    busy%\n";
      for (std::size_t i = 0; i < doc.parties.size(); ++i) {
        const PerfDoc::Party& p = doc.parties[i];
        const double total = p.busy_s + p.wait_s;
        appendf(out, "  %5zu %10.4f %10.4f %8.2f\n", i, p.busy_s, p.wait_s,
                total <= 0.0 ? 0.0 : 100.0 * p.busy_s / total);
      }
    }

    if (!doc.spans.empty()) {
      appendf(out, "top spans (by total time, max %zu):\n", top_spans);
      out += "  name                        count    total_s    mean_us"
             "     max_ms\n";
      std::size_t shown = 0;
      for (const PerfDoc::Span& s : doc.spans) {
        if (shown++ >= top_spans) break;
        const double mean_us =
            s.count == 0 ? 0.0
                         : s.total_s * 1e6 / static_cast<double>(s.count);
        appendf(out, "  %-26s %6llu %10.4f %10.2f %10.3f\n", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_s, mean_us,
                s.max_ms);
      }
    }
    appendf(out, "spans dropped: %llu\n\n",
            static_cast<unsigned long long>(doc.spans_dropped));
  }
  return out;
}

bool validate_chrome_trace(std::string_view text, std::size_t& events,
                           std::string& err) {
  events = 0;
  std::string parse_err;
  const auto flat = parse_json_flat(text, &parse_err);
  if (!flat) {
    err = "chrome trace: " + parse_err;
    return false;
  }
  // Single pass over the flattened pairs: entries of one array element are
  // contiguous (serialization order), so a tiny per-event state machine
  // validates each record as its fields stream by.
  constexpr std::string_view kPrefix = "traceEvents.";
  long current = -1;
  std::string ph;
  bool has_ts = false, has_dur = false, has_name = false, has_pid = false,
       has_tid = false, has_value = false;
  auto finish_event = [&]() -> bool {
    if (current < 0) return true;
    ++events;
    if (ph == "X") {
      if (!(has_ts && has_dur && has_name && has_pid && has_tid)) {
        err = "chrome trace: event " + std::to_string(current) +
              ": X record missing ts/dur/name/pid/tid";
        return false;
      }
    } else if (ph == "C") {
      if (!(has_ts && has_name && has_value)) {
        err = "chrome trace: event " + std::to_string(current) +
              ": C record missing ts/name/args value";
        return false;
      }
    } else if (ph == "M") {
      if (!has_name) {
        err = "chrome trace: event " + std::to_string(current) +
              ": M record missing name";
        return false;
      }
    } else {
      err = "chrome trace: event " + std::to_string(current) +
            ": unknown phase \"" + ph + "\"";
      return false;
    }
    return true;
  };
  for (const auto& [path, scalar] : *flat) {
    if (path.size() <= kPrefix.size() ||
        path.compare(0, kPrefix.size(), kPrefix) != 0) {
      continue;
    }
    const std::size_t dot = path.find('.', kPrefix.size());
    if (dot == std::string::npos) continue;
    const long index = std::strtol(path.c_str() + kPrefix.size(), nullptr, 10);
    const std::string_view field = std::string_view(path).substr(dot + 1);
    if (index != current) {
      if (!finish_event()) return false;
      current = index;
      ph.clear();
      has_ts = has_dur = has_name = has_pid = has_tid = has_value = false;
    }
    if (field == "ph" && scalar.type == JsonScalar::Type::kString) {
      ph = scalar.str;
    } else if (field == "ts") {
      has_ts = scalar.type == JsonScalar::Type::kNumber;
    } else if (field == "dur") {
      has_dur = scalar.type == JsonScalar::Type::kNumber;
    } else if (field == "name") {
      has_name = scalar.type == JsonScalar::Type::kString;
    } else if (field == "pid") {
      has_pid = scalar.type == JsonScalar::Type::kNumber;
    } else if (field == "tid") {
      has_tid = scalar.type == JsonScalar::Type::kNumber;
    } else if (field == "args.value" || field == "args.name") {
      has_value = true;
    }
  }
  if (!finish_event()) return false;
  if (events == 0) {
    err = "chrome trace: no traceEvents";
    return false;
  }
  return true;
}

}  // namespace emptcp::analysis
