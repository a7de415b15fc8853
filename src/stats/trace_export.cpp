#include "stats/trace_export.hpp"

#include <cinttypes>
#include <cstdio>

#include "stats/csv.hpp"

namespace emptcp::stats {
namespace {

void field_str(std::string& out, const char* name, const char* value) {
  out += ",\"";
  out += name;
  out += "\":";
  append_json_string(out, value == nullptr ? "" : value);
}

void field_int(std::string& out, const char* name, std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  out += ",\"";
  out += name;
  out += "\":";
  out += buf;
}

void field_double(std::string& out, const char* name, double value) {
  out += ",\"";
  out += name;
  out += "\":";
  out += fmt_double(value);
}

void field_bool(std::string& out, const char* name, bool value) {
  out += ",\"";
  out += name;
  out += "\":";
  out += value ? "true" : "false";
}

void append_event_jsonl(std::string& out, const trace::Event& e) {
  char head[64];
  std::snprintf(head, sizeof(head), "{\"t_ns\":%" PRId64 ",\"kind\":\"%s\"",
                static_cast<std::int64_t>(e.t), trace::to_string(e.kind));
  out += head;
  switch (e.kind) {
    case trace::Kind::kTcpState:
      field_int(out, "flow", e.id);
      field_str(out, "from", e.label);
      field_str(out, "to", e.label2);
      break;
    case trace::Kind::kCwnd:
      field_int(out, "flow", e.id);
      field_int(out, "cwnd", e.i0);
      field_int(out, "ssthresh", e.i1);
      break;
    case trace::Kind::kSrtt:
      field_int(out, "flow", e.id);
      field_int(out, "srtt_ns", e.i0);
      field_int(out, "rto_ns", e.i1);
      break;
    case trace::Kind::kSchedPick:
      field_int(out, "subflow", e.id);
      field_str(out, "iface", e.label);
      field_int(out, "data_seq", e.i0);
      field_int(out, "len", e.i1);
      break;
    case trace::Kind::kMpPrio:
      field_int(out, "subflow", e.id);
      field_str(out, "iface", e.label);
      field_bool(out, "backup", e.i0 != 0);
      field_str(out, "origin", e.label2);
      break;
    case trace::Kind::kModeChange:
      field_str(out, "from", e.label);
      field_str(out, "to", e.label2);
      field_double(out, "wifi_mbps", e.d0);
      field_double(out, "cell_mbps", e.d1);
      break;
    case trace::Kind::kRadioState:
      field_str(out, "iface", e.label);
      field_str(out, "state", e.label2);
      break;
    case trace::Kind::kEnergySample:
      field_str(out, "iface", e.label);
      field_double(out, "mbps", e.d0);
      field_double(out, "power_mw", e.d1);
      break;
    case trace::Kind::kChannelRate:
      field_str(out, "what", e.label);
      field_double(out, "mbps", e.d0);
      field_double(out, "extra", e.d1);
      break;
    case trace::Kind::kFlowStart:
      field_int(out, "flow", e.id);
      field_int(out, "bytes", e.i0);
      break;
    case trace::Kind::kFlowComplete:
      field_int(out, "flow", e.id);
      field_int(out, "bytes", e.i0);
      field_double(out, "fct_s", e.d0);
      field_double(out, "energy_j", e.d1);
      break;
    case trace::Kind::kFastpath:
      field_int(out, "flow", e.id);
      field_str(out, "state", e.label);
      field_str(out, "reason", e.label2);
      field_int(out, "pending", e.i0);
      field_double(out, "wifi_mbps", e.d0);
      field_double(out, "cell_mbps", e.d1);
      break;
    case trace::Kind::kWarning:
      field_str(out, "what", e.label);
      field_int(out, "v0", e.i0);
      field_int(out, "v1", e.i1);
      break;
  }
  out += "}\n";
}

}  // namespace

std::string trace_to_jsonl(const std::vector<trace::Event>& events,
                           const std::vector<trace::MetricSnapshot>& metrics) {
  std::string out;
  out.reserve(events.size() * 96 + metrics.size() * 48);
  for (const trace::Event& e : events) {
    append_event_jsonl(out, e);
  }
  for (const trace::MetricSnapshot& m : metrics) {
    out += "{\"metric\":";
    append_json_string(out, m.name);
    out += ",\"value\":";
    out += fmt_double(m.value);
    out += "}\n";
  }
  return out;
}

}  // namespace emptcp::stats
