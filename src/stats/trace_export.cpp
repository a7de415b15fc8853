#include "stats/trace_export.hpp"

#include <charconv>
#include <cstring>
#include <fstream>

#include "stats/csv.hpp"
#include "stats/digest.hpp"

namespace emptcp::stats {
namespace {

/// Every line's keys, punctuation, kind name and up to six numbers fit in
/// this many bytes; only its strings can add more (6 bytes per escaped
/// byte, plus the quotes).
constexpr std::size_t kLineFixedBytes = 320;
/// The streamed writers hand out whole lines in chunks of about this size.
constexpr std::size_t kChunkBytes = 256 * 1024;

std::size_t label_room(const char* label) {
  return label == nullptr ? 0 : 6 * std::strlen(label);
}

/// Writes one line into room the caller reserved.
class Line {
 public:
  explicit Line(char* p) : p_(p) {}
  [[nodiscard]] char* end() const { return p_; }

  void raw(std::string_view s) {
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }
  void int_value(std::int64_t v) {
    // At most 20 characters: "-9223372036854775808".
    p_ = std::to_chars(p_, p_ + 20, v).ptr;
  }
  void double_value(double v) { p_ = write_double(p_, v); }
  void string_value(std::string_view v) { p_ = write_json_string(p_, v); }

  void key(std::string_view name) {
    raw(",\"");
    raw(name);
    raw("\":");
  }
  void field_int(std::string_view name, std::int64_t v) {
    key(name);
    int_value(v);
  }
  void field_double(std::string_view name, double v) {
    key(name);
    double_value(v);
  }
  void field_str(std::string_view name, const char* v) {
    key(name);
    string_value(v == nullptr ? "" : v);
  }
  void field_bool(std::string_view name, bool v) {
    key(name);
    raw(v ? "true" : "false");
  }

 private:
  char* p_;
};

/// Room append_event needs for `e`.
std::size_t line_bound(const trace::Event& e) {
  return kLineFixedBytes + label_room(e.label) + label_room(e.label2);
}

/// The one event appender: writes `e`'s JSONL line at `p`, returns its end.
char* append_event(char* p, const trace::Event& e) {
  Line out(p);
  out.raw("{\"t_ns\":");
  out.int_value(static_cast<std::int64_t>(e.t));
  out.raw(",\"kind\":\"");
  out.raw(trace::to_string(e.kind));
  out.raw("\"");
  switch (e.kind) {
    case trace::Kind::kTcpState:
      out.field_int("flow", e.id);
      out.field_str("from", e.label);
      out.field_str("to", e.label2);
      break;
    case trace::Kind::kCwnd:
      out.field_int("flow", e.id);
      out.field_int("cwnd", e.i0);
      out.field_int("ssthresh", e.i1);
      break;
    case trace::Kind::kSrtt:
      out.field_int("flow", e.id);
      out.field_int("srtt_ns", e.i0);
      out.field_int("rto_ns", e.i1);
      break;
    case trace::Kind::kSchedPick:
      out.field_int("subflow", e.id);
      out.field_str("iface", e.label);
      out.field_int("data_seq", e.i0);
      out.field_int("len", e.i1);
      break;
    case trace::Kind::kMpPrio:
      out.field_int("subflow", e.id);
      out.field_str("iface", e.label);
      out.field_bool("backup", e.i0 != 0);
      out.field_str("origin", e.label2);
      break;
    case trace::Kind::kModeChange:
      out.field_str("from", e.label);
      out.field_str("to", e.label2);
      out.field_double("wifi_mbps", e.d0);
      out.field_double("cell_mbps", e.d1);
      break;
    case trace::Kind::kRadioState:
      out.field_str("iface", e.label);
      out.field_str("state", e.label2);
      break;
    case trace::Kind::kEnergySample:
      out.field_str("iface", e.label);
      out.field_double("mbps", e.d0);
      out.field_double("power_mw", e.d1);
      break;
    case trace::Kind::kChannelRate:
      out.field_str("what", e.label);
      out.field_double("mbps", e.d0);
      out.field_double("extra", e.d1);
      break;
    case trace::Kind::kFlowStart:
      out.field_int("flow", e.id);
      out.field_int("bytes", e.i0);
      break;
    case trace::Kind::kFlowComplete:
      out.field_int("flow", e.id);
      out.field_int("bytes", e.i0);
      out.field_double("fct_s", e.d0);
      out.field_double("energy_j", e.d1);
      break;
    case trace::Kind::kStream:
      out.field_int("flow", e.id);
      out.field_double("startup_s", e.d0);
      out.field_double("stall_s", e.d1);
      out.field_int("rebuffers", e.i0);
      break;
    case trace::Kind::kFastpath:
      out.field_int("flow", e.id);
      out.field_str("state", e.label);
      out.field_str("reason", e.label2);
      out.field_int("pending", e.i0);
      out.field_double("wifi_mbps", e.d0);
      out.field_double("cell_mbps", e.d1);
      break;
    case trace::Kind::kWarning:
      out.field_str("what", e.label);
      out.field_int("v0", e.i0);
      out.field_int("v1", e.i1);
      break;
  }
  out.raw("}\n");
  return out.end();
}

std::size_t metric_bound(const trace::MetricSnapshot& m) {
  return kLineFixedBytes + 6 * m.name.size();
}

char* append_metric(char* p, const trace::MetricSnapshot& m) {
  Line out(p);
  out.raw("{\"metric\":");
  out.string_value(m.name);
  out.raw(",\"value\":");
  out.double_value(m.value);
  out.raw("}\n");
  return out.end();
}

/// Formats every line into one bounded buffer and hands `sink` each
/// chunk of whole lines as the buffer fills, then the rest. Stops, false,
/// at the first chunk the sink refuses.
template <typename Sink>
bool stream_jsonl(const std::vector<trace::Event>& events,
                  const std::vector<trace::MetricSnapshot>& metrics,
                  Sink&& sink) {
  std::vector<char> buf(kChunkBytes);
  std::size_t used = 0;
  const auto room = [&](std::size_t need) -> char* {
    if (used + need > buf.size()) {
      if (used > 0 && !sink(std::string_view(buf.data(), used))) {
        return nullptr;
      }
      used = 0;
      if (need > buf.size()) buf.resize(need);
    }
    return buf.data() + used;
  };
  for (const trace::Event& e : events) {
    char* const p = room(line_bound(e));
    if (p == nullptr) return false;
    used = static_cast<std::size_t>(append_event(p, e) - buf.data());
  }
  for (const trace::MetricSnapshot& m : metrics) {
    char* const p = room(metric_bound(m));
    if (p == nullptr) return false;
    used = static_cast<std::size_t>(append_metric(p, m) - buf.data());
  }
  return used == 0 || sink(std::string_view(buf.data(), used));
}

}  // namespace

std::string trace_to_jsonl(const std::vector<trace::Event>& events,
                           const std::vector<trace::MetricSnapshot>& metrics) {
  std::string out;
  out.reserve(events.size() * 96 + metrics.size() * 48);
  stream_jsonl(events, metrics, [&out](std::string_view chunk) {
    out.append(chunk);
    return true;
  });
  return out;
}

bool write_trace_jsonl(const std::string& path,
                       const std::vector<trace::Event>& events,
                       const std::vector<trace::MetricSnapshot>& metrics,
                       std::string& digest_hex) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  Fnv1a64Stream digest;
  const bool streamed =
      stream_jsonl(events, metrics, [&](std::string_view chunk) {
        digest.update(chunk);
        out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        return static_cast<bool>(out);
      });
  out.close();
  if (!streamed || out.fail()) return false;
  digest_hex = digest.hex();
  return true;
}

}  // namespace emptcp::stats
