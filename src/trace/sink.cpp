#include "trace/sink.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace emptcp::trace {
namespace {
thread_local TraceSink* t_current_sink = nullptr;

/// Per-process ordinal of the calling thread, assigned on first use —
/// cheap worker identity for dump paths (thread::id has no stable text).
std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

/// Keeps [A-Za-z0-9_-], maps everything else (slashes, dots, spaces,
/// gtest's '/' parameterized-test separators) to '-'.
std::string sanitize(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out += ok ? c : '-';
  }
  if (out.empty()) out = "dump";
  return out;
}

}  // namespace

std::string dump_flight_to_file(const FlightRecorder& fr,
                                std::string_view context,
                                std::string_view why) {
  const char* dir = std::getenv("EMPTCP_FLIGHT_DIR");
  if (dir == nullptr || *dir == '\0' || fr.total() == 0) return "";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; open decides
  static std::atomic<std::uint64_t> seq{0};
#ifdef _WIN32
  const auto pid = static_cast<unsigned long>(_getpid());
#else
  const auto pid = static_cast<unsigned long>(::getpid());
#endif
  const std::string path =
      std::string(dir) + "/" + sanitize(context) + "-p" +
      std::to_string(pid) + "-w" + std::to_string(thread_ordinal()) + "-" +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) +
      ".flight.txt";
  std::ofstream out(path, std::ios::binary);
  if (!out) return "";
  out << why << "\n" << fr.dump();
  out.flush();
  return out ? path : "";
}

TraceSink* current_sink() { return t_current_sink; }

namespace detail {
TraceSink* set_current_sink(TraceSink* s) {
  TraceSink* prev = t_current_sink;
  t_current_sink = s;
  return prev;
}
}  // namespace detail

std::vector<Event> FlightRecorder::tail() const {
  std::vector<Event> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = total_ - n;
  for (std::uint64_t i = first; i < total_; ++i) {
    out.push_back(ring_[i % kCapacity]);
  }
  return out;
}

std::string FlightRecorder::dump() const {
  // Raw record layout, self-contained (no dependency on the stats
  // exporters): forensic output for panic paths and test failures.
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "flight recorder: %" PRIu64 " events recorded, last %zu:\n",
                total_, size());
  out += buf;
  for (const Event& e : tail()) {
    std::snprintf(buf, sizeof(buf),
                  "  t=%" PRId64 " kind=%s id=%" PRIu32
                  " label=%s label2=%s i0=%" PRId64 " i1=%" PRId64
                  " d0=%g d1=%g\n",
                  static_cast<std::int64_t>(e.t), to_string(e.kind), e.id,
                  e.label == nullptr ? "-" : e.label,
                  e.label2 == nullptr ? "-" : e.label2, e.i0, e.i1, e.d0,
                  e.d1);
    out += buf;
  }
  return out;
}

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kTcpState: return "tcp_state";
    case Kind::kCwnd: return "cwnd";
    case Kind::kSrtt: return "srtt";
    case Kind::kSchedPick: return "sched_pick";
    case Kind::kMpPrio: return "mp_prio";
    case Kind::kModeChange: return "mode_change";
    case Kind::kRadioState: return "radio_state";
    case Kind::kEnergySample: return "energy_sample";
    case Kind::kChannelRate: return "channel_rate";
    case Kind::kFlowStart: return "flow_start";
    case Kind::kFlowComplete: return "flow_complete";
    case Kind::kStream: return "stream";
    case Kind::kFastpath: return "fastpath";
    case Kind::kWarning: return "warning";
  }
  return "?";
}

void TraceSink::set_level(Level level) {
  keep_ = level == Level::kFull ? ~std::uint32_t{0} : ~kPerAckKinds;
  for (unsigned k = 0; k < elided_.size(); ++k) {
    if ((keep_ & (std::uint32_t{1} << k)) == 0) {
      elided_[k] = &metrics_.counter(std::string("trace.elided.") +
                                     to_string(static_cast<Kind>(k)));
    }
  }
}

void TraceSink::elide(const Event& e) {
  elided_[static_cast<unsigned>(e.kind)]->add();
  if (e.kind != Kind::kSchedPick) return;
  // sched_pick: label = interface name, i1 = chunk length.
  Counter* bytes = nullptr;
  for (const auto& [iface, counter] : elided_bytes_) {
    if (iface == e.label) bytes = counter;
  }
  if (bytes == nullptr) {
    bytes = &metrics_.counter(std::string("trace.elided.sched_pick.bytes.") +
                              e.label);
    elided_bytes_.emplace_back(e.label, bytes);
  }
  bytes->add(static_cast<std::uint64_t>(e.i1));
}

Counter& Metrics::counter(std::string_view name) {
  for (Counter& c : counters_) {
    if (c.name_ == name) return c;
  }
  counters_.push_back(Counter(std::string(name)));
  return counters_.back();
}

Gauge& Metrics::gauge(std::string_view name) {
  for (Gauge& g : gauges_) {
    if (g.name_ == name) return g;
  }
  gauges_.push_back(Gauge(std::string(name)));
  return gauges_.back();
}

std::vector<MetricSnapshot> Metrics::snapshot() const {
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const Counter& c : counters_) {
    out.push_back({c.name(), static_cast<double>(c.value())});
  }
  for (const Gauge& g : gauges_) {
    out.push_back({g.name(), g.value()});
  }
  return out;
}

}  // namespace emptcp::trace
