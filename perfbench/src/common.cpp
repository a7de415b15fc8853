#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string_view>

#include "analysis/json.hpp"
#include "bench.hpp"
#include "net/packet_pool.hpp"
#include "runtime/telemetry.hpp"

namespace perfbench {
namespace {

/// "<key>:   123 kB" lines of /proc/self/status, in MB, read in one pass.
std::vector<double> status_mb(std::initializer_list<const char*> keys) {
  std::vector<double> out(keys.size(), 0.0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    std::size_t i = 0;
    for (const char* key : keys) {
      const std::size_t n = std::strlen(key);
      if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
        out[i] = std::stod(line.substr(n + 1)) / 1024.0;
      }
      ++i;
    }
  }
  return out;
}

/// How far VmHWM may sit above VmRSS right after a reset: the allocations
/// of reading /proc/self/status itself, with room to spare.
constexpr double kResetSlackMb = 1.0;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double rss_mb() { return status_mb({"VmRSS"})[0]; }
double peak_rss_mb() { return status_mb({"VmHWM"})[0]; }

void reset_peak_rss() {
  malloc_trim(0);
  // "5" resets the peak-RSS counter of this process (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  const std::vector<double> mb = status_mb({"VmRSS", "VmHWM"});
  if (!out || mb[1] - mb[0] > kResetSlackMb) {
    throw std::runtime_error(
        fmt("cannot reset the peak resident memory (/proc/self/clear_refs): "
            "VmHWM %.1f MB stays above VmRSS %.1f MB, so peak_rss_mb would "
            "include earlier work",
            mb[1], mb[0]));
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> table = {
      {"sim.events", "count", "client_s_per_s", "sharded_fleet"},
      {"sim.ns_per_event", "ns", "client_s_per_s", "sharded_fleet"},
      {"sim.slab_slots", "count", "peak_rss_mb", "sharded_fleet"},
      {"sim.pool_slots", "count", "peak_rss_mb", "sharded_fleet"},
      {"shard.epochs", "count", "wall_s", "sharded_fleet"},
      {"shard.events_per_epoch", "count", "wall_s", "sharded_fleet"},
      {"shard.cross_messages", "count", "wall_s", "sharded_fleet"},
      {"shard.imbalance_pct_p90", "%", "wall_s", "sharded_fleet"},
      {"shard.busy_s", "s", "wall_s", "sharded_fleet"},
      {"shard.wait_s", "s", "wall_s", "sharded_fleet"},
      {"shard.parallel_eff", "ratio", "no timed metric (2-shard twin only)",
       "sharded_fleet"},
      {"net.packets", "count", "wall_s", "sharded_fleet"},
      {"net.queue_drops", "count", "wall_s", "sharded_fleet"},
      {"net.loss_drops", "count", "wall_s", "sharded_fleet"},
      {"net.rate_changes", "count", "client_s_per_s", "hybrid_fleet"},
      {"tcp.retransmits", "count", "wall_s", "sharded_fleet"},
      {"tcp.rtos", "count", "wall_s", "sharded_fleet"},
      {"tcp.fast_recoveries", "count", "wall_s", "sharded_fleet"},
      {"tcp.state_changes", "count", "wall_s", "paper_campaign"},
      {"tcp.cwnd_updates", "count", "wall_s", "sharded_fleet"},
      {"tcp.retx_per_mb", "1/MB", "wall_s", "sharded_fleet"},
      {"mptcp.sched_picks", "count", "client_s_per_s", "sharded_fleet"},
      {"mptcp.mp_prio_changes", "count", "client_s_per_s", "sharded_fleet"},
      {"mptcp.reinjected_chunks", "count", "client_s_per_s", "sharded_fleet"},
      {"core.mode_changes", "count", "wall_s", "hybrid_fleet"},
      {"core.cellular_activations", "count", "wall_s", "hybrid_fleet"},
      {"energy.samples", "count", "client_s_per_s", "hybrid_fleet"},
      {"energy.radio_transitions", "count", "client_s_per_s", "hybrid_fleet"},
      {"energy.idle_sample_share", "ratio", "client_s_per_s", "hybrid_fleet"},
      {"fastpath.fluid_share", "ratio", "client_s_per_s", "hybrid_fleet"},
      {"fastpath.entries", "count", "client_s_per_s", "hybrid_fleet"},
      {"fastpath.event_reduction", "ratio", "client_s_per_s", "hybrid_fleet"},
      {"fastpath.fidelity_err_pct", "%", "client_s_per_s", "hybrid_fleet"},
      {"workload.flows_started", "count", "wall_s", "sharded_fleet"},
      {"workload.flows_completed", "count", "wall_s", "sharded_fleet"},
      {"workload.finish_s", "s", "wall_s", "sharded_fleet"},
      {"campaign.run_s", "s", "wall_s", "paper_campaign"},
      {"campaign.cell_s_p50", "s", "wall_s", "paper_campaign"},
      {"campaign.cell_s_tail", "s", "wall_s", "paper_campaign"},
      {"campaign.worker_busy_share", "ratio", "wall_s", "paper_campaign"},
      {"trace.events", "count", "peak_rss_mb", "paper_campaign"},
      {"trace.overhead_pct", "%", "wall_s", "all"},
      {"stats.jsonl_mb", "MB", "wall_s", "paper_campaign"},
      {"stats.jsonl_s", "s", "wall_s", "paper_campaign"},
      {"stats.write_s", "s", "wall_s", "paper_campaign"},
      {"analysis.digest_s", "s", "wall_s", "paper_campaign"},
      {"analysis.load_s", "s", "wall_s", "paper_campaign"},
      {"analysis.render_s", "s", "wall_s", "paper_campaign"},
      {"analysis.parse_mb_per_s", "MB/s", "wall_s", "paper_campaign"},
  };
  return table;
}

void Counts::add(const Counts& o) {
  events += o.events;
  slab_slots += o.slab_slots;
  pool_slots += o.pool_slots;
  packets += o.packets;
  queue_drops += o.queue_drops;
  loss_drops += o.loss_drops;
  rate_changes += o.rate_changes;
  retransmits += o.retransmits;
  rtos += o.rtos;
  fast_recoveries += o.fast_recoveries;
  state_changes += o.state_changes;
  cwnd_updates += o.cwnd_updates;
  sched_picks += o.sched_picks;
  mp_prio_changes += o.mp_prio_changes;
  reinjected_chunks += o.reinjected_chunks;
  mode_changes += o.mode_changes;
  cellular_activations += o.cellular_activations;
  energy_samples += o.energy_samples;
  energy_windows += o.energy_windows;
  idle_windows += o.idle_windows;
  radio_transitions += o.radio_transitions;
  trace_events += o.trace_events;
  delivered_bytes += o.delivered_bytes;
  flows_started += o.flows_started;
  flows_completed += o.flows_completed;
}

std::uint64_t Counts::digest() const {
  // Every field is a uint64_t, so the struct has no padding to hash.
  static_assert(sizeof(Counts) % sizeof(std::uint64_t) == 0);
  emptcp::analysis::Fnv1a64Stream h;
  hash_value(h, *this);
  return h.value();
}

void count_trace(const std::vector<emptcp::trace::Event>& events, Counts& c) {
  using emptcp::trace::Kind;
  bool in_window = false;
  bool window_moved = false;
  emptcp::sim::Time window_t = 0;
  const auto close_window = [&] {
    if (!in_window) return;
    ++c.energy_windows;
    if (!window_moved) ++c.idle_windows;
  };
  for (const emptcp::trace::Event& e : events) {
    switch (e.kind) {
      case Kind::kTcpState: ++c.state_changes; break;
      case Kind::kCwnd: ++c.cwnd_updates; break;
      case Kind::kSchedPick: ++c.sched_picks; break;
      case Kind::kMpPrio: ++c.mp_prio_changes; break;
      case Kind::kModeChange: ++c.mode_changes; break;
      case Kind::kRadioState: ++c.radio_transitions; break;
      case Kind::kChannelRate: ++c.rate_changes; break;
      case Kind::kEnergySample: {
        // One sampling window = the samples sharing a timestamp; the
        // platform line carries no bytes of its own.
        if (!in_window || e.t != window_t) {
          close_window();
          in_window = true;
          window_moved = false;
          window_t = e.t;
        }
        if (e.label == nullptr || std::string_view(e.label) != "platform") {
          ++c.energy_samples;
          if (e.d0 > 0.0) window_moved = true;
        }
        break;
      }
      default: break;
    }
  }
  close_window();
  c.trace_events += events.size();
}

void count_metrics(const std::vector<emptcp::trace::MetricSnapshot>& snap,
                   Counts& c) {
  for (const auto& m : snap) {
    const auto v = static_cast<std::uint64_t>(m.value);
    if (m.name == "tcp.retransmits") c.retransmits += v;
    else if (m.name == "tcp.rtos") c.rtos += v;
    else if (m.name == "tcp.fast_recoveries") c.fast_recoveries += v;
    else if (m.name == "mptcp.reinjected_chunks") c.reinjected_chunks += v;
  }
}

void count_world(emptcp::app::World& w, Counts& c) {
  c.events += w.sim.scheduler().events_executed();
  c.slab_slots += w.sim.scheduler().slab_size();
  c.pool_slots += w.sim.context<emptcp::net::PacketPool>().allocated();
  for (const auto* l :
       {w.wifi_acc_up.get(), w.wifi_wan_up.get(), w.wifi_wan_down.get(),
        w.wifi_acc_down.get(), w.cell_acc_up.get(), w.cell_wan_up.get(),
        w.cell_wan_down.get(), w.cell_acc_down.get()}) {
    c.packets += l->delivered_packets();
    c.queue_drops += l->dropped_queue();
    c.loss_drops += l->dropped_loss();
  }
  c.cellular_activations +=
      static_cast<std::uint64_t>(w.cell_radio.activations());
  count_metrics(w.sim.trace().metrics().snapshot(), c);
  count_trace(w.sim.trace().events(), c);
}

std::map<std::string, double> count_layers(const Counts& c) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", d(c.events)},
      {"sim.slab_slots", d(c.slab_slots)},
      {"sim.pool_slots", d(c.pool_slots)},
      {"net.packets", d(c.packets)},
      {"net.queue_drops", d(c.queue_drops)},
      {"net.loss_drops", d(c.loss_drops)},
      {"net.rate_changes", d(c.rate_changes)},
      {"tcp.retransmits", d(c.retransmits)},
      {"tcp.rtos", d(c.rtos)},
      {"tcp.fast_recoveries", d(c.fast_recoveries)},
      {"tcp.state_changes", d(c.state_changes)},
      {"tcp.cwnd_updates", d(c.cwnd_updates)},
      {"tcp.retx_per_mb", d(c.retransmits) / (d(c.delivered_bytes) / 1e6)},
      {"mptcp.sched_picks", d(c.sched_picks)},
      {"mptcp.mp_prio_changes", d(c.mp_prio_changes)},
      {"mptcp.reinjected_chunks", d(c.reinjected_chunks)},
      {"core.mode_changes", d(c.mode_changes)},
      {"core.cellular_activations", d(c.cellular_activations)},
      {"energy.samples", d(c.energy_samples)},
      {"energy.radio_transitions", d(c.radio_transitions)},
      {"energy.idle_sample_share",
       d(c.idle_windows) / d(std::max<std::uint64_t>(c.energy_windows, 1))},
      {"workload.flows_started", d(c.flows_started)},
      {"workload.flows_completed", d(c.flows_completed)},
      {"trace.events", d(c.trace_events)},
  };
}

std::string per_ack_note(const Counts& c) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return fmt("per-ACK work: tcp.cwnd_updates + mptcp.sched_picks are %.1f %% "
             "of the %llu retained trace events; %.3f net.packets per "
             "sim.event",
             100.0 * d(c.cwnd_updates + c.sched_picks) /
                 d(std::max<std::uint64_t>(c.trace_events, 1)),
             static_cast<unsigned long long>(c.trace_events),
             d(c.packets) / d(std::max<std::uint64_t>(c.events, 1)));
}

std::map<std::string, SpanTime> span_times() {
  struct Span {
    std::string ph;
    long tid = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t depth = 0;
    std::string name;
    std::uint64_t child_ns = 0;
  };
  // The Chrome export is the only public view of every thread's spans;
  // parse_json_flat flattens it to "traceEvents.<i>.<field>" pairs.
  const auto doc = emptcp::analysis::parse_json_flat(
      emptcp::runtime::Telemetry::instance().to_chrome_json());
  if (!doc) return {};
  const auto ns = [](double us) {
    return static_cast<std::uint64_t>(us * 1000.0 + 0.5);
  };
  std::map<long, std::vector<Span>> by_thread;
  Span cur;
  std::string cur_index;
  const auto flush = [&] {
    if (cur.ph == "X") by_thread[cur.tid].push_back(cur);
    cur = Span{};
  };
  constexpr std::string_view kPrefix = "traceEvents.";
  for (const auto& [key, value] : *doc) {
    if (key.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    const std::size_t dot = key.find('.', kPrefix.size());
    if (dot == std::string::npos) continue;
    const std::string index = key.substr(kPrefix.size(), dot - kPrefix.size());
    if (index != cur_index) {
      flush();
      cur_index = index;
    }
    const std::string_view field = std::string_view(key).substr(dot + 1);
    if (field == "ph") cur.ph = value.str;
    else if (field == "tid") cur.tid = static_cast<long>(value.num);
    else if (field == "ts") cur.start_ns = ns(value.num);
    else if (field == "dur") cur.dur_ns = ns(value.num);
    else if (field == "name") cur.name = value.str;
    else if (field == "args.depth") cur.depth = static_cast<std::uint64_t>(value.num);
  }
  flush();

  std::map<std::string, SpanTime> out;
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                      : a.depth < b.depth;
    });
    // A span's parent is the innermost open span one level up.
    std::vector<Span*> open;
    for (Span& sp : spans) {
      while (!open.empty() && open.back()->depth >= sp.depth) open.pop_back();
      if (!open.empty() && open.back()->depth + 1 == sp.depth) {
        open.back()->child_ns += sp.dur_ns;
      }
      open.push_back(&sp);
    }
    for (const Span& sp : spans) {
      SpanTime& t = out[sp.name];
      ++t.count;
      t.total_s += static_cast<double>(sp.dur_ns) * 1e-9;
      t.self_s +=
          static_cast<double>(sp.dur_ns - std::min(sp.dur_ns, sp.child_ns)) *
          1e-9;
      t.durations_s.push_back(static_cast<double>(sp.dur_ns) * 1e-9);
    }
  }
  return out;
}

}  // namespace perfbench
