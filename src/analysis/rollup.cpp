#include "analysis/rollup.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

namespace emptcp::analysis {
namespace {

/// Tiny ordered map keyed by interface name; traces have at most a
/// handful of interfaces, so linear scans beat a real map here.
template <typename V>
V& slot_for(std::vector<std::pair<std::string, V>>& items,
            std::string_view key) {
  for (auto& [k, v] : items) {
    if (k == key) return v;
  }
  items.emplace_back(std::string(key), V{});
  return items.back().second;
}

}  // namespace

RollupBuilder::RollupBuilder(const RunManifest& manifest) {
  r_.group = manifest.group;
  r_.protocol = manifest.protocol;
  r_.workload = manifest.workload;
  r_.seed = manifest.seed;
}

bool RollupBuilder::feed(std::string_view chunk, std::string& err) {
  std::size_t pos = 0;
  for (;;) {
    const std::size_t nl = chunk.find('\n', pos);
    if (nl == std::string_view::npos) {
      carry_.append(chunk.substr(pos));
      return true;
    }
    const std::string_view line = chunk.substr(pos, nl - pos);
    pos = nl + 1;
    if (carry_.empty()) {
      if (!fold(line, err)) return false;
    } else {
      carry_.append(line);
      if (!fold(carry_, err)) return false;
      carry_.clear();
    }
  }
}

bool RollupBuilder::close(std::string& err) {
  if (carry_.empty()) return true;
  const bool ok = fold(carry_, err);
  carry_.clear();
  return ok;
}

bool RollupBuilder::fold(std::string_view line, std::string& err) {
  ++line_no_;
  if (line.empty()) return true;
  if (!line_.scan(line, err)) {
    err = "line " + std::to_string(line_no_) + ": " + err;
    return false;
  }
  add(line_);
  return true;
}

void RollupBuilder::add(const TraceLine& e) {
  const TraceLine::Field* metric = e.find("metric");
  if (metric != nullptr && metric->type == TraceLine::Type::kString) {
    metrics_.emplace_back(std::string(metric->value), e.num("value", 0.0));
    return;
  }
  ++r_.events;
  const std::string_view kind = e.str("kind");
  if (kind == "sched_pick") {
    ++r_.sched_picks;
    slot_for(r_.sched_bytes_by_iface, e.str("iface")) +=
        static_cast<std::uint64_t>(e.num("len", 0.0));
  } else if (kind == "mp_prio") {
    if (e.num("backup", 0.0) != 0.0) {
      ++r_.suspends;
    } else {
      ++r_.resumes;
    }
  } else if (kind == "mode_change") {
    ++r_.mode_changes;
  } else if (kind == "radio_state") {
    ++r_.radio_transitions;
  } else if (kind == "energy_sample") {
    // Per-interface integrator: every EnergyTracker samples on a fixed
    // cadence from t=0, each sample reporting the mean power over the
    // window that *ends* at the sample time. A sharded fleet merges one
    // co-timed sample per cell per window under the same interface name;
    // each integrates over the shared timestep, so the co-timed powers
    // sum instead of the followers collapsing into zero-width gaps.
    const double t_s = e.num("t_ns", 0.0) * 1e-9;
    SampleStep& prev = slot_for(prev_sample_t_, e.str("iface"));
    if (t_s > prev.t) {
      prev.step = t_s - prev.t;
      prev.t = t_s;
    }
    const double power_mw = e.num("power_mw", 0.0);
    if (prev.step > 0.0) {
      r_.integrated_energy_j += power_mw * 1e-3 * prev.step;
    }
    power_.add(t_s, power_mw);
  } else if (kind == "flow_start") {
    ++r_.flows_started;
  } else if (kind == "flow_complete") {
    ++r_.flows_completed;
    const double fct = e.num("fct_s", 0.0);
    if (fct > 0.0) r_.flow_fct_s.add(fct);
    const double bytes = e.num("bytes", 0.0);
    const double energy = e.num("energy_j", 0.0);
    if (bytes > 0.0) r_.flow_epb_uj.add(energy * 1e6 / (bytes * 8.0));
    r_.flows.push_back({static_cast<std::uint64_t>(e.num("flow", 0.0)),
                        bytes, fct, energy});
  } else if (kind == "stream") {
    r_.streams.push_back({e.num("startup_s", 0.0), e.num("stall_s", 0.0),
                          e.num("rebuffers", 0.0)});
  } else if (kind == "warning") {
    ++r_.warnings;
  }
}

RunRollup RollupBuilder::finish() const {
  RunRollup r = r_;
  // First wins, as for duplicate keys within a line.
  const auto metric = [this](std::string_view name) {
    for (const auto& [k, v] : metrics_) {
      if (k == name) return v;
    }
    return 0.0;
  };
  const auto count = [&](std::string_view name) {
    return static_cast<std::uint64_t>(metric(name));
  };
  r.completed = metric("run.completed") != 0.0;
  r.time_s = metric("run.download_time_s");
  r.energy_j = metric("run.energy_j");
  r.wifi_j = metric("run.wifi_j");
  r.cell_j = metric("run.cell_j");
  r.bytes = count("run.bytes_received");
  r.retransmits = count("tcp.retransmits");
  r.rtos = count("tcp.rtos");
  r.fast_recoveries = count("tcp.fast_recoveries");
  r.reinjections = count("mptcp.reinjected_chunks");
  r.sim_events = count("sim.events_executed");
  r.sched_picks += count("trace.elided.sched_pick");
  constexpr std::string_view kElidedBytes = "trace.elided.sched_pick.bytes.";
  for (const auto& [k, v] : metrics_) {
    if (std::string_view(k).starts_with(kElidedBytes)) {
      slot_for(r.sched_bytes_by_iface,
               std::string_view(k).substr(kElidedBytes.size())) +=
          static_cast<std::uint64_t>(v);
    }
  }
  std::sort(r.sched_bytes_by_iface.begin(), r.sched_bytes_by_iface.end());
  return r;
}

double RunRollup::iface_share(std::string_view iface) const {
  std::uint64_t total = 0;
  std::uint64_t mine = 0;
  for (const auto& [k, v] : sched_bytes_by_iface) {
    total += v;
    if (k == iface) mine = v;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(mine) / static_cast<double>(total);
}

}  // namespace emptcp::analysis
