// Trace levels: a decisions-level trace is the full trace with the
// per-ACK kinds (cwnd, srtt, sched_pick) replaced by trace.elided.* counts.
//
// Checked on eMPTCP and MPTCP, each on a closed ClientFleet and on a
// two-cell ShardedFleet with cross-cell traffic:
//   * every rollup field but the retained-line count agrees at both levels,
//   * the decisions JSONL is the full JSONL without its per-ACK lines, plus
//     count lines whose values are the counts of the lines removed,
//   * an oracle runs the same number of checks at both levels, since it
//     observes every event whatever the sink keeps.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/manifest.hpp"
#include "analysis/rollup.hpp"
#include "analysis/trace_line.hpp"
#include "app/world.hpp"
#include "check/oracle.hpp"
#include "sim/shard_engine.hpp"
#include "stats/trace_export.hpp"
#include "trace/sink.hpp"
#include "workload/fleet.hpp"
#include "workload/sharded_fleet.hpp"

namespace emptcp {
namespace {

constexpr std::string_view kElided = "trace.elided.";

struct Case {
  const char* name;
  app::Protocol protocol;
  bool sharded;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases{
      {"emptcp-fleet", app::Protocol::kEmptcp, false},
      {"mptcp-fleet", app::Protocol::kMptcp, false},
      {"emptcp-sharded", app::Protocol::kEmptcp, true},
      {"mptcp-sharded", app::Protocol::kMptcp, true},
  };
  return kCases;
}

workload::FleetConfig config(const Case& c, trace::Level level) {
  workload::FleetConfig cfg;
  cfg.scenario.wifi.down_mbps = 20.0;
  cfg.scenario.cell.down_mbps = 10.0;
  cfg.scenario.record_series = false;
  cfg.scenario.trace = true;
  cfg.scenario.trace_level = level;
  cfg.protocol = c.protocol;
  cfg.mode = workload::FleetConfig::Mode::kClosed;
  cfg.clients = 4;
  cfg.flows_per_client = 2;
  cfg.flow_size.kind = workload::SizeDist::Kind::kFixed;
  cfg.flow_size.mean_bytes = 200 * 1024;
  if (c.sharded) {
    cfg.sharding.clients_per_cell = 2;  // -> 2 cells
    cfg.sharding.shards = 2;
    cfg.sharding.cross_every = 2;       // every 2nd flow crosses cells
  }
  return cfg;
}

struct Outcome {
  std::string jsonl;
  std::uint64_t oracle_checks = 0;
  bool oracle_ok = true;
};

/// One run with an oracle on every World, driven as run() drives it.
Outcome run(const Case& c, trace::Level level) {
  const workload::FleetConfig cfg = config(c, level);
  constexpr std::uint64_t kSeed = 5;
  std::vector<std::unique_ptr<check::Oracle>> oracles;
  const auto watch = [&oracles](app::World& w) {
    oracles.push_back(std::make_unique<check::Oracle>());
    oracles.back()->attach(w.sim);
  };
  workload::FleetMetrics m;
  if (c.sharded) {
    workload::ShardedFleet fleet(cfg);
    fleet.start(kSeed);
    for (std::size_t i = 0; i < fleet.cell_count(); ++i) {
      watch(fleet.cell_world(i));
    }
    fleet.engine().run_until(cfg.scenario.max_sim_time, [&] {
      return fleet.flows_completed() == cfg.total_flows();
    });
    m = fleet.finish();
    for (auto& o : oracles) o->detach();
  } else {
    workload::ClientFleet fleet(cfg);
    fleet.start(kSeed);
    watch(fleet.world());
    app::advance_until(fleet.world(), [&] { return fleet.done(); },
                       cfg.scenario.max_sim_time);
    m = fleet.finish();
    for (auto& o : oracles) o->detach();
  }
  EXPECT_EQ(m.flows_completed, cfg.total_flows()) << c.name;
  Outcome r;
  r.jsonl = stats::trace_to_jsonl(m.run.trace_events, m.run.trace_metrics);
  for (const auto& o : oracles) {
    r.oracle_checks += o->checks_run();
    r.oracle_ok = r.oracle_ok && o->ok();
  }
  return r;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

analysis::RunRollup rollup(const std::string& jsonl) {
  analysis::RunManifest manifest;
  manifest.group = "level";
  analysis::RollupBuilder b(manifest);
  std::string err;
  EXPECT_TRUE(b.feed(jsonl, err) && b.close(err)) << err;
  return b.finish();
}

void expect_same_histogram(const analysis::LogHistogram& a,
                           const analysis::LogHistogram& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  const auto ca = a.cdf();
  const auto cb = b.cdf();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].upper, cb[i].upper);
    EXPECT_EQ(ca[i].fraction, cb[i].fraction);
  }
}

TEST(TraceLevelTest, SinkCountsPerAckKindsOnlyAtDecisions) {
  trace::TraceSink full;
  full.enable();
  full.cwnd(1, 7, 14480, 65535);
  full.sched_pick(2, 1, "wifi", 0, 1448);
  EXPECT_EQ(full.size(), 2u);
  EXPECT_TRUE(full.metrics().counters().empty());

  trace::TraceSink sink;
  sink.set_level(trace::Level::kDecisions);
  sink.enable();
  sink.tcp_state(0, 7, "SYN_SENT", "ESTABLISHED");
  sink.cwnd(1, 7, 14480, 65535);
  sink.srtt(1, 7, 30'000'000, 200'000'000);
  sink.sched_pick(2, 1, "wifi", 0, 1448);
  sink.sched_pick(3, 2, "lte", 1448, 1000);
  sink.sched_pick(4, 1, "wifi", 2448, 1448);
  sink.mp_prio(5, 2, "lte", true, "local");

  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].kind, trace::Kind::kTcpState);
  EXPECT_EQ(sink.events()[1].kind, trace::Kind::kMpPrio);
  // The flight recorder still sees every event.
  EXPECT_EQ(sink.flight().total(), 7u);

  std::map<std::string, double> counts;
  for (const auto& s : sink.metrics().snapshot()) counts[s.name] = s.value;
  const std::map<std::string, double> expected{
      {"trace.elided.cwnd", 1},
      {"trace.elided.srtt", 1},
      {"trace.elided.sched_pick", 3},
      {"trace.elided.sched_pick.bytes.wifi", 2896},
      {"trace.elided.sched_pick.bytes.lte", 1000},
  };
  EXPECT_EQ(counts, expected);
}

TEST(TraceLevelTest, RollupsAgreeExceptRetainedLines) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const analysis::RunRollup f = rollup(run(c, trace::Level::kFull).jsonl);
    const analysis::RunRollup d =
        rollup(run(c, trace::Level::kDecisions).jsonl);
    // Non-vacuous: the full trace has per-ACK lines to elide.
    ASSERT_GT(f.sched_picks, 0u);
    EXPECT_GT(f.events, d.events);

    EXPECT_EQ(f.completed, d.completed);
    EXPECT_EQ(f.time_s, d.time_s);
    EXPECT_EQ(f.energy_j, d.energy_j);
    EXPECT_EQ(f.wifi_j, d.wifi_j);
    EXPECT_EQ(f.cell_j, d.cell_j);
    EXPECT_EQ(f.bytes, d.bytes);
    EXPECT_EQ(f.integrated_energy_j, d.integrated_energy_j);
    EXPECT_EQ(f.sched_picks, d.sched_picks);
    EXPECT_EQ(f.sched_bytes_by_iface, d.sched_bytes_by_iface);
    EXPECT_EQ(f.suspends, d.suspends);
    EXPECT_EQ(f.resumes, d.resumes);
    EXPECT_EQ(f.mode_changes, d.mode_changes);
    EXPECT_EQ(f.radio_transitions, d.radio_transitions);
    EXPECT_EQ(f.warnings, d.warnings);
    EXPECT_EQ(f.sim_events, d.sim_events);
    EXPECT_GT(d.sim_events, 0u);
    EXPECT_EQ(f.retransmits, d.retransmits);
    EXPECT_EQ(f.rtos, d.rtos);
    EXPECT_EQ(f.fast_recoveries, d.fast_recoveries);
    EXPECT_EQ(f.reinjections, d.reinjections);
    EXPECT_EQ(f.flows_started, d.flows_started);
    EXPECT_EQ(f.flows_completed, d.flows_completed);
    expect_same_histogram(f.flow_fct_s, d.flow_fct_s);
    expect_same_histogram(f.flow_epb_uj, d.flow_epb_uj);
    ASSERT_EQ(f.flows.size(), d.flows.size());
    for (std::size_t i = 0; i < f.flows.size(); ++i) {
      EXPECT_EQ(f.flows[i].flow, d.flows[i].flow);
      EXPECT_EQ(f.flows[i].bytes, d.flows[i].bytes);
      EXPECT_EQ(f.flows[i].fct_s, d.flows[i].fct_s);
      EXPECT_EQ(f.flows[i].energy_j, d.flows[i].energy_j);
    }
  }
}

TEST(TraceLevelTest, DecisionsJsonlIsFullWithoutPerAckLinesPlusCounts) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const std::string full = run(c, trace::Level::kFull).jsonl;
    const std::string decisions = run(c, trace::Level::kDecisions).jsonl;

    // full minus its per-ACK lines, counting what goes.
    analysis::TraceLine line;
    std::string err;
    std::vector<std::string> kept_full;
    std::map<std::string, double> removed;
    for (const std::string& text : lines_of(full)) {
      ASSERT_TRUE(line.scan(text, err)) << err;
      const std::string_view kind = line.str("kind");
      if (kind == "cwnd" || kind == "srtt" || kind == "sched_pick") {
        removed[std::string(kElided) + std::string(kind)] += 1;
        if (kind == "sched_pick") {
          removed[std::string(kElided) + "sched_pick.bytes." +
                  std::string(line.str("iface"))] += line.num("len", 0.0);
        }
      } else {
        kept_full.push_back(text);
      }
    }
    ASSERT_GT(removed.size(), 0u);

    // decisions minus its count lines.
    std::vector<std::string> kept_decisions;
    std::map<std::string, double> counted;
    for (const std::string& text : lines_of(decisions)) {
      ASSERT_TRUE(line.scan(text, err)) << err;
      const std::string_view metric = line.str("metric");
      if (metric.starts_with(kElided)) {
        counted[std::string(metric)] = line.num("value", -1.0);
      } else {
        kept_decisions.push_back(text);
      }
    }
    EXPECT_EQ(kept_full, kept_decisions);
    EXPECT_EQ(removed, counted);
  }
}

TEST(TraceLevelTest, OracleRunsSameChecksAtBothLevels) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Outcome f = run(c, trace::Level::kFull);
    const Outcome d = run(c, trace::Level::kDecisions);
    EXPECT_TRUE(f.oracle_ok);
    EXPECT_TRUE(d.oracle_ok);
    EXPECT_GT(f.oracle_checks, 0u);
    EXPECT_EQ(f.oracle_checks, d.oracle_checks);
  }
}

}  // namespace
}  // namespace emptcp
