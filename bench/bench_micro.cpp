// Micro-benchmarks and machine-readable perf harness.
//
// Two parts share this binary:
//  1. A google-benchmark suite guarding the hot paths of the simulator and
//     the eMPTCP components (run first, honours --benchmark_* flags).
//  2. A direct harness that measures the core envelope — scheduler
//     events/sec (steady state), packet-path packets/sec, heap
//     allocations/event and an end-to-end wall-clock figure — and writes
//     them to BENCH_core.json (path overridable via EMPTCP_BENCH_JSON) so
//     CI and later PRs can diff performance without parsing logs.
//
// The binary replaces global operator new/delete with counting versions;
// all figures below are deltas around the measured region, so the
// allocations/event figure is exact for this process.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "runtime/telemetry.hpp"
#include "app/fast_path.hpp"
#include "app/scenario.hpp"
#include "app/world.hpp"
#include "core/energy_info_base.hpp"
#include "core/holt_winters.hpp"
#include "energy/device_profile.hpp"
#include "net/link.hpp"
#include "sim/simulation.hpp"
#include "stats/csv.hpp"
#include "tcp/buffers.hpp"
#include "trace/trace.hpp"
#include "workload/fleet.hpp"
#include "workload/sharded_fleet.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: replace the global allocator for this binary only.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace emptcp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// EMPTCP_BENCH_QUICK shrinks the direct harness ~10x: deterministic
/// per-op figures (allocs, counts) are unaffected, rate figures get
/// noisier but stay well inside the diff gate's factor-5 tolerance. Used
/// by the tier-1 diff-gate test so it runs in seconds.
bool bench_quick() { return std::getenv("EMPTCP_BENCH_QUICK") != nullptr; }

// ---------------------------------------------------------------------------
// google-benchmark suite
// ---------------------------------------------------------------------------

// Cold shape: a fresh scheduler per iteration, so slab/heap growth is part
// of the measurement. Kept for continuity with earlier baselines.
void BM_SchedulerScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(i, [] {});
    }
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerScheduleAndRun);

// Steady state: one scheduler reused across iterations, the shape of a real
// run (a figure reproduction executes millions of events in one scheduler).
// Slab and heap capacity are warm, so this is the pure schedule+fire cost.
void BM_SchedulerSteadyState(benchmark::State& state) {
  sim::Scheduler sched;
  for (auto _ : state) {
    const sim::Time base = sched.now();
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(base + i, [] {});
    }
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerSteadyState);

// Packet forwarding through a two-hop link chain (access -> WAN), the
// per-packet path every simulated byte crosses.
void BM_LinkChainForward(benchmark::State& state) {
  sim::Simulation sim;
  net::Link::Config fast;
  fast.rate_mbps = 100000.0;
  fast.prop_delay = sim::microseconds(10);
  fast.queue_limit_bytes = 64 * 1024 * 1024;
  net::Link acc(sim, fast);
  net::Link wan(sim, fast);
  acc.chain_to(wan);
  std::uint64_t received = 0;
  wan.set_receiver([&received](const net::Packet&) { ++received; });
  net::Packet pkt;
  pkt.payload = 1448;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) acc.send(pkt);
    sim.run();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_LinkChainForward);

void BM_HoltWintersAddForecast(benchmark::State& state) {
  core::HoltWinters hw;
  double x = 1.0;
  for (auto _ : state) {
    hw.add(x);
    benchmark::DoNotOptimize(hw.forecast());
    x = x * 1.01 + 0.1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HoltWintersAddForecast);

void BM_ReassemblyInOrder(benchmark::State& state) {
  for (auto _ : state) {
    tcp::IntervalReassembly r(0);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      benchmark::DoNotOptimize(r.insert(i * 1448, 1448));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ReassemblyInOrder);

void BM_ReassemblyReversed(benchmark::State& state) {
  for (auto _ : state) {
    tcp::IntervalReassembly r(0);
    for (std::uint64_t i = 1000; i-- > 0;) {
      benchmark::DoNotOptimize(r.insert(i * 1448, 1448));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ReassemblyReversed);

void BM_EibGenerate(benchmark::State& state) {
  const energy::EnergyModel m = energy::DeviceProfile::galaxy_s3().model();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EnergyInfoBase::generate(m));
  }
}
BENCHMARK(BM_EibGenerate);

void BM_EibLookup(benchmark::State& state) {
  const core::EnergyInfoBase eib = core::EnergyInfoBase::generate(
      energy::DeviceProfile::galaxy_s3().model());
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eib.lookup(x, 10.0 - x));
    x += 0.37;
    if (x > 9.5) x = 0.1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EibLookup);

// The fully-disabled trace gate, as every instrumentation site pays it: a
// load of the sink's cached bool plus a branch. Must stay allocation-free.
void BM_TraceGateDisabled(benchmark::State& state) {
  sim::Simulation sim;
  sim.trace().flight_enable(false);
  std::uint64_t i = 0;
  for (auto _ : state) {
    EMPTCP_TRACE(sim, cwnd(sim.now(), 1, i, i / 2));
    benchmark::DoNotOptimize(i++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGateDisabled);

// The default production state: retention off, flight-recorder ring on.
// Each site pays the gate plus a POD copy into the preallocated ring.
void BM_TraceGateFlightOn(benchmark::State& state) {
  sim::Simulation sim;
  std::uint64_t i = 0;
  for (auto _ : state) {
    EMPTCP_TRACE(sim, cwnd(sim.now(), 1, i, i / 2));
    benchmark::DoNotOptimize(i++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGateFlightOn);

void BM_EndToEndDownload1MB(benchmark::State& state) {
  app::ScenarioConfig cfg;
  cfg.record_series = false;
  app::Scenario s(cfg);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const app::RunMetrics m =
        s.run_download(app::Protocol::kMptcp, 1024 * 1024, seed++);
    benchmark::DoNotOptimize(m.energy_j);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024 * 1024);
}
BENCHMARK(BM_EndToEndDownload1MB)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Direct harness -> BENCH_core.json
// ---------------------------------------------------------------------------

struct CoreResult {
  // Scheduler, steady state.
  std::uint64_t sched_events = 0;
  double sched_seconds = 0.0;
  double sched_allocs_per_event = 0.0;
  // Packet path (two-hop link chain).
  std::uint64_t pkt_packets = 0;
  double pkt_seconds = 0.0;
  double pkt_allocs_per_packet = 0.0;
  // End-to-end download, with the simulator's self-profile of the run.
  std::uint64_t e2e_bytes = 0;
  double e2e_wall_sec = 0.0;
  app::SimProfile e2e_profile;
  // Fully-disabled gate cost at an instrumentation site (retention off,
  // flight recorder off): a cached-bool load and branch.
  std::uint64_t trace_gate_ops = 0;
  double trace_gate_seconds = 0.0;
  double trace_gate_allocs_per_op = 0.0;
  // Default production state: retention off, flight-recorder ring on.
  std::uint64_t flight_gate_ops = 0;
  double flight_gate_seconds = 0.0;
  double flight_gate_allocs_per_op = 0.0;
  // Disabled EMPTCP_SPAN cost: the span profiler's cached-gate (one
  // relaxed atomic load + branch), paid at every span site when telemetry
  // is off. Must stay allocation-free and in the same cost class as the
  // disabled trace gate.
  std::uint64_t span_gate_ops = 0;
  double span_gate_seconds = 0.0;
  double span_gate_allocs_per_op = 0.0;
  // 256-client fleet steady state: event rate and allocations/event with
  // hundreds of concurrent connections multiplexed on one node.
  std::uint64_t fleet_clients = 0;
  std::uint64_t fleet_events = 0;
  double fleet_seconds = 0.0;
  double fleet_allocs_per_event = 0.0;
  // The same 256-client fleet under hybrid fidelity over the same virtual
  // window: steady-state flows advance in 100ms macro-steps instead of
  // per-packet events. speedup_vs_packet (wall clock for the same virtual
  // window) is the headline and is diff-gated >= 3x.
  std::uint64_t hybrid_events = 0;
  double hybrid_seconds = 0.0;
  std::uint64_t hybrid_fluid_bytes = 0;
  std::uint64_t hybrid_fluid_entries = 0;
  // Sharded 10k-client fleet (16 cells on the conservative parallel
  // engine) over a fixed virtual window: the event count is deterministic
  // and identical at 1 and 4 shards; only the wall clock may differ. The
  // speedup is ~1.0 on a single-core machine and only meaningful on >= 4
  // cores.
  std::uint64_t sharded_clients = 0;
  std::uint64_t sharded_cells = 0;
  std::uint64_t sharded_events = 0;
  double sharded_seconds_1shard = 0.0;
  double sharded_seconds_4shards = 0.0;
  // 100k-client sharded fleet: the scale target. Completing the fixed
  // window at all is the headline; the rate is the trend to watch.
  std::uint64_t huge_clients = 0;
  std::uint64_t huge_cells = 0;
  std::uint64_t huge_events = 0;
  double huge_seconds = 0.0;
  // Wall time per harness section, in run order (self-profiling of the
  // bench itself).
  std::vector<std::pair<const char*, double>> harness;
};

void measure_scheduler(CoreResult& out) {
  sim::Scheduler sched;
  constexpr int kBatch = 10'000;
  constexpr int kWarmupRounds = 10;
  const int kRounds = bench_quick() ? 50 : 500;
  auto run_round = [&sched] {
    const sim::Time base = sched.now();
    for (int i = 0; i < kBatch; ++i) {
      sched.schedule_at(base + i, [] {});
    }
    sched.run();
  };
  for (int r = 0; r < kWarmupRounds; ++r) run_round();
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  for (int r = 0; r < kRounds; ++r) run_round();
  out.sched_seconds = seconds_since(start);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  out.sched_events =
      static_cast<std::uint64_t>(kRounds) * static_cast<std::uint64_t>(kBatch);
  out.sched_allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(out.sched_events);
}

void measure_packet_path(CoreResult& out) {
  sim::Simulation sim;
  net::Link::Config fast;
  fast.rate_mbps = 100000.0;
  fast.prop_delay = sim::microseconds(10);
  fast.queue_limit_bytes = 64 * 1024 * 1024;
  net::Link acc(sim, fast);
  net::Link wan(sim, fast);
  acc.chain_to(wan);
  std::uint64_t received = 0;
  wan.set_receiver([&received](const net::Packet&) { ++received; });
  net::Packet pkt;
  pkt.payload = 1448;
  constexpr int kBatch = 1'000;
  constexpr int kWarmupRounds = 10;
  const int kRounds = bench_quick() ? 50 : 500;
  auto run_round = [&] {
    for (int i = 0; i < kBatch; ++i) acc.send(pkt);
    sim.run();
  };
  for (int r = 0; r < kWarmupRounds; ++r) run_round();
  const std::uint64_t recv_before = received;
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  for (int r = 0; r < kRounds; ++r) run_round();
  out.pkt_seconds = seconds_since(start);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  out.pkt_packets = received - recv_before;
  out.pkt_allocs_per_packet =
      static_cast<double>(allocs) / static_cast<double>(out.pkt_packets);
}

void measure_end_to_end(CoreResult& out) {
  app::ScenarioConfig cfg;
  cfg.record_series = false;
  app::Scenario s(cfg);
  const std::uint64_t kBytes =
      (bench_quick() ? 4ull : 16ull) * 1024 * 1024;
  const auto start = Clock::now();
  const app::RunMetrics m = s.run_download(app::Protocol::kMptcp, kBytes, 1);
  out.e2e_wall_sec = seconds_since(start);
  out.e2e_bytes = kBytes;
  out.e2e_profile = m.profile;
  benchmark::DoNotOptimize(m.energy_j);
}

/// Measures one instrumentation-site gate configuration; `flight` selects
/// the default production state (ring on) vs fully off.
void measure_gate(bool flight, std::uint64_t& ops_out, double& seconds_out,
                  double& allocs_out) {
  sim::Simulation sim;  // retention is off by default
  sim.trace().flight_enable(flight);
  const std::uint64_t kOps = bench_quick() ? 5'000'000 : 50'000'000;
  std::uint64_t x = 0;
  // Warm up (and fault in) before counting.
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    EMPTCP_TRACE(sim, cwnd(sim.now(), 1, i, x));
    benchmark::DoNotOptimize(x += i);
  }
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    EMPTCP_TRACE(sim, cwnd(sim.now(), 1, i, x));
    benchmark::DoNotOptimize(x += i);
  }
  seconds_out = seconds_since(start);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  ops_out = kOps;
  allocs_out = static_cast<double>(allocs) / static_cast<double>(kOps);
}

/// The fleet every fleet measurement drives: eMPTCP clients in a closed
/// loop on flow sizes far larger than any measured window can serve, so a
/// window is pure steady-state multiplexing with no connection churn.
workload::FleetConfig endless_fleet(std::size_t clients) {
  workload::FleetConfig cfg;
  cfg.scenario.wifi.down_mbps = 90.0;
  cfg.scenario.cell.down_mbps = 40.0;
  cfg.scenario.record_series = false;
  cfg.protocol = app::Protocol::kEmptcp;
  cfg.mode = workload::FleetConfig::Mode::kClosed;
  cfg.clients = clients;
  cfg.flows_per_client = 0;  // endless: nothing completes mid-measurement
  cfg.flow_size.kind = workload::SizeDist::Kind::kFixed;
  cfg.flow_size.mean_bytes = 64ull * 1024 * 1024;
  return cfg;
}

// 256 concurrent clients in one simulation: the allocations/event figure
// isolates the per-event hot path at fleet scale.
void measure_fleet(CoreResult& out) {
  const workload::FleetConfig cfg = endless_fleet(256);
  workload::ClientFleet fleet(cfg);
  fleet.start(1);
  // Warm up: connection establishment plus slab/pool/ring/spare-node
  // growth to their high-water marks.
  const double warm_s = bench_quick() ? 1.0 : 4.0;
  fleet.run_until(warm_s);
  sim::Simulation& sim = fleet.world().sim;
  const std::uint64_t events_before = sim.scheduler().events_executed();
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  fleet.run_until(warm_s + (bench_quick() ? 1.0 : 2.0));
  out.fleet_seconds = seconds_since(start);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  out.fleet_clients = cfg.clients;
  out.fleet_events = sim.scheduler().events_executed() - events_before;
  out.fleet_allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(out.fleet_events);
}

// The identical fleet and virtual window as measure_fleet, at hybrid
// fidelity: endless congestion-avoidance transfers are the macro-step
// fast path's home turf, so the wall-clock ratio against the packet run
// is the honest speedup figure (same workload, same virtual time).
void measure_fleet_hybrid(CoreResult& out) {
  workload::FleetConfig cfg = endless_fleet(256);
  cfg.scenario.fidelity = sim::Fidelity::kHybrid;
  workload::ClientFleet fleet(cfg);
  fleet.start(1);
  // The warmup is longer than the packet fleet's quick warmup on purpose:
  // the governor needs a few 100ms quanta per flow (measure, stabilize,
  // drain) before the fleet is mostly fluid, and warming up in hybrid
  // mode is nearly free in wall clock. The measured window length still
  // matches the packet run's, so the wall-clock ratio is apples-to-apples
  // steady state against steady state.
  const double warm_s = bench_quick() ? 3.0 : 4.0;
  fleet.run_until(warm_s);
  sim::Simulation& sim = fleet.world().sim;
  const app::FastPath& fp = *fleet.world().fast_path;
  const std::uint64_t events_before = sim.scheduler().events_executed();
  const std::uint64_t fluid_before = fp.fluid_bytes();
  const auto start = Clock::now();
  fleet.run_until(warm_s + (bench_quick() ? 1.0 : 2.0));
  out.hybrid_seconds = seconds_since(start);
  out.hybrid_events = sim.scheduler().events_executed() - events_before;
  out.hybrid_fluid_bytes = fp.fluid_bytes() - fluid_before;
  out.hybrid_fluid_entries = fp.fluid_entries();
}

/// One sharded-fleet run over a fixed virtual window; returns the wall
/// seconds and reports the events executed inside the window.
double run_sharded_window(std::size_t clients, std::size_t per_cell,
                          std::size_t shards, double warm_s, double window_s,
                          std::uint64_t& events_out) {
  workload::FleetConfig cfg = endless_fleet(clients);
  cfg.sharding.clients_per_cell = per_cell;
  cfg.sharding.shards = shards;
  workload::ShardedFleet fleet(cfg);
  fleet.start(1);
  fleet.run_until(warm_s);
  const std::uint64_t before = fleet.engine().events_executed();
  const auto start = Clock::now();
  fleet.run_until(warm_s + window_s);
  const double seconds = seconds_since(start);
  events_out = fleet.engine().events_executed() - before;
  return seconds;
}

// 10k clients in 16 shard-engine cells, measured at 1 and 4 worker
// shards over the same virtual window. Identical event counts are a hard
// requirement — a mismatch is a determinism bug, not noise.
void measure_sharded_fleet(CoreResult& out) {
  const double warm_s = bench_quick() ? 0.1 : 0.25;
  const double window_s = bench_quick() ? 0.2 : 1.0;
  out.sharded_clients = 10'000;
  out.sharded_cells = 16;
  std::uint64_t events1 = 0;
  std::uint64_t events4 = 0;
  out.sharded_seconds_1shard =
      run_sharded_window(10'000, 625, 1, warm_s, window_s, events1);
  out.sharded_seconds_4shards =
      run_sharded_window(10'000, 625, 4, warm_s, window_s, events4);
  if (events1 != events4) {
    std::fprintf(stderr,
                 "bench_micro: NON-DETERMINISTIC sharded fleet: %llu events "
                 "at 1 shard vs %llu at 4\n",
                 static_cast<unsigned long long>(events1),
                 static_cast<unsigned long long>(events4));
    std::exit(1);
  }
  out.sharded_events = events1;
}

// 100k clients in 100 cells: the scale target from the roadmap. One shard
// count (jobs-derived would hide machine variation; pin 4) over a short
// fixed window — completing it at all is the point.
void measure_fleet_100k(CoreResult& out) {
  const double warm_s = bench_quick() ? 0.02 : 0.1;
  const double window_s = bench_quick() ? 0.05 : 0.25;
  out.huge_clients = 100'000;
  out.huge_cells = 100;
  out.huge_seconds = run_sharded_window(100'000, 1'000, 4, warm_s, window_s,
                                        out.huge_events);
}

/// Disabled span-profiler gate at an instrumentation site. Telemetry must
/// be off (the default): each EMPTCP_SPAN then costs one relaxed atomic
/// load, a branch, and a trivially-destructed empty guard.
void measure_span_gate(CoreResult& out) {
  const std::uint64_t kOps = bench_quick() ? 5'000'000 : 50'000'000;
  std::uint64_t x = 0;
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    EMPTCP_SPAN("bench.gate");
    benchmark::DoNotOptimize(x += i);
  }
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    EMPTCP_SPAN("bench.gate");
    benchmark::DoNotOptimize(x += i);
  }
  out.span_gate_seconds = seconds_since(start);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  out.span_gate_ops = kOps;
  out.span_gate_allocs_per_op =
      static_cast<double>(allocs) / static_cast<double>(kOps);
}

void measure_trace_gates(CoreResult& out) {
  measure_gate(false, out.trace_gate_ops, out.trace_gate_seconds,
               out.trace_gate_allocs_per_op);
  measure_gate(true, out.flight_gate_ops, out.flight_gate_seconds,
               out.flight_gate_allocs_per_op);
  measure_span_gate(out);
}

void write_json(const CoreResult& r) {
  const char* path = std::getenv("EMPTCP_BENCH_JSON");
  if (path == nullptr) path = "BENCH_core.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"emptcp-bench-core-v1\",\n");
  std::fprintf(f, "  \"scheduler\": {\n");
  std::fprintf(f, "    \"events\": %llu,\n",
               static_cast<unsigned long long>(r.sched_events));
  std::fprintf(f, "    \"seconds\": %.6f,\n", r.sched_seconds);
  std::fprintf(f, "    \"events_per_sec\": %.0f,\n",
               static_cast<double>(r.sched_events) / r.sched_seconds);
  std::fprintf(f, "    \"allocs_per_event\": %.6f\n",
               r.sched_allocs_per_event);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"packet_path\": {\n");
  std::fprintf(f, "    \"packets\": %llu,\n",
               static_cast<unsigned long long>(r.pkt_packets));
  std::fprintf(f, "    \"seconds\": %.6f,\n", r.pkt_seconds);
  std::fprintf(f, "    \"packets_per_sec\": %.0f,\n",
               static_cast<double>(r.pkt_packets) / r.pkt_seconds);
  std::fprintf(f, "    \"allocs_per_packet\": %.6f\n",
               r.pkt_allocs_per_packet);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"end_to_end\": {\n");
  std::fprintf(f, "    \"bytes\": %llu,\n",
               static_cast<unsigned long long>(r.e2e_bytes));
  std::fprintf(f, "    \"wall_clock_sec\": %.6f,\n", r.e2e_wall_sec);
  std::fprintf(f, "    \"mbytes_per_sec\": %.2f\n",
               static_cast<double>(r.e2e_bytes) / (1024.0 * 1024.0) /
                   r.e2e_wall_sec);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"trace_disabled\": {\n");
  std::fprintf(f, "    \"ops\": %llu,\n",
               static_cast<unsigned long long>(r.trace_gate_ops));
  std::fprintf(f, "    \"seconds\": %.6f,\n", r.trace_gate_seconds);
  std::fprintf(f, "    \"ns_per_op\": %.4f,\n",
               r.trace_gate_seconds * 1e9 /
                   static_cast<double>(r.trace_gate_ops));
  std::fprintf(f, "    \"allocs_per_op\": %.6f\n",
               r.trace_gate_allocs_per_op);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"trace_flight_on\": {\n");
  std::fprintf(f, "    \"ops\": %llu,\n",
               static_cast<unsigned long long>(r.flight_gate_ops));
  std::fprintf(f, "    \"seconds\": %.6f,\n", r.flight_gate_seconds);
  std::fprintf(f, "    \"ns_per_op\": %.4f,\n",
               r.flight_gate_seconds * 1e9 /
                   static_cast<double>(r.flight_gate_ops));
  std::fprintf(f, "    \"allocs_per_op\": %.6f\n",
               r.flight_gate_allocs_per_op);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"span_disabled\": {\n");
  std::fprintf(f, "    \"ops\": %llu,\n",
               static_cast<unsigned long long>(r.span_gate_ops));
  std::fprintf(f, "    \"seconds\": %.6f,\n", r.span_gate_seconds);
  std::fprintf(f, "    \"ns_per_op\": %.4f,\n",
               r.span_gate_seconds * 1e9 /
                   static_cast<double>(r.span_gate_ops));
  std::fprintf(f, "    \"allocs_per_op\": %.6f\n",
               r.span_gate_allocs_per_op);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fleet_256\": {\n");
  std::fprintf(f, "    \"clients\": %llu,\n",
               static_cast<unsigned long long>(r.fleet_clients));
  std::fprintf(f, "    \"events\": %llu,\n",
               static_cast<unsigned long long>(r.fleet_events));
  std::fprintf(f, "    \"seconds\": %.6f,\n", r.fleet_seconds);
  std::fprintf(f, "    \"events_per_sec\": %.0f,\n",
               static_cast<double>(r.fleet_events) / r.fleet_seconds);
  std::fprintf(f, "    \"allocs_per_event\": %.6f\n",
               r.fleet_allocs_per_event);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fleet_256_hybrid\": {\n");
  std::fprintf(f, "    \"clients\": %llu,\n",
               static_cast<unsigned long long>(r.fleet_clients));
  std::fprintf(f, "    \"events\": %llu,\n",
               static_cast<unsigned long long>(r.hybrid_events));
  std::fprintf(f, "    \"seconds\": %.6f,\n", r.hybrid_seconds);
  std::fprintf(f, "    \"events_per_sec\": %.0f,\n",
               static_cast<double>(r.hybrid_events) / r.hybrid_seconds);
  std::fprintf(f, "    \"fluid_bytes\": %llu,\n",
               static_cast<unsigned long long>(r.hybrid_fluid_bytes));
  std::fprintf(f, "    \"fluid_entries\": %llu,\n",
               static_cast<unsigned long long>(r.hybrid_fluid_entries));
  std::fprintf(f, "    \"event_reduction_vs_packet\": %.4f,\n",
               static_cast<double>(r.fleet_events) /
                   static_cast<double>(r.hybrid_events));
  std::fprintf(f, "    \"speedup_vs_packet\": %.4f\n",
               r.fleet_seconds / r.hybrid_seconds);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fleet_10k\": {\n");
  std::fprintf(f, "    \"clients\": %llu,\n",
               static_cast<unsigned long long>(r.sharded_clients));
  std::fprintf(f, "    \"cells\": %llu,\n",
               static_cast<unsigned long long>(r.sharded_cells));
  std::fprintf(f, "    \"events\": %llu,\n",
               static_cast<unsigned long long>(r.sharded_events));
  std::fprintf(f, "    \"seconds_1shard\": %.6f,\n",
               r.sharded_seconds_1shard);
  std::fprintf(f, "    \"seconds_4shards\": %.6f,\n",
               r.sharded_seconds_4shards);
  std::fprintf(f, "    \"events_per_sec_1shard\": %.0f,\n",
               static_cast<double>(r.sharded_events) /
                   r.sharded_seconds_1shard);
  std::fprintf(f, "    \"events_per_sec_4shards\": %.0f,\n",
               static_cast<double>(r.sharded_events) /
                   r.sharded_seconds_4shards);
  std::fprintf(f, "    \"speedup_4shards\": %.4f\n",
               r.sharded_seconds_1shard / r.sharded_seconds_4shards);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fleet_100k\": {\n");
  std::fprintf(f, "    \"clients\": %llu,\n",
               static_cast<unsigned long long>(r.huge_clients));
  std::fprintf(f, "    \"cells\": %llu,\n",
               static_cast<unsigned long long>(r.huge_cells));
  std::fprintf(f, "    \"events\": %llu,\n",
               static_cast<unsigned long long>(r.huge_events));
  std::fprintf(f, "    \"seconds\": %.6f,\n", r.huge_seconds);
  std::fprintf(f, "    \"events_per_sec\": %.0f,\n",
               static_cast<double>(r.huge_events) / r.huge_seconds);
  std::fprintf(f, "    \"completed\": 1\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"self_profile\": {\n");
  std::fprintf(f, "    \"e2e_events_executed\": %llu,\n",
               static_cast<unsigned long long>(
                   r.e2e_profile.events_executed));
  std::fprintf(f, "    \"e2e_events_per_sec\": %.0f,\n",
               static_cast<double>(r.e2e_profile.events_executed) /
                   r.e2e_wall_sec);
  std::fprintf(f, "    \"e2e_sched_slab_slots\": %llu,\n",
               static_cast<unsigned long long>(
                   r.e2e_profile.sched_slab_slots));
  std::fprintf(f, "    \"e2e_packet_pool_slots\": %llu,\n",
               static_cast<unsigned long long>(
                   r.e2e_profile.packet_pool_slots));
  std::fprintf(f, "    \"harness\": {");
  for (std::size_t i = 0; i < r.harness.size(); ++i) {
    const auto& [name, seconds] = r.harness[i];
    // One op per section: ops_per_sec is sections per second.
    const double rate = seconds > 0.0 ? 1.0 / seconds : 0.0;
    std::fprintf(f, "%s\n      \"%s\": {\"ops\": 1, \"seconds\": %s, "
                 "\"ops_per_sec\": %s}",
                 i == 0 ? "" : ",", name, stats::fmt_double(seconds).c_str(),
                 stats::fmt_double(rate).c_str());
  }
  std::fprintf(f, "\n    }\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("bench_micro: wrote %s\n", path);
}

void run_core_harness() {
  CoreResult r;
  const auto section = [&r](const char* name, void (*measure)(CoreResult&)) {
    const Clock::time_point start = Clock::now();
    measure(r);
    r.harness.emplace_back(name, seconds_since(start));
  };
  section("scheduler", measure_scheduler);
  section("packet_path", measure_packet_path);
  section("end_to_end", measure_end_to_end);
  section("fleet", measure_fleet);
  section("fleet_256_hybrid", measure_fleet_hybrid);
  section("fleet_10k", measure_sharded_fleet);
  section("fleet_100k", measure_fleet_100k);
  section("trace_gates", measure_trace_gates);
  std::printf(
      "fleet: %llu clients, %.2fM events/s, %.6f allocs/event\n",
      static_cast<unsigned long long>(r.fleet_clients),
      static_cast<double>(r.fleet_events) / r.fleet_seconds / 1e6,
      r.fleet_allocs_per_event);
  std::printf(
      "fleet hybrid: %.3fs vs %.3fs packet for the same virtual window "
      "(speedup %.2fx, %.1fx fewer events, %llu MB fluid, %llu entries)\n",
      r.hybrid_seconds, r.fleet_seconds, r.fleet_seconds / r.hybrid_seconds,
      static_cast<double>(r.fleet_events) /
          static_cast<double>(r.hybrid_events),
      static_cast<unsigned long long>(r.hybrid_fluid_bytes >> 20),
      static_cast<unsigned long long>(r.hybrid_fluid_entries));
  std::printf(
      "fleet_10k (sharded, 16 cells): %.3fs @1 shard, %.3fs @4 shards "
      "(speedup %.2fx); fleet_100k (100 cells): %.3fs, %.2fM events/s\n",
      r.sharded_seconds_1shard, r.sharded_seconds_4shards,
      r.sharded_seconds_1shard / r.sharded_seconds_4shards, r.huge_seconds,
      static_cast<double>(r.huge_events) / r.huge_seconds / 1e6);
  std::printf(
      "core: scheduler %.2fM events/s (%.4f allocs/event), "
      "packet path %.2fM packets/s (%.4f allocs/packet), "
      "%lluMB download in %.3fs wall (%.2fM sim events/s, slab %llu, "
      "pool %llu), "
      "trace gate off %.2f ns/op / flight-on %.2f ns/op "
      "(%.6f / %.6f allocs/op), span gate off %.2f ns/op\n",
      static_cast<double>(r.sched_events) / r.sched_seconds / 1e6,
      r.sched_allocs_per_event,
      static_cast<double>(r.pkt_packets) / r.pkt_seconds / 1e6,
      r.pkt_allocs_per_packet,
      static_cast<unsigned long long>(r.e2e_bytes / (1024 * 1024)),
      r.e2e_wall_sec,
      static_cast<double>(r.e2e_profile.events_executed) / r.e2e_wall_sec /
          1e6,
      static_cast<unsigned long long>(r.e2e_profile.sched_slab_slots),
      static_cast<unsigned long long>(r.e2e_profile.packet_pool_slots),
      r.trace_gate_seconds * 1e9 / static_cast<double>(r.trace_gate_ops),
      r.flight_gate_seconds * 1e9 / static_cast<double>(r.flight_gate_ops),
      r.trace_gate_allocs_per_op, r.flight_gate_allocs_per_op,
      r.span_gate_seconds * 1e9 / static_cast<double>(r.span_gate_ops));
  write_json(r);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_core_harness();
  return 0;
}
