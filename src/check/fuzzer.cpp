#include "check/fuzzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "analysis/manifest.hpp"
#include "app/world.hpp"
#include "net/packet_pool.hpp"
#include "runtime/replication.hpp"
#include "stats/trace_export.hpp"

namespace emptcp::check {
namespace {

constexpr const char* kReproSchema = "emptcp-fuzz-repro-v1";

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Order-stable digest combination (FNV over the decimal renderings, so
/// combine(a, b) != combine(b, a)).
std::uint64_t combine_digest(std::uint64_t a, std::uint64_t b) {
  return analysis::fnv1a64(std::to_string(a) + "|" + std::to_string(b));
}

}  // namespace

std::uint64_t SeedStream::next() {
  return analysis::fnv1a64("fuzz|" + std::to_string(seed_) + "|" +
                           std::to_string(counter_++));
}

std::uint64_t SeedStream::range(std::uint64_t lo, std::uint64_t hi) {
  if (hi <= lo) return lo;
  return lo + next() % (hi - lo + 1);
}

double SeedStream::real(double lo, double hi) {
  // 53 high-entropy bits -> uniform in [0, 1).
  const double u =
      static_cast<double>(next() >> 11) / static_cast<double>(1ULL << 53);
  return lo + (hi - lo) * u;
}

bool SeedStream::chance(double p) { return real(0.0, 1.0) < p; }

std::uint64_t SeedStream::log_range(std::uint64_t lo, std::uint64_t hi) {
  if (hi <= lo) return lo;
  const double v = std::exp(real(std::log(static_cast<double>(lo)),
                                 std::log(static_cast<double>(hi))));
  return std::clamp(static_cast<std::uint64_t>(v), lo, hi);
}

const char* to_string(LinkOutage::Path p) {
  return p == LinkOutage::Path::kWifi ? "wifi" : "cell";
}

const char* to_string(LinkOutage::Dir d) {
  switch (d) {
    case LinkOutage::Dir::kDown: return "down";
    case LinkOutage::Dir::kUp: return "up";
    case LinkOutage::Dir::kBoth: return "both";
  }
  return "?";
}

FuzzScenario generate_scenario(std::uint64_t seed, bool fidelity_diff) {
  SeedStream s(seed);
  FuzzScenario sc;
  sc.seed = seed;

  workload::FleetConfig& f = sc.fleet;
  app::ScenarioConfig& w = f.scenario;
  w.trace = true;
  w.record_series = true;
  w.max_sim_time = sim::seconds(120);

  // Path grid spans the paper's good/bad WiFi and near/far server corners.
  w.wifi.down_mbps = s.real(2.0, 40.0);
  w.wifi.up_mbps = s.real(1.0, 10.0);
  w.wifi.rtt = sim::milliseconds(static_cast<std::int64_t>(s.range(10, 120)));
  w.wifi.loss = s.chance(0.35) ? s.real(0.0, 0.05) : 0.0;
  w.wifi.queue_bytes = (32 + 32 * s.range(0, 7)) * 1024;
  w.cell.down_mbps = s.real(1.0, 20.0);
  w.cell.up_mbps = s.real(0.5, 6.0);
  w.cell.rtt = sim::milliseconds(static_cast<std::int64_t>(s.range(30, 150)));
  w.cell.loss = s.chance(0.25) ? s.real(0.0, 0.03) : 0.0;
  w.cell.queue_bytes = (64 + 32 * s.range(0, 6)) * 1024;

  // Environment dynamics (combinable, each with its own probability).
  if (s.chance(0.25)) {
    w.wifi_onoff = true;
    w.onoff.high_mbps = w.wifi.down_mbps;
    w.onoff.low_mbps = s.real(0.0, 2.0);
    w.onoff.mean_high_s = s.real(1.0, 6.0);
    w.onoff.mean_low_s = s.real(0.5, 4.0);
    w.onoff.start_high = s.chance(0.8);
  }
  if (s.chance(0.2)) {
    w.interferers = static_cast<int>(s.range(1, 2));
    w.lambda_on = s.real(0.05, 0.5);
    w.lambda_off = s.real(0.05, 0.5);
  }
  if (s.chance(0.1)) w.mobility = true;

  f.clients = s.range(1, 4);
  f.flows_per_client = s.range(1, 3);

  sc.differential = s.chance(0.5);
  if (sc.differential) {
    // Differential runs must draw nothing workload-related from the world
    // rng, so the eMPTCP and MPTCP runs see byte-identical arrivals:
    // closed loop (no arrival draws), scheduled sizes (indexed, no draw),
    // and none/fixed think times (no draw).
    f.protocol = app::Protocol::kEmptcp;
    f.mode = workload::FleetConfig::Mode::kClosed;
    if (s.chance(0.5)) {
      f.think.kind = workload::ThinkTime::Kind::kFixed;
      f.think.mean_s = s.real(0.02, 0.3);
    }
    f.flow_size.kind = workload::SizeDist::Kind::kScheduled;
    f.flow_size.min_bytes = 1024;
    const std::size_t n = f.clients * f.flows_per_client;
    for (std::size_t i = 0; i < n; ++i) {
      f.flow_size.values.push_back(s.log_range(2'000, 1'000'000));
    }
  } else {
    constexpr app::Protocol kPool[] = {
        app::Protocol::kTcpWifi, app::Protocol::kTcpLte,
        app::Protocol::kMptcp, app::Protocol::kEmptcp,
        app::Protocol::kWifiFirst};
    f.protocol = kPool[s.range(0, 4)];
    if (s.chance(0.3)) {
      f.mode = workload::FleetConfig::Mode::kOpen;
      f.arrival.kind = s.chance(0.7)
                           ? workload::ArrivalProcess::Kind::kPoisson
                           : workload::ArrivalProcess::Kind::kDeterministic;
      f.arrival.rate_per_s = s.real(0.5, 3.0);
    } else {
      const std::uint64_t think = s.range(0, 2);
      f.think.kind = static_cast<workload::ThinkTime::Kind>(think);
      if (think != 0) f.think.mean_s = s.real(0.02, 0.3);
    }
    const std::uint64_t size_kind = s.range(0, 2);
    if (size_kind == 0) {
      f.flow_size.kind = workload::SizeDist::Kind::kFixed;
      f.flow_size.mean_bytes = s.log_range(2'000, 1'000'000);
    } else if (size_kind == 1) {
      f.flow_size.kind = workload::SizeDist::Kind::kLognormal;
      f.flow_size.log_mu = s.real(9.0, 13.0);
      f.flow_size.log_sigma = s.real(0.5, 1.5);
      f.flow_size.max_bytes = 2u << 20;
    } else {
      f.flow_size.kind = workload::SizeDist::Kind::kScheduled;
      f.flow_size.min_bytes = 1024;
      const std::size_t n = f.clients * f.flows_per_client;
      for (std::size_t i = 0; i < n; ++i) {
        f.flow_size.values.push_back(s.log_range(2'000, 1'000'000));
      }
    }
  }

  if (s.chance(0.4)) {
    const std::uint64_t n = s.range(1, 2);
    for (std::uint64_t i = 0; i < n; ++i) {
      LinkOutage o;
      o.path = s.chance(0.5) ? LinkOutage::Path::kWifi
                             : LinkOutage::Path::kCell;
      const std::uint64_t dir = s.range(0, 2);
      o.dir = static_cast<LinkOutage::Dir>(dir);
      o.at_s = s.real(0.5, 8.0);
      o.duration_s = s.real(0.2, 2.5);
      sc.outages.push_back(o);
    }
  }

  // The application, drawn last so download scenarios keep every earlier
  // draw; --fidelity-diff skips it, as hybrid fidelity runs downloads
  // only. Streams are short, so a client's flows fit the 120 s budget.
  const std::uint64_t kind = fidelity_diff ? 0 : s.range(0, 4);
  app::VideoStreamClient::Config& st = f.application.stream;
  if (kind == 3) f.application.kind = workload::Application::Kind::kUpload;
  if (kind == 4) {
    f.application.kind = workload::Application::Kind::kStream;
    st.bitrate_mbps = s.real(0.5, 4.0);
    st.chunk_bytes = (std::uint64_t{64} << s.range(0, 3)) * 1024;
    st.media_duration_s = s.real(4.0, 20.0);
    st.startup_s = s.real(1.0, 4.0);
    st.buffer_target_s = st.startup_s + s.real(2.0, 8.0);
  }

  std::string sum = std::string(app::to_string(f.protocol));
  sum += f.mode == workload::FleetConfig::Mode::kClosed ? " closed" : " open";
  sum += " clients=" + std::to_string(f.clients);
  sum += " fpc=" + std::to_string(f.flows_per_client);
  sum += " wifi=" + fmt(w.wifi.down_mbps) + "/" + fmt(w.wifi.up_mbps) +
         "Mbps loss=" + fmt(w.wifi.loss);
  sum += " cell=" + fmt(w.cell.down_mbps) + "Mbps";
  if (w.wifi_onoff) sum += " onoff";
  if (w.interferers > 0) {
    sum += " interferers=" + std::to_string(w.interferers);
  }
  if (w.mobility) sum += " mobility";
  for (const LinkOutage& o : sc.outages) {
    sum += std::string(" outage[") + to_string(o.path) + "," +
           to_string(o.dir) + "]@" + fmt(o.at_s) + "s+" + fmt(o.duration_s) +
           "s";
  }
  if (kind == 3) sum += " upload";
  if (kind == 4) sum += " stream=" + fmt(st.bitrate_mbps) + "Mbps";
  if (sc.differential) sum += " differential";
  sc.summary = sum;
  return sc;
}

RunOutcome run_protocol(const FuzzScenario& sc, app::Protocol protocol,
                        sim::Fidelity fidelity) {
  workload::FleetConfig cfg = sc.fleet;
  cfg.protocol = protocol;
  cfg.scenario.trace = true;
  cfg.scenario.fidelity = fidelity;

  workload::ClientFleet fleet(cfg);
  // Declared after the fleet so the oracle detaches (destructor) before
  // the fleet's world — and its simulation — is torn down.
  Oracle oracle;
  fleet.start(sc.seed);
  app::World& w = fleet.world();
  oracle.attach(w.sim);

  for (const LinkOutage& o : sc.outages) {
    net::Link* down = o.path == LinkOutage::Path::kWifi
                          ? w.wifi_acc_down.get()
                          : w.cell_acc_down.get();
    net::Link* up = o.path == LinkOutage::Path::kWifi ? w.wifi_acc_up.get()
                                                      : w.cell_acc_up.get();
    const double restore = o.path == LinkOutage::Path::kWifi
                               ? cfg.scenario.wifi.loss
                               : cfg.scenario.cell.loss;
    const bool hit_down = o.dir != LinkOutage::Dir::kUp;
    const bool hit_up = o.dir != LinkOutage::Dir::kDown;
    w.sim.at(sim::from_seconds(o.at_s), [down, up, hit_down, hit_up] {
      if (hit_down) down->set_loss_prob(1.0);
      if (hit_up) up->set_loss_prob(1.0);
    });
    w.sim.at(sim::from_seconds(o.at_s + o.duration_s),
             [down, up, hit_down, hit_up, restore] {
               if (hit_down) down->set_loss_prob(restore);
               if (hit_up) up->set_loss_prob(0.0);
             });
  }

  app::advance_until(w, [&] { return fleet.done(); },
                     cfg.scenario.max_sim_time);
  workload::FleetMetrics m = fleet.finish();
  const app::RunMetrics& rm = m.run;

  // World-level teardown invariants (the oracle only sees per-event facts;
  // conservation across the whole run is checked here).
  oracle.expect(rm.energy_j >= 0.0 && rm.wifi_j >= 0.0 && rm.cell_j >= 0.0,
                "energy.non_negative",
                "total=" + fmt(rm.energy_j) + " wifi=" + fmt(rm.wifi_j) +
                    " cell=" + fmt(rm.cell_j));
  oracle.expect(rm.energy_j + 1e-6 >= rm.wifi_j + rm.cell_j,
                "energy.total_covers_interfaces",
                "total=" + fmt(rm.energy_j) + " < wifi+cell=" +
                    fmt(rm.wifi_j + rm.cell_j));
  bool monotone = true;
  double prev = -1.0;
  for (const stats::Point& p : rm.energy_series) {
    if (p.v + 1e-9 < prev) {
      monotone = false;
      break;
    }
    prev = p.v;
  }
  oracle.expect(monotone, "energy.monotone",
                "cumulative energy series decreased");
  oracle.expect(m.flows_completed <= m.flows_started,
                "fleet.completed_le_started",
                std::to_string(m.flows_completed) + " > " +
                    std::to_string(m.flows_started));
  for (const workload::FlowRecord& r : m.flows) {
    const std::string who = "flow " + std::to_string(r.id);
    if (r.completed) {
      oracle.expect(r.delivered == r.bytes, "flow.byte_conservation",
                    who + " delivered " + std::to_string(r.delivered) +
                        " of " + std::to_string(r.bytes));
      oracle.expect(r.end_s >= r.start_s, "flow.time_order",
                    who + " ends before it starts");
    } else {
      oracle.expect(r.delivered <= r.bytes, "flow.over_delivery",
                    who + " delivered " + std::to_string(r.delivered) +
                        " of " + std::to_string(r.bytes));
    }
    oracle.expect(r.energy_j_est >= 0.0, "flow.energy_non_negative",
                  who + " energy " + fmt(r.energy_j_est));
  }

  // Quiescence + pool-leak checks need every timer chain to die out, which
  // only holds for static scenarios and protocols without standing
  // controllers (eMPTCP path control / WiFi-First probing / MDP timers).
  const bool dynamic = cfg.scenario.wifi_onoff ||
                       cfg.scenario.interferers > 0 ||
                       cfg.scenario.mobility || !sc.outages.empty();
  const bool plain = protocol == app::Protocol::kTcpWifi ||
                     protocol == app::Protocol::kTcpLte ||
                     protocol == app::Protocol::kMptcp;
  if (!dynamic && plain && rm.completed) {
    // Drain the whole queue. Finite stragglers are legal (a FIN_WAIT
    // socket retries its FIN on a backed-off RTO for minutes before
    // giving up), but the queue must terminate: a periodic timer nobody
    // cancelled at teardown re-schedules forever and trips the event
    // limit instead of draining.
    try {
      w.sim.scheduler().set_event_limit(1'000'000);
      w.sim.scheduler().run();
      oracle.expect(true, "sim.quiescent", "");
    } catch (const std::exception& e) {
      oracle.expect(false, "sim.quiescent",
                    std::string("post-teardown drain never terminates: ") +
                        e.what());
    }
    const net::PacketPool& pool = w.sim.context<net::PacketPool>();
    oracle.expect(pool.idle() == pool.allocated(), "pool.leak_free",
                  std::to_string(pool.allocated() - pool.idle()) +
                      " packets never returned");
  }

  RunOutcome out;
  out.digest = analysis::fnv1a64(
      stats::trace_to_jsonl(rm.trace_events, rm.trace_metrics));
  out.flows_started = m.flows_started;
  out.flows_completed = m.flows_completed;
  out.all_completed = rm.completed;
  out.energy_j = rm.energy_j;
  out.checks = oracle.checks_run();
  out.violations = oracle.violations();
  if (!oracle.ok()) out.flight_tail = w.sim.trace().flight().dump();
  out.flows = m.flows;
  return out;
}

SeedResult run_seed(std::uint64_t seed, bool fidelity_diff) {
  const FuzzScenario sc = generate_scenario(seed, fidelity_diff);
  SeedResult r;
  r.seed = seed;
  r.summary = sc.summary;

  RunOutcome primary = run_protocol(sc, sc.fleet.protocol);
  r.checks = primary.checks;
  r.violations = primary.violations;
  r.flight_tail = primary.flight_tail;
  r.digest = primary.digest;
  // A re-run's checks, labelled violations, flight tail and digest.
  auto fold = [&r](const RunOutcome& o, const char* label) {
    r.checks += o.checks;
    for (Violation v : o.violations) {
      v.detail = label + v.detail;
      r.violations.push_back(std::move(v));
    }
    if (r.flight_tail.empty()) r.flight_tail = o.flight_tail;
    r.digest = combine_digest(r.digest, o.digest);
  };
  auto expect = [&r](bool ok, const char* invariant, std::string detail) {
    ++r.checks;
    if (!ok) r.violations.push_back({0.0, invariant, std::move(detail)});
  };

  if (fidelity_diff) {
    // Hybrid re-run of the identical scenario: every oracle invariant must
    // hold at reduced fidelity too, and where the workload is
    // rng-independent (sc.differential scenarios: closed loop, scheduled
    // sizes) the per-flow results must match the packet run within the
    // DESIGN.md §13 tolerance contract. Dynamics-heavy scenarios still run
    // — their flows just rarely go fluid — so the corpus also exercises
    // the transient-demotion paths.
    RunOutcome hybrid =
        run_protocol(sc, sc.fleet.protocol, sim::Fidelity::kHybrid);
    fold(hybrid, "[hybrid] ");
    if (sc.differential) {
      expect(primary.flows_started == hybrid.flows_started,
             "fidelity.same_flow_count",
             "packet started " + std::to_string(primary.flows_started) +
                 ", hybrid " + std::to_string(hybrid.flows_started));
      const std::size_t n =
          std::min(primary.flows.size(), hybrid.flows.size());
      for (std::size_t i = 0; i < n; ++i) {
        const workload::FlowRecord& pf = primary.flows[i];
        const workload::FlowRecord& hf = hybrid.flows[i];
        const std::string who = "flow " + std::to_string(i);
        expect(pf.bytes == hf.bytes, "fidelity.same_workload",
               who + " sized " + std::to_string(pf.bytes) + " vs " +
                   std::to_string(hf.bytes));
        expect(pf.completed == hf.completed, "fidelity.same_completion",
               who + (pf.completed ? " completed in packet only"
                                   : " completed in hybrid only"));
        if (!pf.completed || !hf.completed) continue;
        expect(pf.delivered == hf.delivered, "fidelity.bytes_exact",
               who + " delivered " + std::to_string(hf.delivered) +
                   " hybrid vs " + std::to_string(pf.delivered) + " packet");
        // FCT tolerance: 25% relative + 250 ms absolute (§13).
        expect(std::abs(hf.fct_s() - pf.fct_s()) <=
                   0.25 * pf.fct_s() + 0.25,
               "fidelity.fct_within_tolerance",
               who + " fct " + fmt(hf.fct_s()) + " s hybrid vs " +
                   fmt(pf.fct_s()) + " s packet");
        // Per-flow energy share: 30% relative + 0.3 J absolute (§13; the
        // overlap-weighted attribution amplifies small timing shifts).
        expect(std::abs(hf.energy_j_est - pf.energy_j_est) <=
                   0.30 * pf.energy_j_est + 0.3,
               "fidelity.flow_energy_within_tolerance",
               who + " energy " + fmt(hf.energy_j_est) + " J hybrid vs " +
                   fmt(pf.energy_j_est) + " J packet");
      }
      // Run-level device energy: 25% relative + 0.5 J absolute (§13).
      expect(std::abs(hybrid.energy_j - primary.energy_j) <=
                 0.25 * primary.energy_j + 0.5,
             "fidelity.energy_within_tolerance",
             "hybrid " + fmt(hybrid.energy_j) + " J vs packet " +
                 fmt(primary.energy_j) + " J");
    }
  }

  if (!sc.differential) return r;

  RunOutcome base = run_protocol(sc, app::Protocol::kMptcp);
  fold(base, "[mptcp baseline] ");

  // Same scheduled workload => both protocols must serve the same flows
  // and, where both completed, deliver byte-identical application streams.
  expect(primary.flows_started == base.flows_started, "diff.same_flow_count",
         "emptcp started " + std::to_string(primary.flows_started) +
             ", mptcp " + std::to_string(base.flows_started));
  const std::size_t n =
      std::min(primary.flows.size(), base.flows.size());
  for (std::size_t i = 0; i < n; ++i) {
    const workload::FlowRecord& pf = primary.flows[i];
    const workload::FlowRecord& bf = base.flows[i];
    const std::string who = "flow " + std::to_string(i);
    expect(pf.bytes == bf.bytes, "diff.same_workload",
           who + " sized " + std::to_string(pf.bytes) + " vs " +
               std::to_string(bf.bytes));
    if (pf.completed && bf.completed) {
      expect(pf.delivered == bf.delivered && pf.delivered == pf.bytes,
             "diff.identical_byte_stream",
             who + " delivered " + std::to_string(pf.delivered) + " vs " +
                 std::to_string(bf.delivered) + " (size " +
                 std::to_string(pf.bytes) + ")");
    }
  }

  // Energy differential: eMPTCP should not burn meaningfully more energy
  // than plain MPTCP on the same workload. Only judged on clean static
  // fully-completed runs — loss, outages and dynamics make the comparison
  // legitimately noisy.
  const app::ScenarioConfig& scfg = sc.fleet.scenario;
  const bool clean = sc.outages.empty() && !scfg.wifi_onoff &&
                     scfg.interferers == 0 && !scfg.mobility &&
                     scfg.wifi.loss == 0.0 && scfg.cell.loss == 0.0;
  if (clean && primary.all_completed && base.all_completed) {
    expect(primary.energy_j <= base.energy_j * 1.4 + 1.5,
           "diff.energy_within_tolerance",
           "emptcp " + fmt(primary.energy_j) + " J vs mptcp " +
               fmt(base.energy_j) + " J");
  }
  return r;
}

FuzzBatchResult run_batch(const FuzzBatchConfig& cfg) {
  const std::vector<std::uint64_t> seeds =
      runtime::seed_range(cfg.base_seed, cfg.seeds);
  struct Unit {};
  auto run = [fd = cfg.fidelity_diff](const Unit&, std::uint64_t seed) {
    return run_seed(seed, fd);
  };

  FuzzBatchResult out;
  out.results = runtime::run_replications(Unit{}, seeds, run, cfg.workers);

  const std::size_t recheck = std::min(cfg.recheck, seeds.size());
  if (recheck > 0) {
    const std::vector<std::uint64_t> again(seeds.begin(),
                                           seeds.begin() + recheck);
    auto second = runtime::run_replications(Unit{}, again, run, cfg.workers);
    for (std::size_t i = 0; i < recheck; ++i) {
      if (second[i].digest == out.results[i].digest) continue;
      ++out.recheck_mismatches;
      out.results[i].violations.push_back(
          {0.0, "determinism.recheck_mismatch",
           "seed " + std::to_string(seeds[i]) + " digest " +
               std::to_string(out.results[i].digest) + " vs " +
               std::to_string(second[i].digest) + " on re-run"});
    }
  }

  analysis::Fnv1a64Stream stream;
  for (const SeedResult& r : out.results) {
    stream.update(std::to_string(r.seed) + ":" + std::to_string(r.digest) +
                  "\n");
    out.total_checks += r.checks;
    if (!r.ok()) ++out.violating_seeds;
  }
  out.batch_digest = stream.value();
  return out;
}

std::string format_repro(const FuzzScenario& sc, Mutation mutation,
                         const SeedResult& r, bool fidelity_diff) {
  std::string s;
  s += kReproSchema;
  s += "\n";
  s += "seed = " + std::to_string(sc.seed) + "\n";
  s += std::string("mutation = ") + to_string(mutation) + "\n";
  if (fidelity_diff) s += "fidelity-diff = true\n";
  s += "# scenario: " + sc.summary + "\n";
  s += "# checks run: " + std::to_string(r.checks) +
       ", violations: " + std::to_string(r.violations.size()) + "\n";
  std::size_t shown = 0;
  for (const Violation& v : r.violations) {
    if (shown++ == 16) {
      s += "# ... (" + std::to_string(r.violations.size() - 16) +
           " more)\n";
      break;
    }
    s += "# t=" + fmt(v.t_s) + " " + v.invariant + ": " + v.detail + "\n";
  }
  if (!r.flight_tail.empty()) {
    s += "# flight recorder tail:\n";
    std::size_t pos = 0;
    while (pos < r.flight_tail.size()) {
      std::size_t nl = r.flight_tail.find('\n', pos);
      if (nl == std::string::npos) nl = r.flight_tail.size();
      s += "#   " + r.flight_tail.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }
  s += "# replay: emptcp-fuzz --replay <this file>\n";
  return s;
}

bool parse_repro(const std::string& text, ReproHeader& out,
                 std::string& err) {
  bool schema_seen = false;
  bool seed_seen = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') {
      if (nl == text.size()) break;
      continue;
    }
    if (!schema_seen) {
      if (line != kReproSchema) {
        err = "unknown repro schema \"" + line + "\" (want " + kReproSchema +
              ")";
        return false;
      }
      schema_seen = true;
    } else if (line.rfind("seed = ", 0) == 0) {
      const std::string v = line.substr(7);
      char* end = nullptr;
      out.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v.empty()) {
        err = "bad seed value \"" + v + "\"";
        return false;
      }
      seed_seen = true;
    } else if (line.rfind("mutation = ", 0) == 0) {
      const std::string v = line.substr(11);
      if (!mutation_from_string(v, out.mutation)) {
        err = "unknown mutation \"" + v + "\"";
        return false;
      }
    } else if (line == "fidelity-diff = true") {
      out.fidelity_diff = true;
    }
    if (nl == text.size()) break;
  }
  if (!schema_seen) {
    err = "empty repro file";
    return false;
  }
  if (!seed_seen) {
    err = "repro file has no seed line";
    return false;
  }
  return true;
}

}  // namespace emptcp::check
