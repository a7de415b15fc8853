// The two fixed-window fleet workloads: sharded_fleet (ShardedFleet, 10k
// packet-level clients in 16 cells) and hybrid_fleet (ClientFleet, three
// fleets of 256 clients at hybrid fidelity, each in one world).
#include <array>
#include <cmath>
#include <optional>

#include "analysis/manifest.hpp"
#include "app/fast_path.hpp"
#include "bench.hpp"
#include "runtime/telemetry.hpp"
#include "workload/sharded_fleet.hpp"

namespace perfbench {
namespace {

using emptcp::runtime::ScopedSpan;
using emptcp::workload::FleetConfig;
using emptcp::workload::FleetMetrics;
using emptcp::workload::SizeDist;
using emptcp::workload::ThinkTime;

/// The simulation seed of a workload seed: the library sees only this and
/// the generated config.
std::uint64_t sim_seed(const std::string& workload, std::uint64_t seed) {
  const std::uint64_t h =
      emptcp::analysis::fnv1a64(workload + "|" + std::to_string(seed));
  return h == 0 ? 1 : h;
}

/// Adds every flow record of a fixed window to a digest.
void hash_flows(emptcp::analysis::Fnv1a64Stream& h, const FleetMetrics& m) {
  for (const auto& f : m.flows) {
    hash_value(h, f.id);
    hash_value(h, f.client);
    hash_value(h, f.bytes);
    hash_value(h, f.delivered);
    hash_value(h, f.start_s);
    hash_value(h, f.end_s);
    hash_value(h, f.completed);
  }
}

/// Flows completed inside the window are attempted; one fails when it
/// completed short or long of its requested bytes, or when its run failed
/// a check. Flows still in flight at the window's end are not counted.
RepOutcome window_outcome(const FleetMetrics& m, bool run_ok,
                          double client_s) {
  RepOutcome o;
  o.client_s = client_s;
  for (const auto& f : m.flows) {
    if (!f.completed) continue;
    ++o.attempted;
    if (!run_ok || f.delivered != f.bytes) ++o.failed;
  }
  return o;
}

std::uint64_t delivered_bytes(const FleetMetrics& m) {
  std::uint64_t b = 0;
  for (const auto& f : m.flows) b += f.delivered;
  return b;
}

// ---------------------------------------------------------------------------
// sharded_fleet

constexpr std::size_t kShardedClients = 10'000;
constexpr std::size_t kShardedPerCell = 625;
/// Timed at 1 shard, checked against a 2-shard twin. Run side by side on a
/// shared 4-vCPU host, 1 shard took 1.35-1.62 s per window and 2 shards
/// 0.65-1.52 s: a barrier-synchronized pair stalls whenever either vCPU
/// is starved, which no number of repetitions averages away.
constexpr std::size_t kShards = 1;
constexpr std::size_t kTwinShards = 2;
constexpr double kShardedWindowS = 1.0;

/// Traced runs repeat the twin and take its median time, so the first run
/// in the process (cold heap, first-touch page faults) does not decide
/// shard.parallel_eff.
constexpr std::size_t kTracedTwinRuns = 3;

/// The fleet_10k shape: 16 cells of 625 clients, every 4th flow of a cell
/// served by its neighbour over the backbone ring. The traffic is the
/// repository's documented 10k-client fleet (EXPERIMENTS.md, fleet10k
/// walkthrough: lognormal sizes with log_mu 13.2 and the library's
/// default sigma 1.5), clamped to 20 KB-4 MB, with the exponential think
/// time of examples/campaigns/sec46_baselines.spec (mean 0.2 s).
FleetConfig sharded_config(std::size_t shards) {
  FleetConfig cfg;
  cfg.scenario.wifi.down_mbps = 90.0;
  cfg.scenario.cell.down_mbps = 40.0;
  cfg.scenario.record_series = false;
  cfg.scenario.fidelity = emptcp::sim::Fidelity::kPacket;
  cfg.protocol = emptcp::app::Protocol::kEmptcp;
  cfg.mode = FleetConfig::Mode::kClosed;
  cfg.clients = kShardedClients;
  cfg.flows_per_client = 0;  // endless: the window, not a budget, ends it
  cfg.flow_size.kind = SizeDist::Kind::kLognormal;
  cfg.flow_size.log_mu = 13.2;
  cfg.flow_size.log_sigma = 1.5;
  cfg.flow_size.min_bytes = 20'000;
  cfg.flow_size.max_bytes = 4'000'000;
  cfg.think.kind = ThinkTime::Kind::kExponential;
  cfg.think.mean_s = 0.2;
  cfg.sharding.clients_per_cell = kShardedPerCell;
  cfg.sharding.shards = shards;
  cfg.sharding.cross_every = 4;
  return cfg;
}

/// The deterministic shard-engine aggregates: identical at any shard count.
struct ShardAggregates {
  std::uint64_t epochs = 0;
  std::uint64_t busy_epochs = 0;
  std::uint64_t cross_messages = 0;
  std::uint64_t epoch_events = 0;
  std::uint64_t imbalance_p90 = 0;

  explicit ShardAggregates(const emptcp::sim::ShardEnginePerf& p)
      : epochs(p.epochs),
        busy_epochs(p.busy_epochs),
        cross_messages(p.cross_messages),
        epoch_events(p.events_per_epoch.sum()),
        imbalance_p90(p.imbalance_pct.quantile_upper(0.9)) {}
  ShardAggregates() = default;
};

class ShardedFleetWorkload final : public Workload {
 public:
  ShardedFleetWorkload(std::uint64_t seed, Fault fault)
      : seed_(sim_seed("sharded_fleet", seed)), fault_(fault) {}

  void prepare(bool traced) override {
    // 2-shard twin: the reference digest (outputs must not depend on the
    // shard count) and the parallel time behind shard.parallel_eff. Plain
    // runs need only the digest; traced runs repeat the twin for its
    // median time, and every twin run must give the same digest. A
    // shard-twin fault runs it on a different seed, so it genuinely
    // diverges.
    std::vector<double> wall_s;
    for (std::size_t i = 0; i < (traced ? kTracedTwinRuns : 1); ++i) {
      emptcp::workload::ShardedFleet twin(sharded_config(kTwinShards));
      twin.start(fault_ == Fault::kShardTwin ? seed_ + 1 : seed_);
      const double t0 = now_s();
      twin.run_until(kShardedWindowS);
      const FleetMetrics m = twin.finish();
      wall_s.push_back(now_s() - t0);
      const std::uint64_t d = digest(twin, m);
      if (i == 0) {
        reference_ = d;
        twin_events_ = twin.engine().events_executed();
        twin_agg_ = ShardAggregates(twin.engine().perf());
      } else if (d != reference_) {
        ++twin_mismatches_;
      }
    }
    twin_wall_s_ = median(wall_s);
    twin_runs_ = wall_s.size();
  }

  void setup(bool traced) override {
    traced_ = traced;
    FleetConfig cfg = sharded_config(kShards);
    cfg.scenario.trace = traced;
    {
      ScopedSpan span("bench.construct");
      fleet_.emplace(std::move(cfg));
    }
    ScopedSpan span("bench.start");
    fleet_->start(seed_);
  }

  void run() override {
    {
      ScopedSpan span("bench.run_until");
      fleet_->run_until(kShardedWindowS);
    }
    const double t0 = now_s();
    {
      ScopedSpan span("bench.finish");
      metrics_ = fleet_->finish();
    }
    finish_s_.push_back(now_s() - t0);
  }

  RepOutcome finish_rep() override {
    const bool ok = digest(*fleet_, metrics_) == reference_;
    if (!ok) ++mismatches_;
    const RepOutcome o = window_outcome(
        metrics_, ok, static_cast<double>(kShardedClients) * kShardedWindowS);
    if (traced_) collect_traced();
    metrics_ = FleetMetrics();
    fleet_.reset();
    return o;
  }

  void discard() override { fleet_.reset(); }

  std::map<std::string, double> layers(
      double traced_wall_s, double plain_wall_s,
      const std::map<std::string, SpanTime>& /*spans*/) override {
    std::map<std::string, double> l = count_layers(counts_);
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    l["sim.ns_per_event"] =
        plain_wall_s * 1e9 / d(std::max<std::uint64_t>(counts_.events, 1));
    l["shard.epochs"] = d(agg_.epochs);
    l["shard.events_per_epoch"] =
        d(agg_.epoch_events) / d(std::max<std::uint64_t>(agg_.epochs, 1));
    l["shard.cross_messages"] = d(agg_.cross_messages);
    l["shard.imbalance_pct_p90"] = d(agg_.imbalance_p90);
    l["shard.busy_s"] = median(busy_s_);
    l["shard.wait_s"] = median(wait_s_);
    l["shard.parallel_eff"] =
        plain_wall_s / (static_cast<double>(kTwinShards) * twin_wall_s_);
    l["workload.finish_s"] = median(finish_s_);
    l["trace.overhead_pct"] = (traced_wall_s / plain_wall_s - 1.0) * 100.0;
    return l;
  }

  std::vector<std::string> notes() override {
    std::vector<std::string> out = {
        fmt("check: %llu repetition(s) differ from the %zu-shard twin digest",
            static_cast<unsigned long long>(mismatches_), kTwinShards),
        fmt("twin: %zu shards ran %llu events in %llu epochs, %.4f s wall "
            "(median of %zu run(s), %llu with a differing digest)",
            kTwinShards, static_cast<unsigned long long>(twin_events_),
            static_cast<unsigned long long>(twin_agg_.epochs), twin_wall_s_,
            twin_runs_, static_cast<unsigned long long>(twin_mismatches_)),
        fmt("traced repetitions with differing exact counts: %llu",
            static_cast<unsigned long long>(count_mismatches_)),
    };
    if (have_counts_) out.push_back(per_ack_note(counts_));
    return out;
  }

  [[nodiscard]] bool checks_ok() const override {
    return mismatches_ == 0 && twin_mismatches_ == 0 &&
           count_mismatches_ == 0;
  }

 private:
  /// Events, epochs and the other virtual shard aggregates, then every
  /// flow record: what the twin must reproduce exactly.
  std::uint64_t digest(emptcp::workload::ShardedFleet& f,
                       const FleetMetrics& m) const {
    const ShardAggregates a(f.engine().perf());
    emptcp::analysis::Fnv1a64Stream h;
    hash_value(h, f.engine().events_executed());
    hash_value(h, a.epochs);
    hash_value(h, a.busy_epochs);
    hash_value(h, a.cross_messages);
    hash_value(h, a.epoch_events);
    hash_value(h, a.imbalance_p90);
    hash_flows(h, m);
    return h.value();
  }

  void collect_traced() {
    Counts c;
    for (std::size_t i = 0; i < fleet_->cell_count(); ++i) {
      count_world(fleet_->cell_world(i), c);
    }
    c.delivered_bytes = delivered_bytes(metrics_);
    c.flows_started = metrics_.flows_started;
    c.flows_completed = metrics_.flows_completed;
    const emptcp::sim::ShardEnginePerf p = fleet_->engine().perf();
    double busy = 0.0;
    double wait = 0.0;
    for (const auto& party : p.parties) {
      busy += party.busy_s;
      wait += party.wait_s;
    }
    busy_s_.push_back(busy);
    wait_s_.push_back(wait);
    if (have_counts_ && c.digest() != counts_.digest()) ++count_mismatches_;
    counts_ = c;
    agg_ = ShardAggregates(p);
    have_counts_ = true;
  }

  std::uint64_t seed_;
  Fault fault_;
  std::uint64_t reference_ = 0;
  double twin_wall_s_ = 0.0;
  std::size_t twin_runs_ = 0;
  std::uint64_t twin_mismatches_ = 0;
  std::uint64_t twin_events_ = 0;
  ShardAggregates twin_agg_;

  bool traced_ = false;
  std::optional<emptcp::workload::ShardedFleet> fleet_;
  FleetMetrics metrics_;
  std::vector<double> finish_s_;
  std::uint64_t mismatches_ = 0;

  bool have_counts_ = false;
  std::uint64_t count_mismatches_ = 0;
  Counts counts_;
  ShardAggregates agg_;
  std::vector<double> busy_s_;
  std::vector<double> wait_s_;
};

// ---------------------------------------------------------------------------
// hybrid_fleet

constexpr std::size_t kHybridClients = 256;
constexpr double kHybridWindowS = 120.0;
/// Independent 256-client fleets per repetition, each in its own world
/// with its own seed, run back to back; together they are the run the
/// fidelity bands judge. A single contended fleet under on-off WiFi takes
/// a trajectory of its own in either fidelity: over 36 fleets the
/// hybrid-vs-packet difference had a standard deviation of 6% in energy,
/// 8% in delivered bytes and 7% in mean completion time (largest 13, 17
/// and 21%), and single fleets reached 38% (energy, against a packet twin
/// that delivered the least of any measured) and 27% (mean completion
/// time). Pooled in threes the differences stayed within 10.4%. A fleet's
/// work also varies from seed to seed (8.5-11.8M events per 120 s
/// window), which three fleets average out. A longer window would not
/// do: hybrid's mean completion time drifts further from the packet
/// twin's the longer a window runs. Four fleets would make a run of this
/// workload take about a minute.
constexpr std::size_t kHybridFleets = 3;
/// DESIGN.md §13.4 run-level bands: ±25% ± 0.5 J energy, ±25% ± 0.25 s
/// time. Energy is summed over the run's fleets and time is the mean
/// completion time of every flow the run completed.
constexpr double kBandRel = 0.25;
constexpr double kEnergyBandAbsJ = 0.5;
constexpr double kTimeBandAbsS = 0.25;

FleetConfig hybrid_config(emptcp::sim::Fidelity fidelity) {
  FleetConfig cfg;
  cfg.scenario.wifi.down_mbps = 90.0;
  cfg.scenario.cell.down_mbps = 40.0;
  cfg.scenario.wifi_onoff = true;
  cfg.scenario.onoff.high_mbps = 90.0;
  cfg.scenario.onoff.low_mbps = 20.0;
  // Short holding times: about 120 rate changes per window keep flows
  // entering and leaving fluid mode, and average out where they fall. The
  // paper's 40 s made the hybrid run deliver 25-51% fewer bytes than its
  // packet twin, outside the fidelity bands.
  cfg.scenario.onoff.mean_high_s = 1.0;
  cfg.scenario.onoff.mean_low_s = 1.0;
  cfg.scenario.record_series = false;
  cfg.scenario.fidelity = fidelity;
  cfg.protocol = emptcp::app::Protocol::kEmptcp;
  cfg.mode = FleetConfig::Mode::kClosed;
  cfg.clients = kHybridClients;
  cfg.flows_per_client = 0;
  // Multi-MB flows from the repository's documented traffic: lognormal
  // around the 4 MB flows of examples/campaigns/hybrid_smoke.spec (sized
  // well above the fast path's 300 KB entry floor), with the sigma 1.0 and
  // the 0.2 s exponential think time of sec46_baselines.spec. Sizes are
  // clamped from 1 MB (the ceiling of sec46's small flows) to 16 MB (the
  // paper's Fig. 16 file).
  cfg.flow_size.kind = SizeDist::Kind::kLognormal;
  cfg.flow_size.log_mu = std::log(4e6);
  cfg.flow_size.log_sigma = 1.0;
  cfg.flow_size.min_bytes = 1'000'000;
  cfg.flow_size.max_bytes = 16ull << 20;
  cfg.think.kind = ThinkTime::Kind::kExponential;
  cfg.think.mean_s = 0.2;
  return cfg;
}

/// Run-level view of one fixed window, for the fidelity comparison.
struct WindowView {
  double energy_j = 0.0;
  double bytes = 0.0;
  double fct_sum_s = 0.0;  ///< over flows completed in the window
  std::uint64_t completed = 0;
  std::uint64_t events = 0;

  WindowView(const FleetMetrics& m, std::uint64_t ev) : events(ev) {
    energy_j = m.run.energy_j;
    bytes = static_cast<double>(delivered_bytes(m));
    for (const auto& f : m.flows) {
      if (!f.completed) continue;
      fct_sum_s += f.fct_s();
      ++completed;
    }
  }
  WindowView() = default;

  [[nodiscard]] double mean_fct_s() const {
    return completed == 0 ? 0.0 : fct_sum_s / static_cast<double>(completed);
  }

  /// The run-level view of several fleets.
  template <std::size_t N>
  static WindowView pooled(const std::array<WindowView, N>& fleets) {
    WindowView r;
    for (const WindowView& v : fleets) {
      r.energy_j += v.energy_j;
      r.bytes += v.bytes;
      r.fct_sum_s += v.fct_sum_s;
      r.completed += v.completed;
      r.events += v.events;
    }
    return r;
  }
};

class HybridFleetWorkload final : public Workload {
 public:
  HybridFleetWorkload(std::uint64_t seed, Fault fault) : fault_(fault) {
    for (std::size_t k = 0; k < kHybridFleets; ++k) {
      seeds_[k] = sim_seed("hybrid_fleet#" + std::to_string(k), seed);
    }
  }

  void prepare(bool /*traced*/) override {
    // Packet-fidelity twin of every fleet, with the same config and seed,
    // once per invocation (both sides are deterministic).
    for (std::size_t k = 0; k < kHybridFleets; ++k) {
      emptcp::workload::ClientFleet twin(
          hybrid_config(emptcp::sim::Fidelity::kPacket));
      twin.start(seeds_[k]);
      twin.run_until(kHybridWindowS);
      const FleetMetrics m = twin.finish();
      twins_[k] = WindowView(m, twin.world().sim.scheduler().events_executed());
    }
  }

  void setup(bool traced) override {
    traced_ = traced;
    FleetConfig cfg = hybrid_config(emptcp::sim::Fidelity::kHybrid);
    cfg.scenario.trace = traced;
    for (std::size_t k = 0; k < kHybridFleets; ++k) {
      {
        ScopedSpan span("bench.construct");
        fleets_[k].emplace(cfg);
      }
      ScopedSpan span("bench.start");
      fleets_[k]->start(seeds_[k]);
    }
  }

  void run() override {
    double finish_s = 0.0;
    for (std::size_t k = 0; k < kHybridFleets; ++k) {
      {
        ScopedSpan span("bench.run_until");
        fleets_[k]->run_until(kHybridWindowS);
      }
      const double t0 = now_s();
      {
        ScopedSpan span("bench.finish");
        metrics_[k] = fleets_[k]->finish();
      }
      finish_s += now_s() - t0;
    }
    finish_s_.push_back(finish_s);
  }

  RepOutcome finish_rep() override {
    emptcp::analysis::Fnv1a64Stream h;
    std::array<WindowView, kHybridFleets> views;
    Counts c;
    for (std::size_t k = 0; k < kHybridFleets; ++k) {
      emptcp::app::World& w = fleets_[k]->world();
      views[k] = WindowView(metrics_[k], w.sim.scheduler().events_executed());
      fluid_bytes_[k] = w.fast_path->fluid_bytes();
      fluid_entries_[k] = w.fast_path->fluid_entries();
      hash_value(h, views[k].events);
      hash_flows(h, metrics_[k]);
      if (traced_) {
        count_world(w, c);
        c.delivered_bytes += delivered_bytes(metrics_[k]);
        c.flows_started += metrics_[k].flows_started;
        c.flows_completed += metrics_[k].flows_completed;
      }
    }
    const std::uint64_t d = h.value();
    if (!have_digest_) {
      first_digest_ = d;
      hybrid_ = views;
      judge_fidelity();
      have_digest_ = true;
    } else if (d != first_digest_) {
      ++mismatches_;
    }
    RepOutcome o;
    for (std::size_t k = 0; k < kHybridFleets; ++k) {
      const RepOutcome f = window_outcome(
          metrics_[k], fidelity_ok_ && d == first_digest_,
          static_cast<double>(kHybridClients) * kHybridWindowS);
      o.client_s += f.client_s;
      o.attempted += f.attempted;
      o.failed += f.failed;
      metrics_[k] = FleetMetrics();
      fleets_[k].reset();
    }
    if (traced_) {
      if (have_counts_ && c.digest() != counts_.digest()) ++count_mismatches_;
      counts_ = c;
      have_counts_ = true;
    }
    return o;
  }

  void discard() override {
    for (auto& f : fleets_) f.reset();
  }

  std::map<std::string, double> layers(
      double traced_wall_s, double plain_wall_s,
      const std::map<std::string, SpanTime>& /*spans*/) override {
    std::map<std::string, double> l = count_layers(counts_);
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    double fluid = 0.0;
    std::uint64_t entries = 0;
    for (std::size_t k = 0; k < kHybridFleets; ++k) {
      fluid += d(fluid_bytes_[k]);
      entries += fluid_entries_[k];
    }
    const WindowView h = WindowView::pooled(hybrid_);
    const WindowView t = WindowView::pooled(twins_);
    l["sim.ns_per_event"] =
        plain_wall_s * 1e9 / d(std::max<std::uint64_t>(counts_.events, 1));
    l["fastpath.fluid_share"] = fluid / h.bytes;
    l["fastpath.entries"] = d(entries);
    l["fastpath.event_reduction"] = d(t.events) / d(h.events);
    l["fastpath.fidelity_err_pct"] = fidelity_err_pct();
    l["workload.finish_s"] = median(finish_s_);
    l["trace.overhead_pct"] = (traced_wall_s / plain_wall_s - 1.0) * 100.0;
    return l;
  }

  std::vector<std::string> notes() override {
    std::vector<std::string> out = {
        fmt("fidelity_err_pct %.6g %%  (the larger of the run's energy and "
            "delivered-bytes differences against its packet twins)",
            fidelity_err_pct()),
    };
    const auto compare = [](const char* what, const WindowView& h,
                            const WindowView& t, double fluid) {
      return fmt(
          "%s: energy %.6g / %.6g J (%.4g %%), delivered %.6g / %.6g MB "
          "(%.4g %%), mean FCT %.4g / %.4g s (%.4g %%), events %llu / "
          "%llu, fluid share %.4g",
          what, h.energy_j, t.energy_j, rel_pct(h.energy_j, t.energy_j),
          h.bytes / 1e6, t.bytes / 1e6, rel_pct(h.bytes, t.bytes),
          h.mean_fct_s(), t.mean_fct_s(),
          rel_pct(h.mean_fct_s(), t.mean_fct_s()),
          static_cast<unsigned long long>(h.events),
          static_cast<unsigned long long>(t.events), fluid / h.bytes);
    };
    double fluid = 0.0;
    for (std::size_t k = 0; k < kHybridFleets; ++k) {
      fluid += static_cast<double>(fluid_bytes_[k]);
      out.push_back(compare(fmt("fleet %zu vs its packet twin", k).c_str(),
                            hybrid_[k], twins_[k],
                            static_cast<double>(fluid_bytes_[k])));
    }
    out.push_back(compare("run (all fleets) vs the packet twins",
                          WindowView::pooled(hybrid_),
                          WindowView::pooled(twins_), fluid));
    out.push_back(fmt(
        "check: run-level fidelity bands and fluid_bytes > 0 in every fleet "
        "%s, repetitions with a differing digest %llu",
        fidelity_ok_ ? "ok" : "VIOLATED",
        static_cast<unsigned long long>(mismatches_)));
    out.push_back(fmt("traced repetitions with differing exact counts: %llu",
                      static_cast<unsigned long long>(count_mismatches_)));
    if (have_counts_) out.push_back(per_ack_note(counts_));
    return out;
  }

  [[nodiscard]] bool checks_ok() const override {
    return fidelity_ok_ && mismatches_ == 0 && count_mismatches_ == 0;
  }

 private:
  static double rel_pct(double x, double ref) {
    return std::abs(x - ref) / ref * 100.0;
  }

  [[nodiscard]] double fidelity_err_pct() const {
    const WindowView h = WindowView::pooled(hybrid_);
    const WindowView t = WindowView::pooled(twins_);
    return std::max(rel_pct(h.energy_j, t.energy_j), rel_pct(h.bytes, t.bytes));
  }

  /// DESIGN.md §13.4 run-level bands, the run's fleets together against
  /// their packet twins. A zero-width band fault shrinks both to nothing.
  /// Each fleet's fluid_bytes must be positive so the comparison cannot
  /// pass with the fast path disengaged in any fleet.
  void judge_fidelity() {
    const double rel = fault_ == Fault::kFidelityBand ? 0.0 : kBandRel;
    const double e_abs = fault_ == Fault::kFidelityBand ? 0.0 : kEnergyBandAbsJ;
    const double t_abs = fault_ == Fault::kFidelityBand ? 0.0 : kTimeBandAbsS;
    const WindowView h = WindowView::pooled(hybrid_);
    const WindowView t = WindowView::pooled(twins_);
    const bool energy_ok =
        std::abs(h.energy_j - t.energy_j) <= rel * t.energy_j + e_abs;
    const bool time_ok = std::abs(h.mean_fct_s() - t.mean_fct_s()) <=
                         rel * t.mean_fct_s() + t_abs;
    fidelity_ok_ = energy_ok && time_ok;
    for (std::size_t k = 0; k < kHybridFleets; ++k) {
      if (fluid_bytes_[k] == 0) fidelity_ok_ = false;
    }
  }

  Fault fault_;
  std::array<std::uint64_t, kHybridFleets> seeds_{};
  std::array<WindowView, kHybridFleets> twins_;
  std::array<WindowView, kHybridFleets> hybrid_;
  bool fidelity_ok_ = false;
  std::array<std::uint64_t, kHybridFleets> fluid_bytes_{};
  std::array<std::uint64_t, kHybridFleets> fluid_entries_{};

  bool traced_ = false;
  std::array<std::optional<emptcp::workload::ClientFleet>, kHybridFleets>
      fleets_;
  std::array<FleetMetrics, kHybridFleets> metrics_;
  std::vector<double> finish_s_;
  bool have_digest_ = false;
  std::uint64_t first_digest_ = 0;
  std::uint64_t mismatches_ = 0;

  bool have_counts_ = false;
  std::uint64_t count_mismatches_ = 0;
  Counts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_sharded_fleet(std::uint64_t seed, Fault f) {
  return std::make_unique<ShardedFleetWorkload>(seed, f);
}

std::unique_ptr<Workload> make_hybrid_fleet(std::uint64_t seed, Fault f) {
  return std::make_unique<HybridFleetWorkload>(seed, f);
}

}  // namespace perfbench
