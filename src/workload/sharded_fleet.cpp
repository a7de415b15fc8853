#include "workload/sharded_fleet.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "analysis/manifest.hpp"
#include "analysis/perf_report.hpp"
#include "app/world.hpp"
#include "core/energy_info_base.hpp"
#include "net/shard_link.hpp"
#include "stats/digest.hpp"
#include "workload/flow_loop.hpp"

namespace emptcp::workload {

namespace {

/// Nonzero fnv1a64 of "<tag>|<a>|<b>" (decimal), digested from stack
/// buffers: flow sizes are drawn on every launch and every server-side
/// request, so this must not allocate.
std::uint64_t seed_hash(std::string_view tag, std::uint64_t a,
                        std::uint64_t b) {
  stats::Fnv1a64Stream h;
  char digits[20];  // UINT64_MAX has 20 decimal digits
  h.update(tag);
  for (const std::uint64_t v : {a, b}) {
    h.update("|");
    const auto end = std::to_chars(digits, digits + sizeof digits, v).ptr;
    h.update(std::string_view(digits, static_cast<std::size_t>(end - digits)));
  }
  return h.value() == 0 ? 1 : h.value();
}

/// Per-cell simulation seed: a pure function of (fleet seed, cell index).
std::uint64_t cell_seed(std::uint64_t seed, std::size_t cell) {
  return seed_hash("cell", seed, cell);
}

}  // namespace

struct ShardedFleet::Cell {
  std::size_t place = 0;

  std::unique_ptr<app::World> world;
  // Backbone endpoints: `in_up` receives the previous cell's requests,
  // `in_down` the next cell's responses; `up`/`down` are this cell's
  // outbound halves (created in wire_backbone, absent when C == 1).
  std::unique_ptr<net::CrossShardLink::Port> in_up, in_down;
  std::unique_ptr<net::CrossShardLink> up, down;
  std::unique_ptr<FlowLoop> flows;  ///< g = cell + k*C; ids are global
};

ShardedFleet::ShardedFleet(FleetConfig cfg) : cfg_(std::move(cfg)) {}

ShardedFleet::~ShardedFleet() = default;

app::World& ShardedFleet::cell_world(std::size_t cell) {
  return *cells_.at(cell)->world;
}

std::uint64_t ShardedFleet::flows_started() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->flows->started();
  return n;
}

std::uint64_t ShardedFleet::flows_completed() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->flows->completed();
  return n;
}

std::uint64_t ShardedFleet::flow_bytes(std::uint64_t g) const {
  // Fresh Rng per flow: any cell can evaluate any flow's size without
  // consuming another cell's random stream.
  sim::Rng rng(seed_hash("flow", seed_, g));
  return cfg_.flow_size.sample(rng, static_cast<std::size_t>(g));
}

void ShardedFleet::build_cell(std::size_t index, std::size_t clients,
                              std::uint32_t client_base) {
  Cell& c = *cells_.emplace_back(std::make_unique<Cell>());
  c.world = std::make_unique<app::World>(cfg_.scenario, cell_seed(seed_, index),
                                         app::cell_addressing(index));
  app::World& w = *c.world;
  if (eib_) w.share_eib(*eib_);
  c.place = engine_->add_place(w.sim, "cell" + std::to_string(index));

  // Open loop: each cell runs the arrival process at its population share
  // of the global rate. For Poisson, superposition of the cell streams
  // reproduces the full-rate process in distribution, and any fixed
  // decomposition is shard-count invariant (cells are a function of fleet
  // size only). kTrace schedules are consumed round-robin instead.
  ArrivalProcess arrival = cfg_.arrival;
  if (cfg_.clients > 0) {
    arrival.rate_per_s = cfg_.arrival.rate_per_s *
                         static_cast<double>(clients) /
                         static_cast<double>(cfg_.clients);
  }
  // Sizes are a pure function of g, so this server answers local and
  // cross-cell requests identically.
  c.flows = std::make_unique<FlowLoop>(
      cfg_, w, FlowLoop::Place{index, cfg_.cell_count(), clients, client_base},
      std::move(arrival), [this](std::uint64_t g) { return flow_bytes(g); });
}

void ShardedFleet::wire_backbone() {
  const std::size_t C = cells_.size();
  if (C < 2) return;

  // Ports first (a CrossShardLink needs its destination port at
  // construction), then the links in fixed cell order so engine edge ids —
  // part of the deterministic drain order — are a pure function of C.
  for (auto& cp : cells_) {
    cp->in_up = std::make_unique<net::CrossShardLink::Port>();
    cp->in_down = std::make_unique<net::CrossShardLink::Port>();
  }
  for (std::size_t i = 0; i < C; ++i) {
    Cell& c = *cells_[i];
    const std::size_t next = (i + 1) % C;
    const std::size_t prev = (i + C - 1) % C;

    net::Link::Config up_cfg;
    up_cfg.rate_mbps = cfg_.sharding.backbone_mbps;
    up_cfg.prop_delay = cfg_.sharding.backbone_delay;
    up_cfg.queue_limit_bytes = 1 << 20;
    up_cfg.name = "backbone-up-" + std::to_string(i);
    c.up = std::make_unique<net::CrossShardLink>(
        c.world->sim, *engine_, c.place, cells_[next]->place,
        *cells_[next]->in_up, up_cfg);

    net::Link::Config down_cfg = up_cfg;
    down_cfg.name = "backbone-down-" + std::to_string(i);
    c.down = std::make_unique<net::CrossShardLink>(
        c.world->sim, *engine_, c.place, cells_[prev]->place,
        *cells_[prev]->in_down, down_cfg);
  }

  for (std::size_t i = 0; i < C; ++i) {
    Cell& c = *cells_[i];
    app::World& w = *c.world;
    const std::size_t prev = (i + C - 1) % C;

    // Client-side egress: WAN-up arrivals addressed to a remote server go
    // on the backbone instead of the local server interface.
    auto upstream = [this, &c, &w](const net::Packet& p) {
      if (p.dst == w.addrs.server) {
        w.srv_if->deliver(p);
      } else {
        c.up->link().send(p);
      }
    };
    w.wifi_wan_up->set_receiver(upstream);
    w.cell_wan_up->set_receiver(upstream);

    // Server-side egress: responses to the previous cell's clients ride
    // the down backbone (the route table keys on the destination address).
    const app::Addressing prev_addrs = app::cell_addressing(prev);
    w.srv_if->add_route(prev_addrs.wifi, c.down->link());
    w.srv_if->add_route(prev_addrs.cell, c.down->link());

    // Backbone ingress. Requests target this cell's server; responses
    // re-enter through the governed access links, so remote traffic
    // contends for the same WiFi/LTE bottlenecks local traffic does.
    c.in_up->set_receiver(
        [&w](const net::Packet& p) { w.srv_if->deliver(p); });
    c.in_down->set_receiver([&w](const net::Packet& p) {
      if (p.dst == w.addrs.wifi) {
        w.wifi_acc_down->send(p);
      } else if (p.dst == w.addrs.cell) {
        w.cell_acc_down->send(p);
      }
    });
  }
}

void ShardedFleet::start(std::uint64_t seed) {
  // The sharded merge keeps no fluid metrics and cross-cell links have no
  // fast-path hooks, so hybrid fidelity would run here unverified.
  if (cfg_.scenario.fidelity == sim::Fidelity::kHybrid) {
    throw std::invalid_argument(
        "sharded fleets run at packet fidelity only (hybrid fidelity with "
        "sharding.clients_per_cell > 0 is not supported)");
  }
  seed_ = seed;
  engine_ = std::make_unique<sim::ShardEngine>(cfg_.sharding.shards);

  // One EIB for every cell: generation is the expensive part, lookups are
  // const, and sharing keeps 100k-client memory bounded.
  if (cfg_.protocol == app::Protocol::kEmptcp) {
    eib_ = std::make_unique<core::EnergyInfoBase>(
        core::EnergyInfoBase::generate(
            cfg_.scenario.device.model(cfg_.scenario.cell_tech)));
  }

  const std::size_t C = cfg_.cell_count();
  const std::size_t per = cfg_.sharding.clients_per_cell == 0
                              ? cfg_.clients
                              : cfg_.sharding.clients_per_cell;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < C; ++i) {
    const std::size_t n = std::min(per, cfg_.clients - assigned);
    build_cell(i, n, static_cast<std::uint32_t>(assigned));
    assigned += n;
  }
  wire_backbone();
  for (auto& c : cells_) c->flows->start();
}

bool ShardedFleet::all_flows_done() const {
  for (const auto& c : cells_) {
    if (!c->flows->done()) return false;
  }
  return flows_started() > 0;
}

void ShardedFleet::run_until(double t_s) {
  engine_->run_until(sim::from_seconds(t_s));
}

FleetMetrics ShardedFleet::run(std::uint64_t seed) {
  start(seed);
  engine_->run_until(cfg_.scenario.max_sim_time,
                     [this] { return all_flows_done(); });
  return finish();
}

FleetMetrics ShardedFleet::finish() {
  const bool all_done = all_flows_done();
  if (all_done) {
    // Post-download tail energy, fleet-wide: advance until every cell's
    // radios fell back to idle, bounded like drain_tails.
    const sim::Time end = engine_->now() + cfg_.scenario.max_drain;
    engine_->run_until(end, [this] {
      for (const auto& c : cells_) {
        if (!c->world->tracker.all_idle()) return false;
      }
      return true;
    });
  }
  for (auto& c : cells_) c->world->tracker.stop();
  return merge(all_done);
}

FleetMetrics ShardedFleet::merge(bool all_done) {
  FleetMetrics m;
  m.flows_started = flows_started();
  m.flows_completed = flows_completed();

  // Flow records, globally ordered by flow id (deterministic: ids are a
  // pure function of (cell, launch index)).
  for (auto& c : cells_) {
    const std::vector<FlowRecord>& records = c->flows->collect();
    m.flows.insert(m.flows.end(), records.begin(), records.end());
  }
  std::sort(m.flows.begin(), m.flows.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.id < b.id;
            });
  const std::uint64_t bytes = fold_flows(m);

  // World-level totals, summed across cells.
  std::vector<app::World*> worlds;
  for (const auto& c : cells_) worlds.push_back(c->world.get());
  m.run = app::collect_totals(worlds, all_done,
                              sim::to_seconds(engine_->now()), bytes);
  app::RunMetrics& run = m.run;
  run.profile.events_executed = engine_->events_executed();

  // Telemetry sidecar (wall-clock; never merged into trace artifacts).
  // Per-place cross_tx comes from the cell's outbound backbone halves —
  // a plain accessor, deliberately not a trace metric (per-link counts
  // depend on the partition and would leak topology into artifacts).
  if (runtime::Telemetry::enabled()) {
    m.perf = analysis::make_perf_doc(engine_->perf());
    for (std::size_t i = 0;
         i < cells_.size() && i < m.perf->places.size(); ++i) {
      const Cell& c = *cells_[i];
      std::uint64_t tx = 0;
      if (c.up) tx += c.up->packets_posted();
      if (c.down) tx += c.down->packets_posted();
      m.perf->places[c.place].cross_tx = tx;
    }
  }

  if (cfg_.scenario.trace) {
    // Merged trace: concatenate in cell order, then stable-sort by virtual
    // time — equal-time records keep cell order, so the stream is
    // byte-identical for any shard count.
    for (const auto& cp : cells_) {
      const auto& ev = cp->world->sim.trace().events();
      run.trace_events.insert(run.trace_events.end(), ev.begin(), ev.end());
    }
    std::stable_sort(run.trace_events.begin(), run.trace_events.end(),
                     [](const trace::Event& a, const trace::Event& b) {
                       return a.t < b.t;
                     });

    // Merged metrics: counters summed by name in first-seen (cell) order;
    // the fleet-level gauges are computed globally — per-cell gauges would
    // leak the partition into the artifact.
    std::vector<trace::MetricSnapshot> counters;
    for (const auto& cp : cells_) {
      for (const trace::Counter& ctr :
           cp->world->sim.trace().metrics().counters()) {
        auto it = std::find_if(counters.begin(), counters.end(),
                               [&](const trace::MetricSnapshot& s) {
                                 return s.name == ctr.name();
                               });
        if (it == counters.end()) {
          counters.push_back(
              {ctr.name(), static_cast<double>(ctr.value())});
        } else {
          it->value += static_cast<double>(ctr.value());
        }
      }
    }
    run.trace_metrics = std::move(counters);
    auto gauge = [&](const char* name, double v) {
      run.trace_metrics.push_back({name, v});
    };
    gauge("run.completed", all_done ? 1.0 : 0.0);
    gauge("run.download_time_s", run.download_time_s);
    gauge("run.energy_j", run.energy_j);
    gauge("run.wifi_j", run.wifi_j);
    gauge("run.cell_j", run.cell_j);
    gauge("run.bytes_received", static_cast<double>(bytes));
    gauge("sim.events_executed",
          static_cast<double>(run.profile.events_executed));
    gauge("fleet.clients", static_cast<double>(cfg_.clients));
    gauge("fleet.cells", static_cast<double>(cells_.size()));
    gauge("fleet.clients_per_cell",
          static_cast<double>(cfg_.sharding.clients_per_cell));
    gauge("fleet.cross_every",
          static_cast<double>(cfg_.sharding.cross_every));
    gauge("fleet.cross_messages",
          static_cast<double>(engine_->cross_messages()));
    gauge("fleet.flows_started", static_cast<double>(m.flows_started));
    gauge("fleet.flows_completed", static_cast<double>(m.flows_completed));
    run.profile.trace_events = run.trace_events.size();
  }
  return m;
}

FleetMetrics run_fleet(const FleetConfig& cfg, std::uint64_t seed) {
  if (cfg.sharding.clients_per_cell == 0) {
    ClientFleet fleet(cfg);
    return fleet.run(seed);
  }
  ShardedFleet fleet(cfg);
  return fleet.run(seed);
}

}  // namespace emptcp::workload
