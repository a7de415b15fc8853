#include "workload/fleet.hpp"

#include "app/world.hpp"
#include "trace/trace.hpp"
#include "workload/flow_loop.hpp"

namespace emptcp::workload {

ClientFleet::ClientFleet(FleetConfig cfg) : cfg_(std::move(cfg)) {}

ClientFleet::~ClientFleet() = default;

app::World& ClientFleet::world() { return *world_; }

bool ClientFleet::done() const { return flows_->done(); }

void ClientFleet::start(std::uint64_t seed) {
  world_ = std::make_unique<app::World>(cfg_.scenario, seed);
  flows_ = std::make_unique<FlowLoop>(
      cfg_, *world_, FlowLoop::Place{0, 1, cfg_.clients, 0}, cfg_.arrival);
  flows_->start();
}

void ClientFleet::run_until(double t_s) {
  world_->sim.run_until(sim::from_seconds(t_s));
}

FleetMetrics ClientFleet::run(std::uint64_t seed) {
  start(seed);
  app::advance_until(*world_, [this] { return done(); },
                     cfg_.scenario.max_sim_time);
  return finish();
}

FleetMetrics ClientFleet::finish() {
  app::World& w = *world_;
  // Unlike run()'s predicate, a fleet that never started a flow has not
  // completed.
  const bool all_done = done() && flows_->started() > 0;
  if (all_done) app::drain_tails(w, cfg_.scenario.max_drain);
  w.tracker.stop();

  FleetMetrics m;
  m.flows = flows_->collect();
  m.flows_started = flows_->started();
  m.flows_completed = flows_->completed();
  const std::uint64_t bytes = fold_flows(m);
  if (cfg_.scenario.trace) {
    // Fleet summary gauges, recorded before collect_core snapshots the
    // registry so serialized traces carry the per-flow headline numbers.
    trace::Metrics& reg = w.sim.trace().metrics();
    reg.gauge("fleet.clients").set(static_cast<double>(cfg_.clients));
    reg.gauge("fleet.flows_started")
        .set(static_cast<double>(m.flows_started));
    reg.gauge("fleet.flows_completed")
        .set(static_cast<double>(m.flows_completed));
  }
  m.run = app::collect_core(w, all_done, sim::to_seconds(w.sim.now()), bytes,
                            0);
  return m;
}

}  // namespace emptcp::workload
