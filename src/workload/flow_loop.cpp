#include "workload/flow_loop.hpp"

#include <utility>

#include "app/bulk_download.hpp"
#include "app/client_handle.hpp"
#include "app/world.hpp"
#include "trace/trace.hpp"

namespace emptcp::workload {

/// A flow's connection (kept alive until the loop goes: completion
/// callbacks run on its stack) and its energy/rx baselines at launch.
struct FlowLoop::Flow {
  std::unique_ptr<app::ClientConnHandle> handle;
  double energy_at_start = 0.0;
  std::uint64_t rx_at_start = 0;
};

namespace {

std::uint64_t client_rx(const app::World& w) {
  return w.wifi_if->rx_bytes() + w.cell_if->rx_bytes();
}

}  // namespace

FlowLoop::FlowLoop(const FleetConfig& cfg, app::World& w, Place place,
                   ArrivalProcess arrival, SizeFn size, Resolver resolver)
    : cfg_(cfg),
      w_(w),
      place_(place),
      arrival_(std::move(arrival)),
      size_(std::move(size)),
      budget_(place.clients * cfg.flows_per_client),
      server_(std::make_unique<app::FileServer>(
          w.sim, w.server,
          app::FileServer::Config{
              .port = app::kPort,
              .request_bytes = cfg.scenario.request_bytes,
              .close_after_response = true,
              .resolver = std::move(resolver),
              .mptcp = app::make_mptcp_cfg(cfg.scenario, true)})) {}

FlowLoop::~FlowLoop() = default;

void FlowLoop::start() {
  w_.tracker.start();
  w_.start_dynamics();
  if (cfg_.mode == FleetConfig::Mode::kClosed) {
    done_per_client_.assign(place_.clients, 0);
    for (std::size_t k = 0; k < place_.clients; ++k) {
      launch(static_cast<std::uint32_t>(k));
    }
  } else {
    schedule_next_arrival();
  }
}

bool FlowLoop::done() const {
  if (cfg_.mode == FleetConfig::Mode::kOpen) {
    return arrivals_done_ && completed_ >= started();
  }
  return budget_ != 0 && completed_ >= budget_;
}

void FlowLoop::schedule_next_arrival() {
  if (budget_ != 0 && started() >= budget_) {
    arrivals_done_ = true;
    return;
  }
  // Cells consume a trace schedule round-robin: arrival n of cell i is
  // the schedule's entry i + n*cells.
  const double next = arrival_.next_start_s(
      w_.sim.rng(), last_arrival_s_,
      place_.cell + arrivals_issued_ * place_.cells);
  if (next < 0.0) {  // trace schedule exhausted
    arrivals_done_ = true;
    return;
  }
  last_arrival_s_ = next;
  const std::size_t index = arrivals_issued_++;
  const auto client = static_cast<std::uint32_t>(
      place_.clients > 0 ? index % place_.clients : 0);
  sim::Time at = sim::from_seconds(next);
  if (at < w_.sim.now()) at = w_.sim.now();
  w_.sim.at(at, [this, client] {
    launch(client);
    schedule_next_arrival();
  });
}

void FlowLoop::launch(std::uint32_t local_client) {
  const std::size_t k = records_.size();
  const std::uint64_t g = place_.cell + k * place_.cells;

  FlowRecord rec;
  rec.id = static_cast<std::uint32_t>(g);
  rec.client = place_.client_base + local_client;
  rec.bytes = size_(g);
  rec.start_s = sim::to_seconds(w_.sim.now());
  records_.push_back(rec);
  Flow flow{nullptr, w_.tracker.total_j(), client_rx(w_)};
  EMPTCP_TRACE(w_.sim, flow_start(w_.sim.now(), rec.id, rec.bytes));

  // Every cross_every-th flow of the cell fetches from the next cell's
  // server over the backbone.
  const bool cross = cfg_.sharding.cross_every != 0 && place_.cells > 1 &&
                     (k + 1) % cfg_.sharding.cross_every == 0;
  const net::Addr target =
      cross ? app::cell_addressing((place_.cell + 1) % place_.cells).server
            : w_.addrs.server;

  flow.handle = app::make_client(w_, cfg_.protocol, target);
  flow.handle->set_app_tag(rec.id + 1);
  app::ClientConnHandle* h = flow.handle.get();
  app::ClientConnHandle::Callbacks cb;
  cb.on_established = [this, h] { h->send(cfg_.scenario.request_bytes); };
  cb.on_eof = [this, h, k] {
    h->shutdown_write();
    on_done(k);
  };
  h->set_callbacks(std::move(cb));
  flows_.push_back(std::move(flow));
  h->connect();
}

void FlowLoop::on_done(std::size_t k) {
  FlowRecord& rec = records_[k];
  const Flow& flow = flows_[k];
  rec.completed = true;
  rec.end_s = sim::to_seconds(w_.sim.now());
  rec.delivered = flow.handle->bytes_received();
  // Energy attribution under overlap: the device energy spent over the
  // flow's lifetime, weighted by this flow's share of the bytes the device
  // received in that span. Exact for non-overlapping flows; a fair split
  // for concurrent ones.
  const double de = w_.tracker.total_j() - flow.energy_at_start;
  const std::uint64_t db = client_rx(w_) - flow.rx_at_start;
  rec.energy_j_est =
      db > 0
          ? de * (static_cast<double>(rec.bytes) / static_cast<double>(db))
          : 0.0;
  ++completed_;
  EMPTCP_TRACE(w_.sim, flow_complete(w_.sim.now(), rec.id, rec.bytes,
                                     rec.fct_s(), rec.energy_j_est));

  if (cfg_.mode != FleetConfig::Mode::kClosed) return;
  const std::uint32_t client = rec.client - place_.client_base;
  const std::size_t done = ++done_per_client_[client];
  if (cfg_.flows_per_client != 0 && done >= cfg_.flows_per_client) return;
  const double think = cfg_.think.sample_s(w_.sim.rng());
  if (think <= 0.0) {
    launch(client);
  } else {
    w_.sim.in(sim::from_seconds(think), [this, client] { launch(client); });
  }
}

const std::vector<FlowRecord>& FlowLoop::collect() {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!records_[i].completed) {
      records_[i].delivered = flows_[i].handle->bytes_received();
    }
  }
  return records_;
}

std::uint64_t fold_flows(FleetMetrics& m) {
  std::uint64_t bytes = 0;
  for (const FlowRecord& r : m.flows) {
    if (!r.completed) continue;
    bytes += r.bytes;
    m.fct_hist.add(r.fct_s());
    if (r.bytes > 0) m.epb_hist.add(r.energy_per_bit_uj());
  }
  return bytes;
}

}  // namespace emptcp::workload
