#include "workload/flow_loop.hpp"

#include <utility>
#include <variant>

#include "app/bulk_download.hpp"
#include "app/client_handle.hpp"
#include "app/world.hpp"
#include "trace/trace.hpp"

namespace emptcp::workload {

using Kind = Application::Kind;
using Handle = std::unique_ptr<app::ClientConnHandle>;
using Player = std::unique_ptr<app::VideoStreamClient>;
using Browser = std::unique_ptr<app::WebBrowserClient>;
/// A flow's application: its connection (downloads, uploads), stream
/// player or browser.
using FlowApp = std::variant<Handle, Player, Browser>;

/// A flow's application, kept alive until the loop goes (completion
/// callbacks run on its stack), and its energy and device-byte baselines
/// at launch.
struct FlowLoop::Flow {
  FlowApp app;
  double energy_at_start = 0.0;
  std::uint64_t bytes_at_start = 0;
};

namespace {

using Resolver = decltype(app::FileServer::Config::resolver);

/// A flow's one connection; nullptr for a page's several.
const app::ClientConnHandle* connection(const FlowApp& a) {
  if (const auto* p = std::get_if<Player>(&a)) return &(*p)->connection();
  if (const auto* h = std::get_if<Handle>(&a)) return h->get();
  return nullptr;
}

/// What the server answers each request with: the owner's sizes for a
/// download, nothing for an upload, one chunk per stream request, and a
/// page's round-robin objects (the browser tags its connections 1..P).
Resolver serve(const Application& a, Resolver sizes) {
  switch (a.kind) {
    case Kind::kDownload: return sizes;
    case Kind::kUpload: return nullptr;
    case Kind::kStream:
      return [chunk = a.stream.chunk_bytes](std::size_t, std::size_t) {
        return chunk;
      };
    case Kind::kWebPage:
      return [page = a.page, parallel = a.parallel](std::size_t conn,
                                                    std::size_t req) {
        return page->object_for(conn, req, parallel);
      };
  }
  return nullptr;
}

}  // namespace

FlowLoop::FlowLoop(const FleetConfig& cfg, app::World& w, Place place,
                   ArrivalProcess arrival, SizeFn size)
    : cfg_(cfg),
      w_(w),
      place_(place),
      arrival_(std::move(arrival)),
      size_(std::move(size)),
      budget_(place.clients * cfg.flows_per_client) {
  // A stray connection gets an empty response instead of UB.
  Resolver sizes = [this](std::size_t conn, std::size_t req) -> std::uint64_t {
    if (req != 0) return 0;
    if (size_) return size_(conn);
    return conn < records_.size() ? records_[conn].bytes : 0;
  };
  const Application& a = cfg.application;
  server_ = std::make_unique<app::FileServer>(
      w.sim, w.server,
      app::FileServer::Config{
          .port = app::kPort,
          .request_bytes = a.kind == Kind::kStream
                               ? a.stream.request_bytes
                               : cfg.scenario.request_bytes,
          .close_after_response = a.kind == Kind::kDownload,
          .resolver = serve(a, std::move(sizes)),
          .mptcp = app::make_mptcp_cfg(cfg.scenario, true)});
}

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
  const Application& a = cfg_.application;

  FlowRecord rec;
  rec.id = static_cast<std::uint32_t>(g);
  rec.client = place_.client_base + local_client;
  if (a.kind == Kind::kStream) {
    rec.bytes = app::VideoStreamClient::total_chunks(a.stream) *
                a.stream.chunk_bytes;
  } else if (a.kind == Kind::kWebPage) {
    rec.bytes = a.page->total_bytes();
  } else {
    rec.bytes = size_ ? size_(g) : cfg_.flow_size.sample(w_.sim.rng(), g);
  }
  rec.start_s = sim::to_seconds(w_.sim.now());
  records_.push_back(rec);
  flows_.push_back(Flow{{}, w_.tracker.total_j(), device_bytes()});
  EMPTCP_TRACE(w_.sim, flow_start(w_.sim.now(), rec.id, rec.bytes));

  // Every cross_every-th flow of the cell fetches from the next cell's
  // server over the backbone.
  const bool cross = cfg_.sharding.cross_every != 0 && place_.cells > 1 &&
                     (k + 1) % cfg_.sharding.cross_every == 0;
  const net::Addr target =
      cross ? app::cell_addressing((place_.cell + 1) % place_.cells).server
            : w_.addrs.server;

  // Nothing re-enters launch() before the application has started, so
  // `flow_app` stays valid.
  auto& flow_app = flows_.back().app;
  const auto done = [this, k] { on_done(k); };
  if (a.kind == Kind::kWebPage) {
    flow_app
        .emplace<Browser>(std::make_unique<app::WebBrowserClient>(
            *a.page,
            app::WebBrowserClient::Config{a.parallel,
                                          cfg_.scenario.request_bytes},
            [this, target] {
              return app::make_client(w_, cfg_.protocol, target);
            },
            done))
        ->start();
    return;
  }
  auto handle = app::make_client(w_, cfg_.protocol, target);
  handle->set_app_tag(rec.id + 1);
  app::ClientConnHandle* h = handle.get();
  if (a.kind == Kind::kStream) {
    flow_app
        .emplace<Player>(std::make_unique<app::VideoStreamClient>(
            w_.sim, a.stream, std::move(handle), done))
        ->start();
    return;
  }
  app::ClientConnHandle::Callbacks cb;
  if (a.kind == Kind::kUpload) {
    cb.on_established = [h, bytes = rec.bytes] {
      h->send(bytes);
      h->shutdown_write();
    };
    cb.on_closed = done;
  } else {
    cb.on_established = [this, h] { h->send(cfg_.scenario.request_bytes); };
    cb.on_eof = [h, done] {
      h->shutdown_write();
      done();
    };
  }
  h->set_callbacks(std::move(cb));
  flow_app = std::move(handle);
  h->connect();
}

void FlowLoop::on_done(std::size_t k) {
  FlowRecord& rec = records_[k];
  const Flow& flow = flows_[k];
  rec.completed = true;
  rec.end_s = sim::to_seconds(w_.sim.now());
  rec.delivered = delivered(k);
  // Energy attribution under overlap: the device energy spent over the
  // flow's lifetime, weighted by this flow's share of the bytes the device
  // received (sent, for uploads) in that span. Exact for non-overlapping
  // flows; a fair split for concurrent ones.
  const double de = w_.tracker.total_j() - flow.energy_at_start;
  const std::uint64_t db = device_bytes() - flow.bytes_at_start;
  rec.energy_j_est =
      db > 0
          ? de * (static_cast<double>(rec.bytes) / static_cast<double>(db))
          : 0.0;
  ++completed_;
  EMPTCP_TRACE(w_.sim, flow_complete(w_.sim.now(), rec.id, rec.bytes,
                                     rec.fct_s(), rec.energy_j_est));
  if (const app::VideoStreamClient* p = player(k)) {
    const app::VideoStreamClient::Stats& st = p->stats();
    EMPTCP_TRACE(w_.sim, stream(w_.sim.now(), rec.id, st.started_at_s,
                                st.stall_time_s, st.rebuffer_events));
  }

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
    if (!records_[i].completed) records_[i].delivered = delivered(i);
  }
  return records_;
}

std::uint64_t FlowLoop::delivered(std::size_t k) const {
  const app::ClientConnHandle* h = connection(flows_[k].app);
  if (h == nullptr) return std::get<Browser>(flows_[k].app)->bytes_received();
  return cfg_.application.kind == Kind::kUpload ? h->bytes_acked()
                                                : h->bytes_received();
}

std::uint64_t FlowLoop::device_bytes() const {
  return cfg_.application.kind == Kind::kUpload
             ? w_.wifi_if->tx_bytes() + w_.cell_if->tx_bytes()
             : w_.wifi_if->rx_bytes() + w_.cell_if->rx_bytes();
}

std::uint64_t FlowLoop::controller_switches(std::size_t k) const {
  const app::ClientConnHandle* h = connection(flows_[k].app);
  return h != nullptr ? h->controller_switches() : 0;
}

const app::VideoStreamClient* FlowLoop::player(std::size_t k) const {
  const auto* p = std::get_if<Player>(&flows_[k].app);
  return p != nullptr ? p->get() : nullptr;
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
