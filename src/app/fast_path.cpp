#include "app/fast_path.hpp"

#include <algorithm>
#include <cmath>

#include "app/world.hpp"
#include "mptcp/subflow.hpp"
#include "net/packet.hpp"
#include "sim/hooks.hpp"
#include "trace/trace.hpp"

namespace emptcp::app {
namespace {

net::InterfaceType iface_type(int i) {
  return i == 0 ? net::InterfaceType::kWifi : net::InterfaceType::kLte;
}

/// Trace flow id. Fleets tag each connection with its flow id + 1, so a
/// fastpath record joins that flow's flow_start and flow_complete; an
/// untagged single-flow run is flow 0.
std::uint32_t flow_id(const mptcp::MptcpConnection& conn) {
  return conn.app_tag() > 0 ? conn.app_tag() - 1 : 0;
}

}  // namespace

FastPath::FastPath(World& w, Config cfg) : w_(w), cfg_(cfg) {
  sim::hooks(w_.sim).fast_path = this;
}

FastPath::~FastPath() {
  sim::Hooks& hooks = sim::hooks(w_.sim);
  if (hooks.fast_path == this) hooks.fast_path = nullptr;
  apply_wire_load(WireLoad{});
}

FastPath::Flow* FastPath::find(const mptcp::MptcpConnection& conn) {
  for (Flow& f : flows_) {
    if (!f.dead && (f.client == &conn || f.server == &conn)) return &f;
  }
  return nullptr;
}

void FastPath::on_conn_established(mptcp::MptcpConnection& conn) {
  // Pair client and server endpoints by token; a flow only exists once
  // both ends are up, because analytic advancement moves them in lockstep.
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    mptcp::MptcpConnection* other = *it;
    if (other->token() == conn.token() &&
        other->is_server() != conn.is_server()) {
      pending_.erase(it);
      Flow f;
      f.client = conn.is_server() ? other : &conn;
      f.server = conn.is_server() ? &conn : other;
      flows_.push_back(f);
      // A new flow shrinks every peer's fair share: frozen fluid rates are
      // stale the moment it starts competing, so everyone re-measures.
      kick_all();
      return;
    }
  }
  pending_.push_back(&conn);
}

void FastPath::on_conn_destroyed(mptcp::MptcpConnection& conn) {
  pending_.erase(std::remove(pending_.begin(), pending_.end(), &conn),
                 pending_.end());
  Flow* f = find(conn);
  if (f == nullptr) return;
  // Never leave the surviving end frozen: a paused sender would otherwise
  // sit on its backlog forever.
  if (f->sender != nullptr && f->sender != &conn && f->sender->tx_paused()) {
    f->sender->set_tx_paused(false);
  }
  f->dead = true;
  f->client = f->server = f->sender = f->receiver = nullptr;
  if (!in_tick_) {
    flows_.erase(std::remove_if(flows_.begin(), flows_.end(),
                                [](const Flow& x) { return x.dead; }),
                 flows_.end());
    if (flows_.empty()) disarm();
  }
  // The departed flow's bandwidth is up for grabs; peers frozen at their
  // old fair share would never claim it (and packet-level survivors would
  // expand past theirs), so everyone re-measures the new regime.
  kick_all();
}

void FastPath::on_conn_transient(mptcp::MptcpConnection& conn) {
  Flow* f = find(conn);
  if (f != nullptr) {
    drop_to_measure(*f, "transient");
    arm();  // a parked governor wakes on the first sign of activity
  }
}

void FastPath::kick_all() {
  for (Flow& f : flows_) {
    if (!f.dead) drop_to_measure(f, "link-change");
  }
  if (!flows_.empty()) arm();
}

void FastPath::arm() {
  if (armed_) return;
  armed_ = true;
  idle_ticks_ = 0;
  last_tick_ = w_.sim.now();
  // Half-quantum phase offset: the EnergyTracker samples on multiples of
  // its own (equal) period, and interleaving the two chains keeps a
  // macro-step from landing on the exact sampling instant.
  const std::uint64_t epoch = ++epoch_;
  w_.sim.in(cfg_.quantum / 2 + cfg_.quantum, [this, epoch] { tick(epoch); });
}

void FastPath::disarm() {
  if (!armed_) return;
  armed_ = false;
  ++epoch_;  // retire the scheduled tick
  apply_wire_load(WireLoad{});  // release energy metering and link shares
}

void FastPath::trace_transition(const Flow& f, const char* state,
                                const char* reason) {
  EMPTCP_TRACE(w_.sim, fastpath(w_.sim.now(), flow_id(*f.client), state,
                                reason, f.sender->macro_pending_bytes(),
                                f.rate_bps[0] * 8e-6, f.rate_bps[1] * 8e-6));
}

void FastPath::drop_to_measure(Flow& f, const char* why) {
  if (f.state != State::kMeasure) trace_transition(f, "measure", why);
  if (f.sender != nullptr && f.sender->tx_paused()) {
    f.sender->set_tx_paused(false);
  }
  f.state = State::kMeasure;
  f.stable = 0;
  f.drain = 0;
  f.last_total = 0.0;
  for (int i = 0; i < kIfaces; ++i) {
    f.carry[i] = 0.0;
    // Re-baseline the receive counters: fluid mode advanced them in lumps
    // that must not pollute the next rate measurement.
    mptcp::Subflow* sf =
        f.receiver != nullptr ? f.receiver->subflow_on(iface_type(i)) : nullptr;
    f.last_rx[i] = sf != nullptr ? sf->socket().app_bytes_received() : 0;
  }
}

bool FastPath::measure(Flow& f, double dt) {
  // Direction follows the unassigned backlog: the side with data queued is
  // the sender (the server, in every download scenario).
  const std::uint64_t pc = f.client->macro_pending_bytes();
  const std::uint64_t ps = f.server->macro_pending_bytes();
  mptcp::MptcpConnection* sender = ps >= pc ? f.server : f.client;
  if (sender != f.sender) {
    f.sender = sender;
    f.receiver = sender == f.server ? f.client : f.server;
    f.stable = 0;
    f.last_total = 0.0;
    for (int i = 0; i < kIfaces; ++i) {
      mptcp::Subflow* sf = f.receiver->subflow_on(iface_type(i));
      f.last_rx[i] = sf != nullptr ? sf->socket().app_bytes_received() : 0;
    }
    return true;  // first measurement starts next tick
  }
  // EWMA-smoothed per-interface rates: at fleet scale a flow's fair share
  // is a handful of packets per quantum, so the instantaneous tick-to-tick
  // rate swings with pure arrival quantization. The smoothed rate is what
  // fluid mode freezes; stability compares the instantaneous rate against
  // it with both a relative spread and an absolute few-MSS floor.
  constexpr double kAlpha = 0.4;
  const bool first = f.last_total <= 0.0;
  double inst_total = 0.0;
  double ewma_total = 0.0;
  for (int i = 0; i < kIfaces; ++i) {
    mptcp::Subflow* sf = f.receiver->subflow_on(iface_type(i));
    const std::uint64_t cur =
        sf != nullptr ? sf->socket().app_bytes_received() : 0;
    const std::uint64_t delta = cur >= f.last_rx[i] ? cur - f.last_rx[i] : 0;
    f.last_rx[i] = cur;
    const double inst = static_cast<double>(delta) / dt;
    f.rate_bps[i] = first ? inst : (1.0 - kAlpha) * f.rate_bps[i] + kAlpha * inst;
    inst_total += inst;
    ewma_total += f.rate_bps[i];
  }
  const double slack = cfg_.stability_spread * ewma_total +
                       3.0 * static_cast<double>(net::kMss) / dt;
  if (inst_total > 0.0 && !first &&
      std::abs(inst_total - ewma_total) <= slack) {
    ++f.stable;
  } else {
    f.stable = 0;
  }
  f.last_total = ewma_total;
  return inst_total > 0.0;
}

void FastPath::try_enter(Flow& f) {
  if (f.sender == nullptr || f.receiver == nullptr) return;
  if (f.sender->macro_pending_bytes() < cfg_.min_fluid_bytes) return;
  if (f.stable < cfg_.stable_ticks) return;
  const double quantum_s = sim::to_seconds(cfg_.quantum);
  bool any = false;
  for (int i = 0; i < kIfaces; ++i) {
    if (f.rate_bps[i] * quantum_s < 1.0) continue;  // iface carries nothing
    mptcp::Subflow* snd = f.sender->subflow_on(iface_type(i));
    mptcp::Subflow* rcv = f.receiver->subflow_on(iface_type(i));
    if (snd == nullptr || rcv == nullptr || !snd->usable()) return;
    // Slow start is a transient by definition: the window doubles per RTT
    // and the analytic model assumes the CA sawtooth. Checked per carrying
    // interface only — a suspended backup subflow idles in slow start
    // forever and must not veto the others.
    if (snd->socket().congestion_control().in_slow_start()) return;
    net::NetworkInterface* ci = i == 0 ? w_.wifi_if : w_.cell_if;
    if (!ci->is_up()) return;
    any = true;
  }
  if (!any) return;
  trace_transition(f, "drain", "stable");
  f.sender->set_tx_paused(true);
  f.state = State::kDraining;
  f.drain = 0;
}

void FastPath::fluid_step(Flow& f, double dt, const double rate[kIfaces],
                          WireLoad& load) {
  if (!f.sender->can_macro_step_send() || !f.receiver->can_macro_step_recv()) {
    drop_to_measure(f, "not-quiescent");
    return;
  }
  std::uint64_t remaining = f.sender->macro_pending_bytes();
  if (remaining <= cfg_.tail_bytes) {
    drop_to_measure(f, "tail");  // finish at packet level
    return;
  }
  std::uint64_t avail = remaining - cfg_.tail_bytes;
  for (int i = 0; i < kIfaces && avail > 0; ++i) {
    const double want = rate[i] * dt + f.carry[i];
    auto bytes = static_cast<std::uint64_t>(want);
    f.carry[i] = want - static_cast<double>(bytes);
    bytes = std::min(bytes, avail);
    if (bytes == 0) continue;
    const net::InterfaceType type = iface_type(i);
    mptcp::Subflow* snd = f.sender->subflow_on(type);
    net::NetworkInterface* ci = i == 0 ? w_.wifi_if : w_.cell_if;
    if (snd == nullptr || !ci->is_up()) {
      drop_to_measure(f, "iface-down");
      return;
    }
    avail -= bytes;
    // Cap the analytic window at the measured BDP plus headroom: this
    // drives the CA sawtooth (CongestionControl::macro_advance) and bounds
    // the burst released when the flow drops back to packet level.
    const double srtt_s = sim::to_seconds(snd->socket().srtt());
    const std::uint64_t cap =
        static_cast<std::uint64_t>(rate[i] * srtt_s * 1.5) + 3ull * net::kMss;
    f.sender->macro_advance_send(type, bytes, cap);
    f.receiver->macro_advance_recv(type, bytes);
    // A data/data-acked callback may have queued more data or closed the
    // write side; the transient notification then reset this flow.
    if (f.dead || f.state != State::kFluid) return;
    // Wire-byte accounting the packets would have produced: MSS-sized
    // data segments one way, one pure ACK per segment the other.
    const std::uint64_t segs = (bytes + net::kMss - 1) / net::kMss;
    const std::uint64_t data_wire = bytes + segs * net::Packet::kHeaderBytes;
    const std::uint64_t ack_wire = segs * net::Packet::kHeaderBytes;
    const bool down = f.receiver == f.client;  // server -> client transfer
    ci->macro_account(down ? ack_wire : data_wire,
                      down ? data_wire : ack_wire);
    w_.srv_if->macro_account(down ? data_wire : ack_wire,
                             down ? ack_wire : data_wire);
    load.total[i] += static_cast<double>(data_wire + ack_wire) / dt;
    load.down[i] += static_cast<double>(down ? data_wire : ack_wire) / dt;
    load.up[i] += static_cast<double>(down ? ack_wire : data_wire) / dt;
    fluid_bytes_ += bytes;
  }
}

void FastPath::apply_wire_load(const WireLoad& load) {
  for (int i = 0; i < kIfaces; ++i) {
    net::NetworkInterface* ci = i == 0 ? w_.wifi_if : w_.cell_if;
    if (load.total[i] > 0.0) {
      w_.tracker.set_fluid_rate(*ci, load.total[i]);
    } else {
      w_.tracker.clear_fluid_rate(*ci);
    }
    // Fluid traffic must keep occupying the path it bypasses: without
    // this, packet-level peers expand into the vacated bandwidth and the
    // aggregate throughput exceeds the physical line.
    net::Link* down[2] = {i == 0 ? w_.wifi_wan_down.get() : w_.cell_wan_down.get(),
                          i == 0 ? w_.wifi_acc_down.get() : w_.cell_acc_down.get()};
    net::Link* up[2] = {i == 0 ? w_.wifi_acc_up.get() : w_.cell_acc_up.get(),
                        i == 0 ? w_.wifi_wan_up.get() : w_.cell_wan_up.get()};
    for (net::Link* l : down) l->set_background_bps(load.down[i] * 8.0);
    for (net::Link* l : up) l->set_background_bps(load.up[i] * 8.0);
  }
}

void FastPath::tick(std::uint64_t epoch) {
  if (!armed_ || epoch != epoch_) return;
  const sim::Time now = w_.sim.now();
  const double dt = sim::to_seconds(now - last_tick_);
  last_tick_ = now;
  in_tick_ = true;
  bool any_active = false;
  if (dt > 0.0) {
    // Phase 1: advance per-flow state machines (measurement, entry,
    // drain promotion). Track busy<->idle edges: a flow finishing its
    // transfer or going quiet for think time frees (or reclaims) link
    // share, and fluid peers frozen at the old allocation must
    // re-measure — connection-membership callbacks never see this
    // because closed-loop fleets keep connections alive across flows.
    bool load_changed = false;
    for (Flow& f : flows_) {
      if (f.dead) continue;
      bool busy = true;
      switch (f.state) {
        case State::kMeasure: {
          const bool moved = measure(f, dt);
          if (moved) any_active = true;
          try_enter(f);
          if (f.state != State::kMeasure) any_active = true;
          const std::uint64_t pending =
              std::max(f.client->macro_pending_bytes(),
                       f.server->macro_pending_bytes());
          busy = moved || pending > 0 || f.state != State::kMeasure;
          break;
        }
        case State::kDraining:
          any_active = true;
          if (f.sender->can_macro_step_send() &&
              f.receiver->can_macro_step_recv()) {
            f.state = State::kFluid;
            ++fluid_entries_;
            for (double& c : f.carry) c = 0.0;
            trace_transition(f, "fluid", "quiescent");
          } else if (++f.drain > cfg_.max_drain_ticks) {
            drop_to_measure(f, "drain-timeout");  // never went quiescent
          }
          break;
        case State::kFluid:
          any_active = true;
          break;
      }
      if (busy != f.busy) {
        f.busy = busy;
        load_changed = true;
      }
    }
    if (load_changed) {
      for (Flow& f : flows_) {
        if (!f.dead && f.state != State::kMeasure) {
          drop_to_measure(f, "load-change");
        }
      }
    }
    // Phase 2: aggregate-and-equalize. Each flow's frozen measurement
    // captured whatever point of the AIMD sawtooth it happened to be on;
    // packet-level AIMD keeps re-equalizing same-bottleneck flows, so
    // freezing the individual rates locks a transient imbalance in for
    // the whole fluid residence. Splitting the *aggregate* measured rate
    // evenly across the fluid flows carrying an interface (per
    // direction) matches the packet model's converged allocation while
    // conserving the total, and the sum is additionally clamped to the
    // access link's capacity in case the measurements predate a peer
    // going fluid.
    const double quantum_s = sim::to_seconds(cfg_.quantum);
    double demand[kIfaces][2] = {{0.0, 0.0}, {0.0, 0.0}};  // [iface][down?]
    int carriers[kIfaces][2] = {{0, 0}, {0, 0}};
    for (const Flow& f : flows_) {
      if (f.dead || f.state != State::kFluid) continue;
      const int down = f.receiver == f.client ? 1 : 0;
      for (int i = 0; i < kIfaces; ++i) {
        if (f.rate_bps[i] * quantum_s < 1.0) continue;
        demand[i][down] += f.rate_bps[i];
        ++carriers[i][down];
      }
    }
    const double cap_bps[kIfaces][2] = {
        {w_.wifi_acc_up->rate_mbps() * 1e6 / 8.0,
         w_.wifi_acc_down->rate_mbps() * 1e6 / 8.0},
        {w_.cell_acc_up->rate_mbps() * 1e6 / 8.0,
         w_.cell_acc_down->rate_mbps() * 1e6 / 8.0}};
    // Phase 3: advance fluid flows at their equalized share, then publish
    // the aggregate wire rate to the energy tracker (window metering) and
    // to the links (background occupancy seen by the remaining packet
    // flows).
    WireLoad load;
    for (Flow& f : flows_) {
      if (f.dead || f.state != State::kFluid) continue;
      const int down = f.receiver == f.client ? 1 : 0;
      double rate[kIfaces];
      for (int i = 0; i < kIfaces; ++i) {
        if (f.rate_bps[i] * quantum_s < 1.0 || carriers[i][down] == 0) {
          rate[i] = 0.0;
          continue;
        }
        const double total = std::min(demand[i][down], cap_bps[i][down]);
        rate[i] = total / carriers[i][down];
      }
      fluid_step(f, dt, rate, load);
    }
    apply_wire_load(load);
  }
  in_tick_ = false;
  flows_.erase(std::remove_if(flows_.begin(), flows_.end(),
                              [](const Flow& x) { return x.dead; }),
               flows_.end());
  if (flows_.empty()) {
    disarm();
    return;
  }
  // Park when every flow has been quiet for a while: an armed governor is
  // a self-perpetuating event chain, and an idle fleet (think time, a
  // finished timed run with live connections) must let the scheduler go
  // quiescent. Any transient — an app write, a link change — re-arms.
  if (dt > 0.0) {
    if (any_active) {
      idle_ticks_ = 0;
    } else if (++idle_ticks_ >= cfg_.idle_park_ticks) {
      disarm();
      return;
    }
  }
  w_.sim.in(cfg_.quantum, [this, epoch] { tick(epoch); });
}

}  // namespace emptcp::app
