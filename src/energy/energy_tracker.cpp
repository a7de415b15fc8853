#include "energy/energy_tracker.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/trace.hpp"

namespace emptcp::energy {

/// Trace id for the synthetic "platform" energy stream — out of the range
/// net::InterfaceType codes occupy.
constexpr std::uint32_t kPlatformTraceCode = 0xFFFF;

EnergyTracker::EnergyTracker(sim::Simulation& sim, Config cfg)
    : sim_(sim),
      cfg_(cfg),
      ctr_clamped_(
          &sim.trace().metrics().counter("energy.clamped_byte_windows")) {}

void EnergyTracker::track(net::NetworkInterface& iface, RadioModel& radio) {
  iface.set_radio_hook(&radio);
  Entry e;
  e.iface = &iface;
  e.radio = &radio;
  entries_.push_back(std::move(e));
}

void EnergyTracker::start() {
  running_ = true;
  ++epoch_;  // retire any tick chain a previous start() left scheduled
  started_at_ = sim_.now();
  for (Entry& e : entries_) {
    e.last_bytes = e.iface->tx_bytes() + e.iface->rx_bytes();
    // mean_rx_mbps must average over the *tracked* window, so remember the
    // rx count already on the interface when tracking began.
    e.start_rx_bytes = e.iface->rx_bytes();
    e.last_state = e.radio->state_at(sim_.now());
  }
  sim_.in(cfg_.sample, [this, epoch = epoch_] { tick(epoch); });
}

void EnergyTracker::tick(std::uint64_t epoch) {
  if (!running_ || epoch != epoch_) return;
  const sim::Time now = sim_.now();
  const double window_s = sim::to_seconds(cfg_.sample);

  int transferring = 0;
  for (Entry& e : entries_) {
    const std::uint64_t bytes = e.iface->tx_bytes() + e.iface->rx_bytes();
    // A reset/reattached interface can report fewer bytes than last window;
    // the unsigned difference would wrap to ~2^64 and integrate an absurd
    // power sample. Treat a backwards counter as an idle window.
    std::uint64_t delta = 0;
    if (bytes >= e.last_bytes) {
      delta = bytes - e.last_bytes;
    } else {
      ctr_clamped_->add();
      EMPTCP_TRACE(sim_, warning(now, "energy.byte_counter_backwards",
                                 static_cast<std::int64_t>(e.last_bytes),
                                 static_cast<std::int64_t>(bytes)));
    }
    e.last_bytes = bytes;
    // Fluid smoothing: while a macro-stepped flow advances this interface's
    // counters in multi-window lumps, meter the observed bytes back out at
    // the declared fluid rate so each window's power sample sees the rate
    // packet mode would have shown it. The backlog conserves the totals:
    // whatever a window doesn't draw, a later one (or the clear) releases.
    if (e.fluid_active) {
      e.fluid_backlog += delta;
      const auto budget =
          static_cast<std::uint64_t>(e.fluid_bps * window_s + 0.5);
      delta = std::min(e.fluid_backlog, budget);
      e.fluid_backlog -= delta;
    } else if (e.fluid_backlog > 0) {
      delta += e.fluid_backlog;
      e.fluid_backlog = 0;
    }
    const double mbps = static_cast<double>(delta) * 8.0 / 1e6 / window_s;
    const bool moved = delta > 0;
    if (moved) ++transferring;
    const double power_mw = e.radio->power_mw_at(now, mbps, moved);
    e.energy_mj += power_mw * window_s;
    const auto iface_code = static_cast<std::uint32_t>(e.iface->type());
    EMPTCP_TRACE(sim_, energy_sample(now, iface_code,
                                     net::to_string(e.iface->type()), mbps,
                                     power_mw));
    const RadioState rstate = e.radio->state_at(now);
    if (rstate != e.last_state) {
      EMPTCP_TRACE(sim_, radio_state(now, iface_code,
                                     net::to_string(e.iface->type()),
                                     to_string(rstate)));
      e.last_state = rstate;
    }
    if (cfg_.record_series) {
      e.rates.push_back(RatePoint{sim::to_seconds(now), mbps});
    }
  }
  if (transferring >= 1) {
    platform_mj_ += cfg_.platform_mw * window_s;
  }
  if (cfg_.platform_mw > 0.0) {
    // The shared platform-activity draw must appear in the trace too, or
    // integrating the energy_sample stream can never reproduce total_j().
    // Sampled every window (zero when no radio moved bytes) so offline
    // integration needs no knowledge of the transfer windows.
    const double plat_mw = transferring >= 1 ? cfg_.platform_mw : 0.0;
    EMPTCP_TRACE(sim_, energy_sample(now, kPlatformTraceCode, "platform",
                                     0.0, plat_mw));
  }
  if (cfg_.record_series) {
    energy_series_.push_back(SeriesPoint{sim::to_seconds(now), total_j()});
  }
  sim_.in(cfg_.sample, [this, epoch] { tick(epoch); });
}

void EnergyTracker::set_fluid_rate(const net::NetworkInterface& iface,
                                   double bytes_per_s) {
  for (Entry& e : entries_) {
    if (e.iface == &iface) {
      e.fluid_active = true;
      e.fluid_bps = bytes_per_s;
      return;
    }
  }
}

void EnergyTracker::clear_fluid_rate(const net::NetworkInterface& iface) {
  for (Entry& e : entries_) {
    if (e.iface == &iface) {
      e.fluid_active = false;
      e.fluid_bps = 0.0;
      // The backlog (if any) is released into the next tick's delta.
      return;
    }
  }
}

double EnergyTracker::total_j() const {
  double mj = platform_mj_;
  for (const Entry& e : entries_) mj += e.energy_mj;
  return mj / 1000.0;
}

const EnergyTracker::Entry* EnergyTracker::find(net::InterfaceType t) const {
  for (const Entry& e : entries_) {
    if (e.iface->type() == t) return &e;
  }
  return nullptr;
}

double EnergyTracker::iface_j(net::InterfaceType t) const {
  const Entry* e = find(t);
  return e != nullptr ? e->energy_mj / 1000.0 : 0.0;
}

bool EnergyTracker::all_idle() const {
  for (const Entry& e : entries_) {
    if (e.radio->state_at(sim_.now()) != RadioState::kIdle) return false;
  }
  return true;
}

const std::vector<EnergyTracker::RatePoint>& EnergyTracker::rate_series(
    net::InterfaceType t) const {
  const Entry* e = find(t);
  if (e == nullptr) {
    throw std::invalid_argument("EnergyTracker: interface type not tracked");
  }
  return e->rates;
}

double EnergyTracker::mean_rx_mbps(net::InterfaceType t) const {
  const Entry* e = find(t);
  if (e == nullptr) return 0.0;
  const double elapsed = sim::to_seconds(sim_.now() - started_at_);
  if (elapsed <= 0.0) return 0.0;
  // Only bytes received since start() count: the interface's lifetime
  // counter may include traffic from before tracking began.
  const std::uint64_t rx = e->iface->rx_bytes() - e->start_rx_bytes;
  return static_cast<double>(rx) * 8.0 / 1e6 / elapsed;
}

}  // namespace emptcp::energy
