#include "baselines/mdp_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emptcp::baseline {

const char* MdpScheduler::to_string(Action a) {
  switch (a) {
    case Action::kWifiOnly: return "wifi-only";
    case Action::kCellOnly: return "cell-only";
    case Action::kBoth: return "both";
  }
  return "?";
}

MdpScheduler::MdpScheduler(energy::EnergyModel model, Config cfg)
    : model_(std::move(model)),
      cfg_(std::move(cfg)),
      wifi_bins_(cfg_.wifi_edges.size() + 1),
      cell_bins_(cfg_.cell_edges.size() + 1) {
  const std::size_t n = state_count();
  transitions_.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t s = 0; s < n; ++s) transitions_[s][s] = 1.0;
  value_.assign(n, 0.0);
  policy_.assign(n, Action::kWifiOnly);
}

std::size_t MdpScheduler::wifi_bin(double mbps) const {
  const auto it = std::upper_bound(cfg_.wifi_edges.begin(),
                                   cfg_.wifi_edges.end(), mbps);
  return static_cast<std::size_t>(it - cfg_.wifi_edges.begin());
}

std::size_t MdpScheduler::cell_bin(double mbps) const {
  const auto it = std::upper_bound(cfg_.cell_edges.begin(),
                                   cfg_.cell_edges.end(), mbps);
  return static_cast<std::size_t>(it - cfg_.cell_edges.begin());
}

std::size_t MdpScheduler::state_of(double wifi_mbps, double cell_mbps) const {
  return wifi_bin(wifi_mbps) * cell_bins_ + cell_bin(cell_mbps);
}

double MdpScheduler::bin_center(const std::vector<double>& edges,
                                std::size_t bin) const {
  if (bin == 0) return 0.0;
  const double lo = edges[bin - 1];
  // The open-ended top bin is represented by its lower edge: a
  // conservative stand-in that keeps the representative rate inside the
  // measured envelope.
  const double hi = bin < edges.size() ? edges[bin] : lo;
  return (lo + hi) / 2.0;
}

void MdpScheduler::fit(const std::vector<std::pair<double, double>>& trace) {
  const std::size_t n = state_count();
  std::vector<std::vector<double>> counts(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const std::size_t from = state_of(trace[i - 1].first, trace[i - 1].second);
    const std::size_t to = state_of(trace[i].first, trace[i].second);
    counts[from][to] += 1.0;
  }
  for (std::size_t s = 0; s < n; ++s) {
    double total = 0.0;
    for (double c : counts[s]) total += c;
    if (total <= 0.0) {
      // Unvisited state: self-loop (no information).
      std::fill(transitions_[s].begin(), transitions_[s].end(), 0.0);
      transitions_[s][s] = 1.0;
      continue;
    }
    for (std::size_t t = 0; t < n; ++t) {
      transitions_[s][t] = counts[s][t] / total;
    }
  }
  solved_ = false;
}

double MdpScheduler::cost(std::size_t state, Action a) const {
  const std::size_t wb = state / cell_bins_;
  const std::size_t cb = state % cell_bins_;
  const double xw = bin_center(cfg_.wifi_edges, wb);
  const double xl = bin_center(cfg_.cell_edges, cb);

  switch (a) {
    case Action::kWifiOnly:
      if (wb == 0) return cfg_.unusable_cost_mw;
      return model_.platform_mw + model_.wifi.active_power_mw(xw);
    case Action::kCellOnly:
      if (cb == 0) return cfg_.unusable_cost_mw;
      return model_.platform_mw + model_.cell.active_power_mw(xl);
    case Action::kBoth:
      if (wb == 0 && cb == 0) return cfg_.unusable_cost_mw;
      return model_.platform_mw + model_.wifi.active_power_mw(xw) +
             model_.cell.active_power_mw(xl);
  }
  return cfg_.unusable_cost_mw;
}

int MdpScheduler::solve(int max_sweeps, double tolerance) {
  const std::size_t n = state_count();
  constexpr Action kActions[] = {Action::kWifiOnly, Action::kCellOnly,
                                 Action::kBoth};
  int sweep = 0;
  for (; sweep < max_sweeps; ++sweep) {
    double delta = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      double future = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        if (transitions_[s][t] > 0.0) future += transitions_[s][t] * value_[t];
      }
      double best = 0.0;
      Action best_a = Action::kWifiOnly;
      bool first = true;
      for (Action a : kActions) {
        // Transitions are action-independent (bandwidth evolves with the
        // environment, not with the schedule), as in Pluntke et al.
        const double q = cost(s, a) + cfg_.discount * future;
        if (first || q < best) {
          best = q;
          best_a = a;
          first = false;
        }
      }
      delta = std::max(delta, std::abs(best - value_[s]));
      value_[s] = best;
      policy_[s] = best_a;
    }
    if (delta < tolerance) {
      ++sweep;
      break;
    }
  }
  solved_ = true;
  return sweep;
}

MdpScheduler::Action MdpScheduler::policy(std::size_t state) const {
  if (!solved_) throw std::logic_error("MdpScheduler::policy before solve()");
  return policy_.at(state);
}

MdpScheduler::Action MdpScheduler::action_for(double wifi_mbps,
                                              double cell_mbps) const {
  return policy(state_of(wifi_mbps, cell_mbps));
}

MdpRunner::MdpRunner(sim::Simulation& sim, const MdpScheduler& scheduler,
                     mptcp::MptcpConnection& conn,
                     net::NetworkInterface& wifi,
                     net::NetworkInterface& cell)
    : sim_(sim),
      scheduler_(scheduler),
      conn_(conn),
      wifi_(wifi),
      cell_(cell),
      timer_(sim.scheduler(), [this] { epoch(); }) {}

void MdpRunner::start() {
  last_wifi_rx_ = wifi_.rx_bytes();
  last_cell_rx_ = cell_.rx_bytes();
  timer_.arm_in(sim::seconds(1));
}

void MdpRunner::epoch() {
  const std::uint64_t wrx = wifi_.rx_bytes();
  const std::uint64_t crx = cell_.rx_bytes();
  const double wifi_mbps =
      static_cast<double>(wrx - last_wifi_rx_) * 8.0 / 1e6;
  const double cell_mbps =
      static_cast<double>(crx - last_cell_rx_) * 8.0 / 1e6;
  last_wifi_rx_ = wrx;
  last_cell_rx_ = crx;

  apply(scheduler_.action_for(wifi_mbps, cell_mbps));
  timer_.arm_in(sim::seconds(1));
}

void MdpRunner::apply(MdpScheduler::Action a) {
  mptcp::Subflow* wsf = conn_.subflow_on(net::InterfaceType::kWifi);
  mptcp::Subflow* csf = conn_.subflow_on(net::InterfaceType::kLte);
  if (wsf == nullptr || csf == nullptr) return;
  switch (a) {
    case MdpScheduler::Action::kWifiOnly:
      conn_.request_priority(*csf, true);
      conn_.request_priority(*wsf, false);
      break;
    case MdpScheduler::Action::kCellOnly:
      conn_.request_priority(*wsf, true);
      conn_.request_priority(*csf, false);
      break;
    case MdpScheduler::Action::kBoth:
      conn_.request_priority(*wsf, false);
      conn_.request_priority(*csf, false);
      break;
  }
}

}  // namespace emptcp::baseline
