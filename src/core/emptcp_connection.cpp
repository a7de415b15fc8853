#include "core/emptcp_connection.hpp"

#include <algorithm>

namespace emptcp::core {

EmptcpConnection::EmptcpConnection(sim::Simulation& sim, net::Node& node,
                                   EmptcpConfig cfg, const EnergyInfoBase& eib,
                                   BandwidthPredictor* shared_predictor)
    : sim_(sim), node_(node), cfg_(std::move(cfg)), eib_(eib) {
  if (shared_predictor != nullptr) {
    predictor_ = shared_predictor;
  } else {
    owned_predictor_ =
        std::make_unique<BandwidthPredictor>(sim_, cfg_.predictor);
    predictor_ = owned_predictor_.get();
  }

  meta_ = std::make_unique<mptcp::MptcpConnection>(sim_, node_, cfg_.mptcp);
  predictor_->add_demand_probe([this] { return !is_idle(); });

  controller_ = std::make_unique<PathUsageController>(
      sim_, eib_, *predictor_, cfg_.controller,
      [this](PathUsage prev, PathUsage next) { actuate(prev, next); });

  DelayedSubflowManager::Hooks hooks;
  hooks.establish = [this] { establish_cellular(); };
  // Transfer progress in either direction: downloads advance
  // data_bytes_received, uploads advance data_bytes_acked.
  hooks.bytes_received = [this] {
    return std::max(meta_->data_bytes_received(), meta_->data_bytes_acked());
  };
  hooks.is_idle = [this] { return is_idle(); };
  delayed_ = std::make_unique<DelayedSubflowManager>(
      sim_, eib_, *predictor_, cfg_.delayed, std::move(hooks));

  mptcp::MptcpConnection::Callbacks mcb;
  mcb.on_established = [this] {
    last_activity_ = sim_.now();
    if (cb_.on_established) cb_.on_established();
  };
  mcb.on_data = [this](std::uint64_t newly) {
    last_activity_ = sim_.now();
    if (cb_.on_data) cb_.on_data(newly);
    delayed_->on_progress();
  };
  mcb.on_data_acked = [this](std::uint64_t) {
    // Upload progress counts toward kappa and keeps the connection
    // non-idle, mirroring the receive path.
    last_activity_ = sim_.now();
    delayed_->on_progress();
  };
  mcb.on_eof = [this] {
    if (cb_.on_eof) cb_.on_eof();
  };
  mcb.on_closed = [this] {
    controller_->stop();
    delayed_->stop();
    if (cb_.on_closed) cb_.on_closed();
  };
  mcb.on_subflow_established = [this](mptcp::Subflow& sf) {
    on_subflow_established(sf);
  };
  meta_->set_callbacks(std::move(mcb));
}

void EmptcpConnection::connect(net::Addr wifi_local, net::Addr cell_local,
                               net::Addr remote, net::Port remote_port) {
  wifi_local_ = wifi_local;
  cell_local_ = cell_local;
  meta_->connect(wifi_local, remote, remote_port);
}

void EmptcpConnection::send(std::uint64_t bytes) {
  last_activity_ = sim_.now();
  meta_->send(bytes);
}

void EmptcpConnection::shutdown_write() { meta_->shutdown_write(); }

void EmptcpConnection::on_subflow_established(mptcp::Subflow& sf) {
  predictor_->attach_subflow(
      sf, node_.interface_for(sf.socket().flow().local_addr));

  if (sf.iface() == net::InterfaceType::kWifi) {
    if (cfg_.enable_delayed_establishment) {
      delayed_->start();
    } else if (!cellular_established_) {
      establish_cellular();  // ablation: behave like standard MPTCP setup
    }
  } else {
    // The cellular subflow is up: start steering path usage.
    cellular_established_ = true;
    if (cfg_.enable_path_control) controller_->start(PathUsage::kBoth);
  }
}

void EmptcpConnection::establish_cellular() {
  if (cellular_established_) return;
  meta_->add_subflow(cell_local_);
}

bool EmptcpConnection::is_idle() const {
  mptcp::MptcpConnection* meta = meta_.get();
  sim::Duration rtt = sim::milliseconds(100);
  for (mptcp::Subflow* sf : meta->subflows()) {
    if (sf->iface() == net::InterfaceType::kWifi && sf->usable()) {
      if (sf->socket().srtt() > 0) rtt = sf->socket().srtt();
      break;
    }
  }
  return sim_.now() - last_activity_ > rtt;
}

void EmptcpConnection::actuate(PathUsage, PathUsage next) {
  mptcp::Subflow* wifi = meta_->subflow_on(net::InterfaceType::kWifi);
  mptcp::Subflow* cell = meta_->subflow_on(net::InterfaceType::kLte);
  if (cell == nullptr) return;

  switch (next) {
    case PathUsage::kWifiOnly:
      meta_->request_priority(*cell, /*backup=*/true);
      if (wifi != nullptr) meta_->request_priority(*wifi, false);
      break;
    case PathUsage::kBoth:
      meta_->request_priority(*cell, false);
      if (wifi != nullptr) meta_->request_priority(*wifi, false);
      break;
    case PathUsage::kCellOnly:
      meta_->request_priority(*cell, false);
      if (wifi != nullptr) meta_->request_priority(*wifi, /*backup=*/true);
      break;
  }
}

}  // namespace emptcp::core
