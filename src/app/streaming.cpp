#include "app/streaming.hpp"

#include <algorithm>
#include <cmath>

namespace emptcp::app {

VideoStreamClient::VideoStreamClient(sim::Simulation& sim, Config cfg,
                                     std::unique_ptr<ClientConnHandle> conn,
                                     std::function<void()> on_finished)
    : sim_(sim),
      cfg_(cfg),
      conn_(std::move(conn)),
      on_finished_(std::move(on_finished)),
      play_timer_(sim.scheduler(), [this] { tick(); }) {
  ClientConnHandle::Callbacks cb;
  cb.on_established = [this] { maybe_request(); };
  cb.on_data = [this](std::uint64_t newly) { on_data(newly); };
  conn_->set_callbacks(std::move(cb));
}

std::size_t VideoStreamClient::total_chunks(const Config& cfg) {
  const double chunk_s =
      static_cast<double>(cfg.chunk_bytes) * 8.0 / 1e6 / cfg.bitrate_mbps;
  return static_cast<std::size_t>(std::ceil(cfg.media_duration_s / chunk_s));
}

void VideoStreamClient::start() {
  conn_->connect();
  play_timer_.arm_in(kTick);
}

void VideoStreamClient::maybe_request() {
  if (request_outstanding_) return;
  if (chunks_requested_ >= total_chunks()) return;
  if (buffered_s_ >= cfg_.buffer_target_s) return;
  request_outstanding_ = true;
  ++chunks_requested_;
  conn_->send(cfg_.request_bytes);
}

void VideoStreamClient::on_data(std::uint64_t newly) {
  partial_chunk_ += newly;
  while (partial_chunk_ >= cfg_.chunk_bytes) {
    partial_chunk_ -= cfg_.chunk_bytes;
    ++chunks_received_;
    request_outstanding_ = false;
    buffered_s_ += static_cast<double>(cfg_.chunk_bytes) * 8.0 / 1e6 /
                   cfg_.bitrate_mbps;
    maybe_request();
  }
}

void VideoStreamClient::tick() {
  const double dt = sim::to_seconds(kTick);

  if (!playing_) {
    if (buffered_s_ >= cfg_.startup_s ||
        chunks_received_ >= total_chunks()) {
      playing_ = true;
      stats_.started_at_s = sim::to_seconds(sim_.now());
    }
  } else if (played_s_ < cfg_.media_duration_s) {
    if (buffered_s_ > 0.0) {
      if (stalled_) stalled_ = false;
      const double step = std::min(dt, buffered_s_);
      buffered_s_ -= step;
      played_s_ += step;
      stats_.stall_time_s += dt - step;
    } else {
      if (!stalled_) {
        stalled_ = true;
        ++stats_.rebuffer_events;
      }
      stats_.stall_time_s += dt;
    }
  }

  maybe_request();

  if (played_s_ >= cfg_.media_duration_s && !stats_.finished) {
    stats_.finished = true;
    conn_->shutdown_write();
    if (on_finished_) on_finished_();
    return;  // stop ticking
  }
  play_timer_.arm_in(kTick);
}

}  // namespace emptcp::app
