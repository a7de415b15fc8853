// Video-streaming workload — the paper's §7 future work ("we plan to
// examine more statistically varied application traffic such as video
// streaming").
//
// A chunked (DASH-style) client: media plays at a fixed bitrate from a
// buffer; the client requests the next chunk whenever the buffer falls
// below its target and stalls (rebuffers) when it empties. The traffic
// pattern — bursts separated by idle gaps once the buffer is full — is
// exactly the case eMPTCP's idle-connection postponement (§3.5) was
// designed for: as long as WiFi sustains the bitrate, the LTE radio never
// has a reason to wake, and the gaps must not trigger the τ timer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "app/client_handle.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"

namespace emptcp::app {

class VideoStreamClient {
 public:
  struct Config {
    double bitrate_mbps = 2.0;        ///< playback rate
    std::uint64_t chunk_bytes = 1024 * 1024;  ///< media segment size
    double buffer_target_s = 12.0;    ///< stop requesting above this
    double startup_s = 4.0;           ///< playout starts once buffered
    double media_duration_s = 120.0;  ///< total length of the stream
    std::uint64_t request_bytes = 200;
  };

  struct Stats {
    bool finished = false;      ///< media fully played out
    double started_at_s = 0.0;  ///< startup delay
    int rebuffer_events = 0;
    double stall_time_s = 0.0;  ///< total time spent stalled after start
  };

  VideoStreamClient(sim::Simulation& sim, Config cfg,
                    std::unique_ptr<ClientConnHandle> conn,
                    std::function<void()> on_finished);

  void start();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] ClientConnHandle& connection() { return *conn_; }

  /// Chunks a media description into the total chunk count.
  [[nodiscard]] static std::size_t total_chunks(const Config& cfg);
  [[nodiscard]] std::size_t total_chunks() const { return total_chunks(cfg_); }

 private:
  void maybe_request();
  void on_data(std::uint64_t newly);
  void tick();

  sim::Simulation& sim_;
  Config cfg_;
  std::unique_ptr<ClientConnHandle> conn_;
  std::function<void()> on_finished_;
  sim::Timer play_timer_;

  Stats stats_;
  double buffered_s_ = 0.0;
  double played_s_ = 0.0;
  bool playing_ = false;
  bool stalled_ = false;
  std::size_t chunks_requested_ = 0;
  std::size_t chunks_received_ = 0;
  std::uint64_t partial_chunk_ = 0;
  bool request_outstanding_ = false;

  static constexpr sim::Duration kTick = sim::milliseconds(100);
};

}  // namespace emptcp::app
