// Unidirectional link with rate, propagation delay, loss and a drop-tail
// queue. This is the bottleneck model for every hop in the testbed: the WiFi
// access link, the LTE radio bearer, and the wired WAN segment.
//
// The rate can change at runtime (set_rate) — the on-off bandwidth modulator,
// the interference channel and the mobility model all drive a link this way,
// mirroring how the paper's lab shapes the WiFi AP's bandwidth.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/ring_deque.hpp"
#include "sim/simulation.hpp"

namespace emptcp::net {

class Link {
 public:
  using Receiver = std::function<void(const Packet&)>;

  struct Config {
    double rate_mbps = 10.0;            ///< transmission rate
    sim::Duration prop_delay = sim::milliseconds(10);
    double loss_prob = 0.0;             ///< i.i.d. random loss after transmission
    std::size_t queue_limit_bytes = 256 * 1024;  ///< drop-tail buffer
    std::string name = "link";
  };

  Link(sim::Simulation& sim, Config cfg);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Sets the function invoked when a packet arrives at the far end.
  void set_receiver(Receiver r) { receiver_ = std::move(r); }

  /// Forwards arrivals straight into `next`'s queue instead of a receiver,
  /// moving the pooled buffer (no copy). This is how multi-hop paths
  /// (access link -> WAN segment) are wired.
  void chain_to(Link& next) { next_ = &next; }

  /// Hands a packet to the link. Drops it if the queue is full. The packet
  /// is copied into a pool slot here — the only copy on its way down the
  /// chain.
  void send(const Packet& pkt);

  /// Moves an already-pooled packet into the queue (used by chained
  /// upstream links; applies the same drop-tail policy).
  void send(PooledPacket&& pkt);

  /// Changes the transmission rate. Takes effect from the next packet
  /// serviced; the packet currently in the transmitter finishes at its old
  /// rate, as a real shaper would.
  void set_rate(double mbps);
  [[nodiscard]] double rate_mbps() const { return cfg_.rate_mbps; }

  void set_loss_prob(double p) {
    const bool changed = p != cfg_.loss_prob;
    cfg_.loss_prob = p;
    if (changed && transient_cb_) transient_cb_();
  }
  [[nodiscard]] double loss_prob() const { return cfg_.loss_prob; }

  /// Observer for path-property transients (rate or loss changes). The
  /// hybrid-fidelity fast path hangs off this: any flow advancing
  /// analytically over this link must drop back to packet level and
  /// re-measure. At most one listener; unset by default.
  void set_transient_listener(std::function<void()> cb) {
    transient_cb_ = std::move(cb);
  }

  /// Declares analytic (fluid) traffic occupying this link outside the
  /// packet path: the serialization rate packet traffic sees shrinks by
  /// this many bits/s, floored at a small residual so packet tails always
  /// drain. Driven by the hybrid-fidelity coordinator every governor
  /// quantum; deliberately does NOT fire the transient listener — it is
  /// the fast path's own doing, not a path-property change.
  void set_background_bps(double bps);

  void set_prop_delay(sim::Duration d) { cfg_.prop_delay = d; }
  [[nodiscard]] sim::Duration prop_delay() const { return cfg_.prop_delay; }

  /// Extra one-shot delay added to the next packet's delivery (used to model
  /// cellular promotion latency on a radio waking from idle).
  void add_pending_delay(sim::Duration d) { pending_delay_ += d; }

  [[nodiscard]] const std::string& name() const { return cfg_.name; }

  // Counters for tests and diagnostics.
  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped_queue() const { return dropped_queue_; }
  [[nodiscard]] std::uint64_t dropped_loss() const { return dropped_loss_; }
  [[nodiscard]] std::uint64_t delivered_bytes() const { return delivered_bytes_; }

 private:
  void start_transmission();
  void finish_transmission();
  void deliver(PooledPacket&& pkt);

  sim::Simulation& sim_;
  Config cfg_;
  PacketPool& pool_;
  Receiver receiver_;
  Link* next_ = nullptr;
  sim::RingDeque<PooledPacket> queue_;
  std::size_t queued_bytes_ = 0;
  bool transmitting_ = false;
  double background_bps_ = 0.0;
  sim::Duration pending_delay_ = 0;
  std::function<void()> transient_cb_;

  std::uint64_t delivered_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t dropped_queue_ = 0;
  std::uint64_t dropped_loss_ = 0;
};

}  // namespace emptcp::net
