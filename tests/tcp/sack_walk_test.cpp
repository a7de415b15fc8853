// The sender's SACK scoreboard (TcpSocket::apply_sack): which outstanding
// segments an ACK's SACK blocks mark, checked two ways.
//
//   * Directed cases against a scripted peer: the sender's segments go
//     nowhere and the test answers with hand-built ACKs, so blocks can start
//     or end mid-segment, cover the FIN, stop short of the tail or sit at or
//     below snd_una. A segment counts as SACKed only when one block covers
//     all of it.
//   * Whole transfers through drop-tail bufferbloat and random loss, each
//     pinned by the oracle's digest of every per-ACK (snd_una, sacked, lost,
//     cwnd) tuple. The digests were recorded with the all-pairs scan the
//     one-pass walk replaced, so any divergence in marking shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <utility>

#include "check/oracle.hpp"
#include "support/testnet.hpp"
#include "tcp/tcp_socket.hpp"

namespace emptcp::tcp {
namespace {

constexpr std::uint64_t kMss = net::kMss;
constexpr net::Port kLocalPort = 5100;

class ScriptedPeerSack : public ::testing::Test {
 protected:
  /// Data segments queued; with the FIN they all fit in the initial window.
  static constexpr int kSegments = 8;

  void SetUp() override {
    net_.wifi_up->set_receiver([](const net::Packet&) {});
    sender_.connect(test::kWifiAddr, kLocalPort, test::kServerAddr,
                    test::kPort);
    net_.sim.run_until(sim::milliseconds(20));
    net::Packet synack = from_peer();
    synack.syn = true;
    synack.ack = 1;
    net_.wifi_if->deliver(synack);
    sender_.send_app_data(kSegments * kMss);
    sender_.shutdown_write();
    ASSERT_EQ(sender_.bytes_in_flight(), kSegments * kMss + 1);
  }

  /// First sequence number of data segment `i`; seg(kSegments) is the FIN.
  static std::uint64_t seg(int i) {
    return 1 + static_cast<std::uint64_t>(i) * kMss;
  }

  /// Delivers a pure ACK for `cum` carrying `blocks` to the sender.
  void ack(std::uint64_t cum,
           std::initializer_list<std::pair<std::uint64_t, std::uint64_t>>
               blocks) {
    net::Packet p = from_peer();
    p.seq = 1;
    p.ack = cum;
    for (const auto& [start, end] : blocks) p.sack.emplace_back(start, end);
    net_.wifi_if->deliver(p);
  }

  static net::Packet from_peer() {
    net::Packet p;
    p.src = test::kServerAddr;
    p.dst = test::kWifiAddr;
    p.sport = test::kPort;
    p.dport = kLocalPort;
    p.is_ack = true;
    return p;
  }

  test::TestNet net_{1, 100.0, 100.0};
  TcpSocket sender_{net_.sim, net_.client, {}};
};

TEST_F(ScriptedPeerSack, BlockStartingMidSegmentSkipsThatSegment) {
  ack(1, {{seg(2) + 100, seg(5)}});
  EXPECT_EQ(sender_.sacked_bytes(), 2 * kMss);  // segments 3 and 4
}

TEST_F(ScriptedPeerSack, BlockEndingMidSegmentSkipsThatSegment) {
  ack(1, {{seg(2), seg(5) + 100}});
  EXPECT_EQ(sender_.sacked_bytes(), 3 * kMss);  // segments 2, 3 and 4
}

TEST_F(ScriptedPeerSack, BlocksInsideOneSegmentMarkNothing) {
  ack(1, {{seg(1) + 1, seg(2) - 1}, {seg(3) + 10, seg(3) + 20}});
  EXPECT_EQ(sender_.sacked_bytes(), 0u);
}

TEST_F(ScriptedPeerSack, FinSegmentIsSackedByItsVirtualByte) {
  ack(1, {{seg(6), seg(kSegments) + 1}});
  EXPECT_EQ(sender_.sacked_bytes(), 2 * kMss + 1);  // 6, 7 and the FIN
}

TEST_F(ScriptedPeerSack, BlockEndingAtFinLeavesFinUnsacked) {
  ack(1, {{seg(7), seg(kSegments)}});
  EXPECT_EQ(sender_.sacked_bytes(), kMss);
}

TEST_F(ScriptedPeerSack, SegmentsPastTheLastBlockStayUnsackedUntilCovered) {
  ack(1, {{seg(2), seg(3)}, {seg(4), seg(5)}});
  EXPECT_EQ(sender_.sacked_bytes(), 2 * kMss);
  // A later scoreboard repeats the old blocks and adds one past them: only
  // the new segment is counted, once.
  ack(1, {{seg(2), seg(3)}, {seg(4), seg(5)}, {seg(6), seg(7)}});
  EXPECT_EQ(sender_.sacked_bytes(), 3 * kMss);
}

TEST_F(ScriptedPeerSack, ManyBlocksMarkExactlyTheCoveredSegments) {
  ack(1, {{seg(1), seg(2)},
          {seg(3) + 5, seg(4) + 5},
          {seg(5), seg(5) + 1},
          {seg(6), seg(kSegments) + 1}});
  // Segment 1, segments 6 and 7, and the FIN; 3 and 4 straddle block
  // edges and 5 is only partly covered.
  EXPECT_EQ(sender_.sacked_bytes(), 3 * kMss + 1);
}

TEST_F(ScriptedPeerSack, BlocksAtOrBelowSndUnaMarkNothing) {
  ack(seg(3), {});
  ASSERT_EQ(sender_.bytes_in_flight(), (kSegments - 3) * kMss + 1);
  ack(seg(3), {{seg(0), seg(2)}, {seg(2), seg(3)}});
  EXPECT_EQ(sender_.sacked_bytes(), 0u);
  // A block straddling snd_una covers the first outstanding segment.
  ack(seg(3), {{seg(1), seg(4)}});
  EXPECT_EQ(sender_.sacked_bytes(), kMss);
}

TEST_F(ScriptedPeerSack, SackedSegmentsBelowTheNewCumulativeAckRetire) {
  ack(1, {{seg(2), seg(4)}, {seg(5), seg(6)}});
  ASSERT_EQ(sender_.sacked_bytes(), 3 * kMss);
  // The same ACK both SACKs segment 6 and cumulatively acks through 4:
  // segments 2 and 3 leave the scoreboard with their SACKed bytes.
  ack(seg(4), {{seg(5), seg(7)}});
  EXPECT_EQ(sender_.sacked_bytes(), 2 * kMss);
  EXPECT_EQ(sender_.bytes_in_flight(), (kSegments - 4) * kMss + 1);
}

// --- Whole transfers pinned by the oracle's per-ACK digest ---------------

struct PinnedTransfer {
  std::uint64_t ack_digest = 0;
  std::uint64_t retransmits = 0;
  std::size_t max_blocks = 0;
  bool complete = false;
};

/// Downloads `bytes` from the server over the WiFi path of `net` with an
/// oracle attached. Every ACK the client sends is checked on its way to
/// the server for the order apply_sack relies on: blocks ascending,
/// disjoint and above the cumulative ACK.
PinnedTransfer run_pinned_transfer(test::TestNet& net, std::uint64_t bytes) {
  PinnedTransfer out;
  check::Oracle oracle;
  oracle.attach(net.sim);
  net.wifi_up->set_receiver([&net, &out](const net::Packet& p) {
    std::uint64_t floor = p.ack;
    for (const auto& [start, end] : p.sack) {
      EXPECT_GT(start, floor);
      EXPECT_LT(start, end);
      floor = end;
    }
    out.max_blocks = std::max(out.max_blocks, p.sack.size());
    net.srv_if->deliver(p);
  });

  std::unique_ptr<TcpSocket> server;
  TcpListener listener(net.server, test::kPort,
                       [&](const net::Packet& syn) {
                         server = TcpSocket::accept(net.sim, net.server, {},
                                                    syn);
                         server->send_app_data(bytes);
                         server->shutdown_write();
                       });
  TcpSocket client(net.sim, net.client, {});
  std::uint64_t received = 0;
  TcpSocket::Callbacks cb;
  cb.on_data = [&received](std::uint64_t n) { received += n; };
  cb.on_eof = [&client] { client.shutdown_write(); };
  client.set_callbacks(std::move(cb));
  client.connect(test::kWifiAddr, kLocalPort, test::kServerAddr, test::kPort);
  net.sim.run_until(sim::seconds(300));

  out.complete = received == bytes && client.eof_received();
  out.ack_digest = oracle.tcp_ack_digest();
  out.retransmits = server ? server->retransmitted_segments() : 0;
  EXPECT_TRUE(oracle.ok()) << oracle.report();
  oracle.detach();
  return out;
}

TEST(SackWalkTransferTest, DropTailBufferbloatMatchesPinnedDigest) {
  // 12 Mbps behind a 256 KB drop-tail queue (~175 ms against a 20 ms base
  // RTT): slow start overshoots into burst losses, and the receiver's
  // scoreboard grows to dozens of blocks.
  test::TestNet net(3, 12.0, 9.0);
  const PinnedTransfer t = run_pinned_transfer(net, 6'000'000);
  EXPECT_TRUE(t.complete);
  EXPECT_GT(net.wifi_down->dropped_queue(), 0u);
  EXPECT_GT(t.retransmits, 0u);
  EXPECT_GT(t.max_blocks, 8u);
  EXPECT_EQ(t.ack_digest, 0xc9ae5f81763d3b2cULL)
      << std::hex << t.ack_digest << std::dec << ", up to " << t.max_blocks
      << " blocks, " << t.retransmits << " retransmits";
}

TEST(SackWalkTransferTest, RandomLossMatchesPinnedDigest) {
  test::TestNet net(5, 8.0, 8.0);
  net.wifi_down->set_loss_prob(0.02);
  const PinnedTransfer t = run_pinned_transfer(net, 4'000'000);
  EXPECT_TRUE(t.complete);
  EXPECT_GT(net.wifi_down->dropped_loss(), 0u);
  EXPECT_GT(t.retransmits, 0u);
  EXPECT_GT(t.max_blocks, 1u);
  EXPECT_EQ(t.ack_digest, 0x8ec9fa679bdbe88aULL)
      << std::hex << t.ack_digest << std::dec << ", up to " << t.max_blocks
      << " blocks, " << t.retransmits << " retransmits";
}

}  // namespace
}  // namespace emptcp::tcp
