#include "net/node.hpp"

#include <gtest/gtest.h>

#include "net/link.hpp"
#include "sim/simulation.hpp"

namespace emptcp::net {
namespace {

class NodeTest : public ::testing::Test {
 protected:
  NodeTest()
      : a(sim),
        b(sim),
        ab(sim, Link::Config{}),
        ba(sim, Link::Config{}) {
    ifa = &a.add_interface({InterfaceType::kWifi, 1, "a0"});
    ifb = &b.add_interface({InterfaceType::kEthernet, 2, "b0"});
    ifa->set_default_route(ab);
    ifb->set_default_route(ba);
    ab.set_receiver([this](const Packet& p) { ifb->deliver(p); });
    ba.set_receiver([this](const Packet& p) { ifa->deliver(p); });
  }

  Packet packet(Port sport, Port dport, bool syn = false) {
    Packet p;
    p.src = 1;
    p.dst = 2;
    p.sport = sport;
    p.dport = dport;
    p.syn = syn;
    p.payload = 100;
    return p;
  }

  sim::Simulation sim{1};
  net::Node a, b;
  Link ab, ba;
  NetworkInterface* ifa = nullptr;
  NetworkInterface* ifb = nullptr;
};

TEST_F(NodeTest, DeliversToRegisteredFlow) {
  int got = 0;
  b.register_flow(FlowKey{2, 80, 1, 5555}, [&](const Packet&) { ++got; });
  a.send(packet(5555, 80));
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(b.unmatched_packets(), 0u);
}

TEST_F(NodeTest, SynGoesToListenerWhenNoFlowMatches) {
  int accepted = 0;
  b.listen(80, [&](const Packet& p) {
    EXPECT_TRUE(p.syn);
    ++accepted;
  });
  a.send(packet(5555, 80, /*syn=*/true));
  sim.run();
  EXPECT_EQ(accepted, 1);
}

TEST_F(NodeTest, NonSynWithoutFlowIsUnmatched) {
  b.listen(80, [](const Packet&) { FAIL() << "listener got non-SYN"; });
  a.send(packet(5555, 80));
  sim.run();
  EXPECT_EQ(b.unmatched_packets(), 1u);
}

TEST_F(NodeTest, UnregisterStopsDelivery) {
  int got = 0;
  const FlowKey key{2, 80, 1, 5555};
  b.register_flow(key, [&](const Packet&) { ++got; });
  a.send(packet(5555, 80));
  sim.run();
  b.unregister_flow(key);
  a.send(packet(5555, 80));
  sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(b.unmatched_packets(), 1u);
}

TEST_F(NodeTest, HandlerMayUnregisterItselfWhileRunning) {
  const FlowKey key{2, 80, 1, 5555};
  int got = 0;
  b.register_flow(key, [&](const Packet&) {
    ++got;
    b.unregister_flow(key);  // must not invalidate the running handler
  });
  a.send(packet(5555, 80));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NodeTest, InterfaceLookupByAddressAndType) {
  EXPECT_EQ(&a.interface_for(1), ifa);
  EXPECT_THROW(a.interface_for(99), std::logic_error);
  EXPECT_EQ(a.interface_of_type(InterfaceType::kWifi), ifa);
  EXPECT_EQ(a.interface_of_type(InterfaceType::kLte), nullptr);
}

TEST_F(NodeTest, SendWithUnknownSourceThrows) {
  Packet p = packet(1, 2);
  p.src = 99;
  EXPECT_THROW(a.send(p), std::logic_error);
}

TEST_F(NodeTest, DownInterfaceDropsTraffic) {
  int got = 0;
  b.register_flow(FlowKey{2, 80, 1, 5555}, [&](const Packet&) { ++got; });
  ifa->set_up(false);
  a.send(packet(5555, 80));
  sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_GT(ifa->dropped_down(), 0u);
  ifa->set_up(true);
  a.send(packet(5555, 80));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST_F(NodeTest, ByteCountersTrackWireBytes) {
  b.register_flow(FlowKey{2, 80, 1, 5555}, [](const Packet&) {});
  a.send(packet(5555, 80));  // 100 payload + 40 header
  sim.run();
  EXPECT_EQ(ifa->tx_bytes(), 140u);
  EXPECT_EQ(ifb->rx_bytes(), 140u);
}

TEST_F(NodeTest, RouteOverridesDefault) {
  // Packets to dst 3 go through a second link into the same node b.
  Link alt(sim, Link::Config{});
  auto& ifb2 = b.add_interface({InterfaceType::kEthernet, 3, "b1"});
  ifa->add_route(3, alt);
  alt.set_receiver([&](const Packet& p) { ifb2.deliver(p); });

  int via_alt = 0;
  b.register_flow(FlowKey{3, 80, 1, 5555}, [&](const Packet&) { ++via_alt; });
  Packet p = packet(5555, 80);
  p.dst = 3;
  a.send(p);
  sim.run();
  EXPECT_EQ(via_alt, 1);
}

TEST_F(NodeTest, AllocatePortReturnsDistinctPorts) {
  const Port p1 = a.allocate_port();
  const Port p2 = a.allocate_port();
  EXPECT_NE(p1, p2);
}

TEST_F(NodeTest, InvalidInterfaceAddressThrows) {
  EXPECT_THROW(a.add_interface({InterfaceType::kWifi, kAddrInvalid, "bad"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace emptcp::net
