#include "net/packet.hpp"

#include <gtest/gtest.h>

namespace emptcp::net {
namespace {

TEST(PacketTest, WireBytesIncludeHeader) {
  Packet p;
  p.payload = 1000;
  EXPECT_EQ(p.wire_bytes(), 1000u + Packet::kHeaderBytes);
  Packet ack;
  EXPECT_EQ(ack.wire_bytes(), Packet::kHeaderBytes);
}

TEST(PacketTest, FlowAtReceiverSwapsPerspective) {
  Packet p;
  p.src = 1;
  p.sport = 5000;
  p.dst = 10;
  p.dport = 80;
  const FlowKey k = p.flow_at_receiver();
  EXPECT_EQ(k.local_addr, 10u);
  EXPECT_EQ(k.local_port, 80);
  EXPECT_EQ(k.remote_addr, 1u);
  EXPECT_EQ(k.remote_port, 5000);
}

TEST(PacketTest, FlowKeyEqualityAndHash) {
  const FlowKey a{1, 2, 3, 4};
  const FlowKey b{1, 2, 3, 4};
  const FlowKey c{1, 2, 3, 5};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  FlowKeyHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // not guaranteed in general, but true here
}

TEST(PacketTest, DefaultsAreInert) {
  Packet p;
  EXPECT_FALSE(p.syn);
  EXPECT_FALSE(p.fin);
  EXPECT_FALSE(p.rst);
  EXPECT_FALSE(p.is_ack);
  EXPECT_FALSE(p.mp_capable);
  EXPECT_FALSE(p.mp_join);
  EXPECT_FALSE(p.mp_backup);
  EXPECT_FALSE(p.dss.has_value());
  EXPECT_FALSE(p.data_ack.has_value());
  EXPECT_FALSE(p.data_fin.has_value());
  EXPECT_FALSE(p.udp);
  EXPECT_TRUE(p.sack.empty());
  EXPECT_EQ(p.app_tag, 0u);
}

TEST(SackListTest, EnforcesMaxBlocksBound) {
  // The inline capacity *is* kMaxSackBlocks: generation can never exceed
  // the protocol bound because pushes beyond capacity are dropped.
  SackList s;
  for (std::uint64_t i = 0; i < Packet::kMaxSackBlocks + 10; ++i) {
    s.emplace_back(i * 100, i * 100 + 50);
  }
  EXPECT_EQ(s.size(), Packet::kMaxSackBlocks);
  EXPECT_TRUE(s.full());
  // The retained blocks are the first kMaxSackBlocks, in insertion order.
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].first, i * 100);
    EXPECT_EQ(s[i].second, i * 100 + 50);
  }
}

TEST(SackListTest, ClearAndRefill) {
  SackList s;
  s.emplace_back(1, 2);
  s.emplace_back(3, 4);
  EXPECT_EQ(s.size(), 2u);
  s.clear();
  EXPECT_TRUE(s.empty());
  s.emplace_back(5, 6);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], (SackList::Block{5, 6}));
}

TEST(SackListTest, CopyPreservesLivePrefix) {
  Packet p;
  p.sack.emplace_back(10, 20);
  p.sack.emplace_back(30, 40);
  const Packet q = p;  // packet copy carries the SACK blocks
  ASSERT_EQ(q.sack.size(), 2u);
  EXPECT_EQ(q.sack[0], (SackList::Block{10, 20}));
  EXPECT_EQ(q.sack[1], (SackList::Block{30, 40}));
  // Iteration covers exactly the live blocks.
  std::size_t n = 0;
  for (const SackList::Block& b : q.sack) {
    (void)b;
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

}  // namespace
}  // namespace emptcp::net
