#include "mptcp/scheduler.hpp"

#include <gtest/gtest.h>

#include "support/testnet.hpp"
#include "tcp/tcp_socket.hpp"

namespace emptcp::mptcp {
namespace {

/// Builds a subflow whose socket is in a controllable state. The socket is
/// never connected; tests that need "established" subflows use the meta
/// socket tests instead. Here we exercise eligibility/order logic directly
/// with stub subflows whose RTT we set via force_srtt.
class SubflowSchedulerTest : public ::testing::Test {
 protected:
  Subflow& make_subflow(net::InterfaceType type, sim::Duration srtt) {
    auto sock = std::make_unique<tcp::TcpSocket>(net_.sim, net_.client,
                                                 tcp::TcpSocket::Config{});
    sock->reset_srtt_for_probe();  // srtt = 0
    // Connect+establish through the real network so it's usable.
    subflows_.push_back(std::make_unique<Subflow>(subflows_.size(), type,
                                                  std::move(sock)));
    srtts_.push_back(srtt);
    return *subflows_.back();
  }

  std::vector<Subflow*> all() {
    std::vector<Subflow*> v;
    for (auto& sf : subflows_) v.push_back(sf.get());
    return v;
  }

  test::TestNet net_;
  std::vector<std::unique_ptr<Subflow>> subflows_;
  std::vector<sim::Duration> srtts_;
};

TEST_F(SubflowSchedulerTest, NotEstablishedIsIneligible) {
  MinRttScheduler sched;
  Subflow& sf = make_subflow(net::InterfaceType::kWifi, 0);
  EXPECT_FALSE(sf.established());
  EXPECT_FALSE(sched.eligible(sf, all()));
  EXPECT_TRUE(sched.preference_order(all()).empty());
}

TEST_F(SubflowSchedulerTest, FailedSubflowIneligible) {
  MinRttScheduler sched;
  Subflow& sf = make_subflow(net::InterfaceType::kWifi, 0);
  sf.mark_failed();
  EXPECT_FALSE(sf.usable());
  EXPECT_FALSE(sched.eligible(sf, all()));
}

TEST_F(SubflowSchedulerTest, BackupFlagReflectedInDescribeAndState) {
  Subflow& sf = make_subflow(net::InterfaceType::kLte, 0);
  EXPECT_FALSE(sf.backup());
  sf.set_backup(true);
  EXPECT_TRUE(sf.backup());
  EXPECT_EQ(sf.iface(), net::InterfaceType::kLte);
  EXPECT_EQ(sf.id(), 0u);
}

TEST_F(SubflowSchedulerTest, OutstandingChunksPruneAgainstDataAck) {
  Subflow& sf = make_subflow(net::InterfaceType::kWifi, 0);
  sf.outstanding().push_back(DataChunk{1, 100});
  sf.outstanding().push_back(DataChunk{101, 100});
  sf.outstanding().push_back(DataChunk{201, 100});
  sf.prune_outstanding(150);  // only the first chunk fully covered
  ASSERT_EQ(sf.outstanding().size(), 2u);
  EXPECT_EQ(sf.outstanding().front().data_seq, 101u);
  sf.prune_outstanding(301);
  EXPECT_TRUE(sf.outstanding().empty());
}

// Eligibility with live (established) subflows is covered end-to-end in
// meta_socket_test.cpp; the pure ordering logic is checked here through
// the RoundRobin rotation contract.
TEST_F(SubflowSchedulerTest, RoundRobinRotatesOverEligible) {
  RoundRobinScheduler sched;
  // No eligible subflows -> empty, repeatedly.
  EXPECT_TRUE(sched.preference_order(all()).empty());
  EXPECT_TRUE(sched.preference_order(all()).empty());
}

/// Three *really established* TCP connections over the shared test
/// topology, wrapped as subflows: the round-robin churn tests need
/// usable() subflows, which the stub fixture above never produces.
struct ChurnWorld {
  ChurnWorld() {
    listener = std::make_unique<tcp::TcpListener>(
        net.server, test::kPort, [this](const net::Packet& syn) {
          server_socks.push_back(tcp::TcpSocket::accept(
              net.sim, net.server, tcp::TcpSocket::Config{}, syn));
        });
    for (std::size_t i = 0; i < 3; ++i) {
      auto sock = std::make_unique<tcp::TcpSocket>(net.sim, net.client,
                                                   tcp::TcpSocket::Config{});
      subflows.push_back(std::make_unique<Subflow>(
          i, net::InterfaceType::kWifi, std::move(sock)));
      subflows.back()->socket().connect(test::kWifiAddr,
                                        static_cast<net::Port>(5001 + i),
                                        test::kServerAddr, test::kPort);
    }
    net.sim.run_until(sim::seconds(1));
  }

  std::vector<Subflow*> all() {
    std::vector<Subflow*> v;
    for (auto& sf : subflows) v.push_back(sf.get());
    return v;
  }

  test::TestNet net;
  std::unique_ptr<tcp::TcpListener> listener;
  std::vector<std::unique_ptr<tcp::TcpSocket>> server_socks;
  std::vector<std::unique_ptr<Subflow>> subflows;
};

// Regression for the rotation-drift bug: the scheduler used to rotate by a
// call counter modulo the *current* eligible count, so any change in the
// eligible set (subflow failure, backup flip, join) desynchronised the
// rotation and could serve the same subflow twice in a row while starving
// another. Fairness must be anchored to the identity served last round.
TEST_F(SubflowSchedulerTest, RoundRobinResumesAfterLastServedUnderChurn) {
  ChurnWorld w;
  ASSERT_TRUE(w.subflows[0]->usable());
  ASSERT_TRUE(w.subflows[1]->usable());
  ASSERT_TRUE(w.subflows[2]->usable());

  RoundRobinScheduler sched;
  auto order = sched.preference_order(w.all());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0]->id(), 0u);  // round 1 serves A
  order = sched.preference_order(w.all());
  EXPECT_EQ(order[0]->id(), 1u);  // round 2 serves B

  // B dies between rounds. The next turn belongs to B's successor C; the
  // drifted counter arithmetic (2 % 2 == 0) handed it back to A.
  w.subflows[1]->mark_failed();
  order = sched.preference_order(w.all());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0]->id(), 2u);
  EXPECT_EQ(order[1]->id(), 0u);

  // The survivors keep alternating: nobody is served twice in a row.
  EXPECT_EQ(sched.preference_order(w.all())[0]->id(), 0u);
  EXPECT_EQ(sched.preference_order(w.all())[0]->id(), 2u);
  EXPECT_EQ(sched.preference_order(w.all())[0]->id(), 0u);
}

TEST_F(SubflowSchedulerTest, RoundRobinAbsorbsDepartureAndReturn) {
  ChurnWorld w;
  RoundRobinScheduler sched;
  EXPECT_EQ(sched.preference_order(w.all())[0]->id(), 0u);

  // A (just served) leaves the eligible set via the backup flag while a
  // regular subflow exists; its successor B is up next, and the rotation
  // continues to C even though the set shrank.
  w.subflows[0]->set_backup(true);
  EXPECT_EQ(sched.preference_order(w.all())[0]->id(), 1u);
  EXPECT_EQ(sched.preference_order(w.all())[0]->id(), 2u);

  // A returns: after C the wrap-around reaches A again, with no double
  // serve and no skipped member.
  w.subflows[0]->set_backup(false);
  EXPECT_EQ(sched.preference_order(w.all())[0]->id(), 0u);
  EXPECT_EQ(sched.preference_order(w.all())[0]->id(), 1u);
}

TEST_F(SubflowSchedulerTest, RoundRobinFullCycleVisitsEveryoneOnce) {
  ChurnWorld w;
  RoundRobinScheduler sched;
  std::vector<std::size_t> served;
  for (int i = 0; i < 6; ++i) {
    served.push_back(sched.preference_order(w.all())[0]->id());
  }
  const std::vector<std::size_t> expected = {0, 1, 2, 0, 1, 2};
  EXPECT_EQ(served, expected);
}

}  // namespace
}  // namespace emptcp::mptcp
