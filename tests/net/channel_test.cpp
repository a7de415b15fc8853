#include <gtest/gtest.h>

#include "net/channel/mobility.hpp"
#include "net/channel/onoff_bandwidth.hpp"
#include "net/channel/wifi_channel.hpp"
#include "sim/simulation.hpp"

namespace emptcp::net {
namespace {

class ChannelTest : public ::testing::Test {
 protected:
  sim::Simulation sim{1};
};

TEST_F(ChannelTest, WifiChannelSharesCapacityAmongActiveStations) {
  WifiChannel ch(sim, {15.0, 0.01});
  Link link(sim, Link::Config{});
  ch.govern(link);
  EXPECT_DOUBLE_EQ(link.rate_mbps(), 15.0);

  const std::size_t s1 = ch.register_interferer();
  const std::size_t s2 = ch.register_interferer();
  ch.set_interferer_active(s1, true);
  EXPECT_DOUBLE_EQ(link.rate_mbps(), 7.5);
  EXPECT_DOUBLE_EQ(link.loss_prob(), 0.01);

  ch.set_interferer_active(s2, true);
  EXPECT_DOUBLE_EQ(link.rate_mbps(), 5.0);
  EXPECT_DOUBLE_EQ(link.loss_prob(), 0.02);

  ch.set_interferer_active(s1, false);
  ch.set_interferer_active(s2, false);
  EXPECT_DOUBLE_EQ(link.rate_mbps(), 15.0);
  EXPECT_DOUBLE_EQ(link.loss_prob(), 0.0);
}

TEST_F(ChannelTest, WifiChannelCapacityChangeReappliesContention) {
  WifiChannel ch(sim, {15.0, 0.01});
  Link link(sim, Link::Config{});
  ch.govern(link);
  const std::size_t s1 = ch.register_interferer();
  ch.set_interferer_active(s1, true);
  ch.set_capacity(10.0);  // mobility moved us
  EXPECT_DOUBLE_EQ(link.rate_mbps(), 5.0);
}

TEST_F(ChannelTest, WifiChannelIgnoresBogusIndexAndRedundantToggle) {
  WifiChannel ch(sim, {15.0, 0.01});
  Link link(sim, Link::Config{});
  ch.govern(link);
  ch.set_interferer_active(42, true);  // unknown slot: no-op
  EXPECT_DOUBLE_EQ(link.rate_mbps(), 15.0);
  const std::size_t s = ch.register_interferer();
  ch.set_interferer_active(s, false);  // already off: no-op
  EXPECT_EQ(ch.active_interferers(), 0u);
}

TEST_F(ChannelTest, OnOffBandwidthAlternatesBetweenRates) {
  Link link(sim, Link::Config{});
  Link link2(sim, Link::Config{});
  OnOffBandwidth::Config cfg;
  cfg.high_mbps = 12.0;
  cfg.low_mbps = 0.8;
  cfg.mean_high_s = 5.0;
  cfg.mean_low_s = 5.0;
  OnOffBandwidth onoff(sim, link, cfg);
  onoff.also_govern(link2);
  onoff.start();
  EXPECT_DOUBLE_EQ(link.rate_mbps(), 12.0);
  EXPECT_DOUBLE_EQ(link2.rate_mbps(), 12.0);

  sim.run_until(sim::seconds(200));
  // Over 200 s with 5 s mean holding times we expect many transitions.
  EXPECT_GT(onoff.transitions().size(), 10u);
  // Links stay in lockstep and only ever take the two configured rates.
  EXPECT_DOUBLE_EQ(link.rate_mbps(), link2.rate_mbps());
  for (const auto& tr : onoff.transitions()) {
    EXPECT_TRUE(tr.rate_mbps == 12.0 || tr.rate_mbps == 0.8);
  }
  // Adjacent transitions alternate rates.
  for (std::size_t i = 1; i < onoff.transitions().size(); ++i) {
    EXPECT_NE(onoff.transitions()[i - 1].rate_mbps,
              onoff.transitions()[i].rate_mbps);
  }
}

TEST_F(ChannelTest, OnOffHoldingTimesHaveConfiguredMean) {
  Link link(sim, Link::Config{});
  OnOffBandwidth::Config cfg;
  cfg.mean_high_s = 40.0;
  cfg.mean_low_s = 40.0;
  OnOffBandwidth onoff(sim, link, cfg);
  onoff.start();
  sim.run_until(sim::seconds(40.0 * 400));
  const auto& tr = onoff.transitions();
  ASSERT_GT(tr.size(), 50u);
  const double total = sim::to_seconds(tr.back().at - tr.front().at);
  const double mean_hold = total / static_cast<double>(tr.size() - 1);
  EXPECT_NEAR(mean_hold, 40.0, 6.0);
}

TEST_F(ChannelTest, MobilityRateFallsWithDistanceAndFloors) {
  const auto cfg = MobilityModel::umass_corridor_route();

  // Near the AP at t=0 (5 m of a 30 m range).
  EXPECT_GT(cfg.rate_at(0.0), 15.0);
  // Far end of the corridor (~45 s) is outside usable range.
  EXPECT_DOUBLE_EQ(cfg.rate_at(45.0), cfg.floor_mbps);
  // Paper: WiFi collapses in the 25-40 s window.
  EXPECT_LT(cfg.rate_at(35.0), 2.0);
  // Passing the AP again around 110 s restores throughput.
  EXPECT_GT(cfg.rate_at(110.0), 15.0);
}

TEST_F(ChannelTest, MobilityDrivesChannelCapacity) {
  WifiChannel ch(sim, {20.0, 0.0});
  Link link(sim, Link::Config{});
  ch.govern(link);
  MobilityModel mob(sim, ch, MobilityModel::umass_corridor_route());
  mob.start();
  sim.run_until(sim::seconds(45));
  EXPECT_LT(link.rate_mbps(), 1.0);  // out of usable range at 45 s
  sim.run_until(sim::seconds(110));
  EXPECT_GT(link.rate_mbps(), 15.0);  // right next to the AP
}

TEST_F(ChannelTest, MobilityPositionInterpolatesLinearly) {
  MobilityModel::Config cfg;
  cfg.route = {{0.0, 0.0, 0.0}, {10.0, 10.0, 0.0}};
  const auto [x, y] = cfg.position_at(5.0);
  EXPECT_DOUBLE_EQ(x, 5.0);
  EXPECT_DOUBLE_EQ(y, 0.0);
  // Clamps beyond the route.
  EXPECT_DOUBLE_EQ(cfg.position_at(99.0).first, 10.0);
  EXPECT_DOUBLE_EQ(cfg.position_at(-1.0).first, 0.0);
}

TEST_F(ChannelTest, MobilityRejectsBadRoutes) {
  WifiChannel ch(sim, {20.0, 0.0});
  MobilityModel::Config cfg;
  cfg.route = {{0.0, 0.0, 0.0}};
  EXPECT_THROW(MobilityModel(sim, ch, cfg), std::invalid_argument);
  cfg.route = {{0.0, 0.0, 0.0}, {0.0, 1.0, 1.0}};  // non-increasing time
  EXPECT_THROW(MobilityModel(sim, ch, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace emptcp::net
