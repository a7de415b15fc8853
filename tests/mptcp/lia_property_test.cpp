// Property tests for the RFC 6356 LIA aggressiveness bound, written
// against check::lia_increase_within_bound — the *same* predicate the
// runtime oracle evaluates on live runs — so the tested definition and the
// enforced definition can never drift apart.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "sim/hooks.hpp"
#include "check/invariants.hpp"
#include "check/oracle.hpp"
#include "mptcp/coupled_cc.hpp"

namespace emptcp::check {
namespace {

TEST(LiaBoundTest, ExactRenoIncreaseIsWithinBound) {
  // acked*mss/own = 1000*1000/10000 = 100 exactly.
  LiaSample s{1000, 1000, 10'000, 20'000, 0.5, 100};
  EXPECT_TRUE(lia_increase_within_bound(s));
}

TEST(LiaBoundTest, OneByteAboveRenoIsRejected) {
  LiaSample s{1000, 1000, 10'000, 20'000, 0.5, 101};
  EXPECT_FALSE(lia_increase_within_bound(s));
}

TEST(LiaBoundTest, ZeroIncreaseIsRejected) {
  // The implementation floors at one byte; a zero increase means the floor
  // was bypassed.
  LiaSample s{1000, 1000, 10'000, 20'000, 0.5, 0};
  EXPECT_FALSE(lia_increase_within_bound(s));
}

TEST(LiaBoundTest, FloorAppliesWhenRenoRoundsToZero) {
  // acked*mss/own = 100*1000/1'000'000 = 0.1 -> bound is the 1-byte floor.
  LiaSample s{100, 1000, 1'000'000, 2'000'000, 0.5, 1};
  EXPECT_TRUE(lia_increase_within_bound(s));
  s.increase = 2;
  EXPECT_FALSE(lia_increase_within_bound(s));
}

TEST(LiaBoundTest, DegenerateWindowsAllowExactlyTheFloor) {
  LiaSample s{1000, 1000, 0, 0, 1.0, 1};
  EXPECT_TRUE(lia_increase_within_bound(s));
  s.increase = 2;
  EXPECT_FALSE(lia_increase_within_bound(s));
}

// Randomized sample vectors: any increase at or below the recomputed Reno
// bound passes, anything above fails — the predicate is exactly the RFC
// cap, not an approximation of it.
TEST(LiaBoundTest, RandomizedSamplesMatchRecomputedBound) {
  std::mt19937_64 rng(20'260'806);
  std::uniform_int_distribution<std::uint64_t> acked_d(1, 64 * 1448);
  std::uniform_int_distribution<std::uint64_t> cwnd_d(1448, 4'000'000);
  for (int trial = 0; trial < 2000; ++trial) {
    LiaSample s;
    s.acked_bytes = acked_d(rng);
    s.mss = 1448;
    s.own_cwnd = cwnd_d(rng);
    s.total_cwnd = s.own_cwnd + cwnd_d(rng);
    s.alpha = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const double reno = static_cast<double>(s.acked_bytes) * 1448.0 /
                        static_cast<double>(s.own_cwnd);
    const auto bound =
        std::max<std::uint64_t>(static_cast<std::uint64_t>(reno), 1);
    s.increase = bound;
    EXPECT_TRUE(lia_increase_within_bound(s)) << "trial " << trial;
    s.increase = bound + 1;
    EXPECT_FALSE(lia_increase_within_bound(s)) << "trial " << trial;
  }
}

tcp::CongestionControl::Config cc_config(std::uint32_t mss,
                                         std::uint32_t iw_segments) {
  tcp::CongestionControl::Config cfg;
  cfg.mss = mss;
  cfg.initial_window_segments = iw_segments;
  return cfg;
}

// End-to-end property: drive real LiaCoupledCc populations with randomized
// shapes (member count, RTTs, windows, ack sizes) and let an oracle watch
// every coupled increase through the same hook wiring the meta-socket uses.
// The controller must never violate the bound, whatever the trajectory.
TEST(LiaPropertyTest, RandomizedControllersNeverExceedRenoBound) {
  std::mt19937_64 rng(0xE2'07'C8'19);
  sim::Hooks hooks;
  Oracle oracle;
  hooks.oracle = &oracle;

  for (int trial = 0; trial < 50; ++trial) {
    mptcp::LiaState state;
    const std::size_t n = 1 + rng() % 4;
    std::vector<std::unique_ptr<mptcp::LiaCoupledCc>> ccs;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t mss = 500 + static_cast<std::uint32_t>(rng() % 2000);
      const auto iw = 2 + static_cast<std::uint32_t>(rng() % 20);
      auto cc = std::make_unique<mptcp::LiaCoupledCc>(cc_config(mss, iw),
                                                      state);
      cc->set_hooks(&hooks);
      const auto rtt_ms = 1 + static_cast<std::int64_t>(rng() % 300);
      state.add_member({cc.get(), [rtt_ms] {
                          return sim::milliseconds(rtt_ms);
                        }});
      ccs.push_back(std::move(cc));
    }
    for (auto& cc : ccs) cc->on_loss_event();  // into congestion avoidance

    for (int step = 0; step < 400; ++step) {
      auto& cc = *ccs[rng() % n];
      switch (rng() % 8) {
        case 0:
          cc.on_loss_event();
          break;
        case 1:
          cc.on_timeout();
          break;
        default:
          cc.on_ack(1 + rng() % (2 * cc.mss()));
          break;
      }
    }
  }

  EXPECT_GT(oracle.checks_run(), 0u);
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

// The oracle flags exactly what the predicate rejects — feeding it an
// out-of-bound sample must produce a lia.increase_bound violation.
TEST(LiaPropertyTest, OracleRejectsOutOfBoundSample) {
  Oracle oracle;
  oracle.on_lia_increase({1000, 1000, 10'000, 20'000, 0.5, 101});
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.violations().front().invariant, "lia.increase_bound");
}

}  // namespace
}  // namespace emptcp::check
