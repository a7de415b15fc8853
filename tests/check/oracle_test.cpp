// Oracle unit tests: hooks/observer wiring and the direct hook checks, fed
// synthetic values so each invariant's pass and fail sides are exercised
// without running traffic.
#include "check/oracle.hpp"

#include <gtest/gtest.h>

#include "sim/hooks.hpp"
#include "support/testnet.hpp"

namespace emptcp::check {
namespace {

using test::TestNet;

TEST(OracleAttachTest, AttachInstallsAndDetachRestoresHubAndObserver) {
  TestNet net;
  ASSERT_EQ(sim::hooks(net.sim).oracle, nullptr);
  {
    Oracle outer;
    outer.attach(net.sim);
    EXPECT_EQ(sim::hooks(net.sim).oracle, &outer);
    {
      // Nested attachment (the fuzzer's differential baseline does this
      // implicitly across runs): the inner oracle shadows, then restores.
      Oracle inner;
      inner.attach(net.sim);
      EXPECT_EQ(sim::hooks(net.sim).oracle, &inner);
      inner.detach();
      EXPECT_EQ(sim::hooks(net.sim).oracle, &outer);
    }
  }  // outer's destructor detaches
  EXPECT_EQ(sim::hooks(net.sim).oracle, nullptr);
}

TEST(OracleTest, CleanAckViewPassesBrokenOnesFail) {
  Oracle o;
  o.on_tcp_ack({.snd_una = 1000,
                .snd_nxt = 5000,
                .in_flight = 4000,
                .sacked = 1000,
                .lost = 1448,
                .cwnd = 14'480,
                .local_port = 80});
  EXPECT_TRUE(o.ok());

  Oracle bad;
  bad.on_tcp_ack({.snd_una = 5000, .snd_nxt = 1000, .cwnd = 14'480});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.violations().front().invariant, "tcp.seq_order");

  Oracle pipe;
  pipe.on_tcp_ack({.snd_una = 0,
                   .snd_nxt = 1000,
                   .in_flight = 1000,
                   .sacked = 800,
                   .lost = 800,
                   .cwnd = 14'480});
  ASSERT_FALSE(pipe.ok());
  EXPECT_EQ(pipe.violations().front().invariant, "tcp.pipe_nonnegative");
}

TEST(OracleTest, ExactlyOnceDeliveryIdentity) {
  Oracle o;
  o.on_tcp_rx(/*received=*/1448, /*rcv_cumulative=*/1449, 80);
  EXPECT_TRUE(o.ok());
  // A duplicate delivery inflates `received` past the cumulative point.
  o.on_tcp_rx(/*received=*/2896, /*rcv_cumulative=*/1449, 80);
  ASSERT_FALSE(o.ok());
  EXPECT_EQ(o.violations().front().invariant, "tcp.exactly_once_delivery");
}

TEST(OracleTest, DssFreshAssignmentsMustExtendTheFrontier) {
  Oracle o;
  const void* conn = &o;
  o.on_dss_assign({.conn = conn,
                   .data_seq = 1,
                   .len = 1448,
                   .fresh = true,
                   .sf_usable = true});
  o.on_dss_assign({.conn = conn,
                   .data_seq = 1449,
                   .len = 1448,
                   .fresh = true,
                   .sf_usable = true});
  EXPECT_TRUE(o.ok());
  // A gap (skipping 1448 bytes) breaks contiguity.
  o.on_dss_assign({.conn = conn,
                   .data_seq = 4345,
                   .len = 1448,
                   .fresh = true,
                   .sf_usable = true});
  ASSERT_FALSE(o.ok());
  EXPECT_EQ(o.violations().front().invariant, "dss.fresh_contiguous");
}

TEST(OracleTest, DssReinjectionMustStayBelowFrontier) {
  Oracle o;
  const void* conn = &o;
  o.on_dss_assign({.conn = conn,
                   .data_seq = 1,
                   .len = 2896,
                   .fresh = true,
                   .sf_usable = true});
  o.on_dss_assign({.conn = conn,
                   .data_seq = 1,
                   .len = 1448,
                   .fresh = false,
                   .sf_usable = true});
  EXPECT_TRUE(o.ok());
  o.on_dss_assign({.conn = conn,
                   .data_seq = 2897,
                   .len = 1448,
                   .fresh = false,
                   .sf_usable = true});
  ASSERT_FALSE(o.ok());
  EXPECT_EQ(o.violations().front().invariant, "dss.reinject_below_frontier");
}

TEST(OracleTest, BackupSubflowPickedOverUsableRegularIsFlagged) {
  Oracle o;
  o.on_dss_assign({.conn = &o,
                   .data_seq = 1,
                   .len = 1448,
                   .fresh = true,
                   .sf_usable = true,
                   .sf_backup = true,
                   .other_regular_usable = true});
  ASSERT_FALSE(o.ok());
  bool found = false;
  for (const Violation& v : o.violations()) {
    if (v.invariant == "sched.backup_suppressed") found = true;
  }
  EXPECT_TRUE(found);
  // Backup use is legal once no regular subflow can carry data.
  Oracle fallback;
  fallback.on_dss_assign({.conn = &fallback,
                          .data_seq = 1,
                          .len = 1448,
                          .fresh = true,
                          .sf_usable = true,
                          .sf_backup = true,
                          .other_regular_usable = false});
  EXPECT_TRUE(fallback.ok());
}

TEST(OracleTest, ViolationStormKeepsCountingPastRetentionCap) {
  Oracle::Config cfg;
  cfg.max_violations = 4;
  Oracle o(cfg);
  for (int i = 0; i < 10; ++i) {
    o.expect(false, "test.always_fails", "i=" + std::to_string(i));
  }
  EXPECT_EQ(o.violation_count(), 10u);
  EXPECT_EQ(o.violations().size(), 4u);
  EXPECT_NE(o.report().find("+6 further violations"), std::string::npos);
  EXPECT_EQ(o.checks_run(), 10u);
}

TEST(OracleTest, ReportListsInvariantAndDetail) {
  Oracle o;
  o.expect(true, "test.passes", "unused");
  EXPECT_EQ(o.report(), "");
  o.expect(false, "test.fails", "the detail");
  EXPECT_NE(o.report().find("test.fails: the detail"), std::string::npos);
}

}  // namespace
}  // namespace emptcp::check
