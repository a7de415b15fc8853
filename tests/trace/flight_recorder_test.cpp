#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/simulation.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace emptcp::trace {
namespace {

Event make_event(std::int64_t i) {
  Event e;
  e.t = i;
  e.kind = Kind::kCwnd;
  e.id = 1;
  e.i0 = i;
  return e;
}

TEST(FlightRecorderTest, RetainsOnlyTheLastCapacityEvents) {
  FlightRecorder fr;
  const std::int64_t n = static_cast<std::int64_t>(FlightRecorder::kCapacity) + 10;
  for (std::int64_t i = 0; i < n; ++i) fr.record(make_event(i));
  EXPECT_EQ(fr.total(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(fr.size(), FlightRecorder::kCapacity);
  const std::vector<Event> tail = fr.tail();
  ASSERT_EQ(tail.size(), FlightRecorder::kCapacity);
  // Oldest retained is event 10, newest is n-1, in order.
  EXPECT_EQ(tail.front().i0, 10);
  EXPECT_EQ(tail.back().i0, n - 1);
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].i0, tail[i - 1].i0 + 1);
  }
}

TEST(FlightRecorderTest, TailBeforeWraparoundIsOldestFirst) {
  FlightRecorder fr;
  for (std::int64_t i = 0; i < 5; ++i) fr.record(make_event(i));
  const std::vector<Event> tail = fr.tail();
  ASSERT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail.front().i0, 0);
  EXPECT_EQ(tail.back().i0, 4);
  fr.clear();
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_TRUE(fr.tail().empty());
}

TEST(FlightRecorderTest, DumpNamesKindsAndLabels) {
  FlightRecorder fr;
  Event e = make_event(7);
  e.kind = Kind::kMpPrio;
  e.label = "wifi";
  fr.record(e);
  const std::string text = fr.dump();
  EXPECT_NE(text.find("mp_prio"), std::string::npos);
  EXPECT_NE(text.find("wifi"), std::string::npos);
}

TEST(FlightRecorderTest, SinkFeedsRingWithoutRetention) {
  TraceSink sink;
  ASSERT_FALSE(sink.enabled());
  ASSERT_TRUE(sink.flight_enabled());
  sink.cwnd(sim::Time{1}, 1, 10, 5);
  EXPECT_EQ(sink.size(), 0u);        // nothing retained
  EXPECT_EQ(sink.flight().total(), 1u);  // but the ring saw it
  sink.flight_enable(false);
  EXPECT_FALSE(sink.recording());
  sink.enable();
  EXPECT_TRUE(sink.recording());
  sink.cwnd(sim::Time{2}, 1, 20, 10);
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.flight().total(), 1u);  // ring off: unchanged
}

TEST(FlightRecorderTest, DumpFilePathsNeverCollide) {
  namespace fs = std::filesystem;
  FlightRecorder fr;
  fr.record(make_event(1));

  // Unset: dumping is a no-op that reports "nothing written".
  ::unsetenv("EMPTCP_FLIGHT_DIR");
  EXPECT_EQ(dump_flight_to_file(fr, "ctx", "why"), "");

  const fs::path dir = fs::path(::testing::TempDir()) / "flight_dump_unique";
  fs::remove_all(dir);
  ::setenv("EMPTCP_FLIGHT_DIR", dir.string().c_str(), 1);
  // Same recorder, same context, repeated dumps — as happens when several
  // EMPTCP_JOBS workers hit failures in the same-named test or cell — must
  // land in distinct files, never overwrite each other.
  std::set<std::string> paths;
  for (int i = 0; i < 4; ++i) {
    const std::string p = dump_flight_to_file(fr, "same/context", "boom");
    ASSERT_FALSE(p.empty());
    EXPECT_TRUE(fs::exists(p)) << p;
    EXPECT_TRUE(paths.insert(p).second) << "collision: " << p;
    // The context is sanitized into the name (no path separators survive).
    EXPECT_NE(fs::path(p).filename().string().find("same-context"),
              std::string::npos);
  }
  ::unsetenv("EMPTCP_FLIGHT_DIR");
  fs::remove_all(dir);
}

TEST(FlightRecorderTest, CurrentSinkFollowsSimulationLifetime) {
  EXPECT_EQ(current_sink(), nullptr);
  {
    sim::Simulation outer(1);
    EXPECT_EQ(current_sink(), &outer.trace());
    {
      sim::Simulation inner(2);
      EXPECT_EQ(current_sink(), &inner.trace());
    }
    EXPECT_EQ(current_sink(), &outer.trace());
  }
  EXPECT_EQ(current_sink(), nullptr);
}

TEST(FlightRecorderTest, EventLoopExceptionDumpsTail) {
  sim::Simulation sim(1);
  EMPTCP_TRACE(sim, warning(sim.now(), "about-to-explode", 1, 2));
  sim.in(sim::Time{1}, [] { throw std::runtime_error("invariant violated"); });
  ::testing::internal::CaptureStderr();
  EXPECT_THROW(sim.run(), std::runtime_error);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("flight recorder"), std::string::npos);
  EXPECT_NE(err.find("about-to-explode"), std::string::npos);
}

}  // namespace
}  // namespace emptcp::trace
