// Custom gtest main: on any test failure, dump the flight recorder of the
// simulation currently under test (if one is alive on this thread) so the
// failure report carries the last instrumented simulator activity. The
// ring is on by default and survives with the Simulation object, so this
// works even for tests that never enabled full tracing.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "trace/sink.hpp"

namespace {

class FlightRecorderDumper : public ::testing::EmptyTestEventListener {
 public:
  void OnTestStart(const ::testing::TestInfo& info) override {
    dumped_ = false;
    context_ = std::string(info.test_suite_name()) + "." + info.name();
  }

  void OnTestPartResult(const ::testing::TestPartResult& result) override {
    if (!result.failed() || dumped_) return;
    emptcp::trace::TraceSink* sink = emptcp::trace::current_sink();
    if (sink == nullptr || sink->flight().total() == 0) return;
    dumped_ = true;  // once per test: later failures add no new context
    std::fprintf(stderr, "[  FLIGHT  ] %s",
                 sink->flight().dump().c_str());
    // Under EMPTCP_FLIGHT_DIR also write a file dump whose name embeds
    // process/thread/sequence ids — sharded ctest runs (EMPTCP_JOBS > 1)
    // execute the same binary concurrently, and test-name-only paths
    // would collide. (The test name comes from OnTestStart: gtest holds
    // its own lock while reporting a result, so asking it for the current
    // test from here would deadlock.)
    const std::string path = emptcp::trace::dump_flight_to_file(
        sink->flight(), context_, "test failure: " + context_);
    if (!path.empty()) {
      std::fprintf(stderr, "[  FLIGHT  ] written to %s\n", path.c_str());
    }
    std::fflush(stderr);
  }

 private:
  bool dumped_ = false;
  std::string context_ = "test";
};

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new FlightRecorderDumper);  // the listener list takes ownership
  return RUN_ALL_TESTS();
}
