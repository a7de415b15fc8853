// Span profiler unit tests: the disabled gate records nothing, nesting
// depths are tracked, ring overflow is counted (never silent), aggregates
// and the Chrome trace export are well-formed, and LogBuckets math holds.
#include "runtime/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json.hpp"
#include "analysis/perf_report.hpp"

namespace emptcp::runtime {
namespace {

/// Every test runs against the process-global Telemetry singleton; this
/// guard guarantees the gate is off and the buffers are empty on both
/// sides, whatever the test did.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Telemetry::instance().enable(false);
    Telemetry::instance().clear();
  }
  void TearDown() override {
    Telemetry::instance().enable(false);
    Telemetry::instance().clear();
  }
};

TEST_F(TelemetryTest, DisabledGateRecordsNothing) {
  ASSERT_FALSE(Telemetry::enabled());
  for (int i = 0; i < 100; ++i) {
    EMPTCP_SPAN("gate.off");
  }
  Telemetry::instance().counter("gate.off.counter", 1.0);
  // counter() is caller-gated, so the sample lands; spans must not.
  // (The shard engine only calls counter() inside an enabled() branch.)
  for (const auto& t : Telemetry::instance().aggregate()) {
    EXPECT_NE(t.name, "gate.off") << "span recorded while disabled";
  }
}

TEST_F(TelemetryTest, SpansRecordNameDurationAndNesting) {
  Telemetry::instance().enable(true);
  {
    EMPTCP_SPAN("outer");
    {
      EMPTCP_SPAN("inner");
    }
  }
  Telemetry::instance().enable(false);

  const std::vector<SpanRecord> spans =
      Telemetry::instance().local_buffer().spans();
  ASSERT_EQ(spans.size(), 2u);
  // Spans complete innermost-first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
  // The inner span is contained in the outer one.
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].start_ns + spans[0].dur_ns,
            spans[1].start_ns + spans[1].dur_ns);
}

TEST_F(TelemetryTest, RingOverflowCountsDropsNeverSilent) {
  SpanBuffer buf(7);
  const std::size_t extra = 37;
  SpanRecord r;
  r.name = "x";
  for (std::size_t i = 0; i < SpanBuffer::kSpanCapacity + extra; ++i) {
    r.start_ns = i;
    buf.push_span(r);
  }
  EXPECT_EQ(buf.spans().size(), SpanBuffer::kSpanCapacity);
  EXPECT_EQ(buf.spans_dropped(), extra);
  EXPECT_EQ(buf.span_total(), SpanBuffer::kSpanCapacity + extra);
  // Oldest-first unrotation: the retained window is the most recent
  // kSpanCapacity records, starting right after the dropped ones.
  const std::vector<SpanRecord> spans = buf.spans();
  EXPECT_EQ(spans.front().start_ns, extra);
  EXPECT_EQ(spans.back().start_ns,
            SpanBuffer::kSpanCapacity + extra - 1);
}

TEST_F(TelemetryTest, CounterOverflowCountsDrops) {
  SpanBuffer buf(7);
  CounterSample s;
  s.name = "c";
  for (std::size_t i = 0; i < SpanBuffer::kCounterCapacity + 5; ++i) {
    s.t_ns = i;
    buf.push_counter(s);
  }
  EXPECT_EQ(buf.counters().size(), SpanBuffer::kCounterCapacity);
  EXPECT_EQ(buf.counters_dropped(), 5u);
}

TEST_F(TelemetryTest, AggregateSumsAcrossNamesSortedByTotal) {
  Telemetry::instance().enable(true);
  for (int i = 0; i < 3; ++i) {
    EMPTCP_SPAN("agg.a");
  }
  {
    EMPTCP_SPAN("agg.b");
  }
  Telemetry::instance().enable(false);

  std::uint64_t a_count = 0;
  std::uint64_t b_count = 0;
  for (const auto& t : Telemetry::instance().aggregate()) {
    if (t.name == "agg.a") a_count = t.count;
    if (t.name == "agg.b") b_count = t.count;
    EXPECT_GE(t.total_ns, t.max_ns);
  }
  EXPECT_EQ(a_count, 3u);
  EXPECT_EQ(b_count, 1u);
}

TEST_F(TelemetryTest, InternReturnsStablePointerForEqualNames) {
  Telemetry& t = Telemetry::instance();
  const std::string built = std::string("dyn") + ".name";
  const char* p1 = t.intern(built);
  const char* p2 = t.intern("dyn.name");
  EXPECT_EQ(p1, p2);
  EXPECT_STREQ(p1, "dyn.name");
}

TEST_F(TelemetryTest, ChromeExportValidatesStructurally) {
  Telemetry::instance().enable(true);
  Telemetry::instance().set_thread_label("test-main");
  {
    EMPTCP_SPAN("export.span");
  }
  Telemetry::instance().counter("export.counter", 42.0);
  Telemetry::instance().enable(false);

  const std::string json = Telemetry::instance().to_chrome_json();
  std::size_t events = 0;
  std::string err;
  ASSERT_TRUE(analysis::validate_chrome_trace(json, events, err)) << err;
  EXPECT_GE(events, 3u);  // metadata + span + counter, at least
  EXPECT_NE(json.find("\"test-main\""), std::string::npos);
  EXPECT_NE(json.find("export.span"), std::string::npos);
  EXPECT_NE(json.find("export.counter"), std::string::npos);
}

TEST_F(TelemetryTest, ChromeExportEscapesSpanNames) {
  // A quote, a backslash, a newline and a raw control byte in a span and
  // a counter name must leave the export valid JSON that reads back as
  // the name recorded.
  const std::string name = "quote\" backslash\\ newline\n ctrl\x01.";
  Telemetry& t = Telemetry::instance();
  t.enable(true);
  const char* interned = t.intern(name);
  {
    EMPTCP_SPAN(interned);
  }
  t.counter(interned, 1.0);
  t.enable(false);

  const std::string json = t.to_chrome_json();
  std::size_t events = 0;
  std::string err;
  ASSERT_TRUE(analysis::validate_chrome_trace(json, events, err)) << err;
  const auto flat = analysis::parse_json_flat(json, &err);
  ASSERT_TRUE(flat.has_value()) << err;
  std::size_t matches = 0;
  for (const auto& [path, v] : *flat) {
    if (v.type == analysis::JsonScalar::Type::kString && v.str == name) {
      ++matches;
    }
  }
  EXPECT_EQ(matches, 2u);  // the span record and the counter record
}

TEST_F(TelemetryTest, ClearDropsRecordsKeepsRegistration) {
  Telemetry::instance().enable(true);
  {
    EMPTCP_SPAN("clear.me");
  }
  Telemetry::instance().enable(false);
  const std::size_t threads = Telemetry::instance().thread_count();
  ASSERT_GE(threads, 1u);
  Telemetry::instance().clear();
  EXPECT_EQ(Telemetry::instance().local_buffer().spans().size(), 0u);
  EXPECT_EQ(Telemetry::instance().spans_dropped(), 0u);
  EXPECT_EQ(Telemetry::instance().thread_count(), threads);
}

TEST_F(TelemetryTest, ThreadsGetDistinctBuffers) {
  Telemetry::instance().enable(true);
  std::thread worker([] {
    Telemetry::instance().set_thread_label("worker-x");
    EMPTCP_SPAN("thread.span");
  });
  worker.join();
  Telemetry::instance().enable(false);

  bool found = false;
  for (const auto& t : Telemetry::instance().aggregate()) {
    if (t.name == "thread.span") found = t.count == 1;
  }
  EXPECT_TRUE(found);
  const std::string json = Telemetry::instance().to_chrome_json();
  EXPECT_NE(json.find("\"worker-x\""), std::string::npos);
}

TEST(LogBucketsTest, BasicStats) {
  LogBuckets h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile_upper(0.5), 0u);
  h.add(0);
  h.add(1);
  h.add(7);
  h.add(8);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  // Bucket layout: zeros in 0, 1 in bucket 1, 7 in bucket 3, 8 in bucket 4.
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.buckets()[4], 1u);
}

TEST(LogBucketsTest, QuantileUpperBoundsAndClamping) {
  LogBuckets h;
  for (int i = 0; i < 99; ++i) h.add(2);  // bucket 2, upper bound 3
  h.add(1000);                            // bucket 10, upper bound 1023
  EXPECT_EQ(h.quantile_upper(0.5), 3u);
  EXPECT_EQ(h.quantile_upper(0.98), 3u);
  // The top sample's bucket upper bound (1023) clamps to the observed max.
  EXPECT_EQ(h.quantile_upper(1.0), 1000u);
}

TEST(LogBucketsTest, MergeCombinesCountsAndExtremes) {
  LogBuckets a;
  LogBuckets b;
  a.add(4);
  b.add(100);
  b.add(0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 104u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 100u);
  LogBuckets empty;
  a.merge(empty);  // merging an empty histogram must not disturb extremes
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 100u);
}

}  // namespace
}  // namespace emptcp::runtime
