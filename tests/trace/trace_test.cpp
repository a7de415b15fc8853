#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/simulation.hpp"
#include "stats/digest.hpp"
#include "stats/trace_export.hpp"
#include "trace/sink.hpp"
#include "trace/trace_diff.hpp"

namespace emptcp::trace {
namespace {

TEST(TraceSinkTest, DisabledByDefaultAndEmpty) {
  TraceSink sink;
  EXPECT_FALSE(sink.enabled());
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceSinkTest, MacroGateSkipsArgumentEvaluationWhenFullyOff) {
  sim::Simulation sim(1);
  int evals = 0;
  auto stamp = [&] {
    ++evals;
    return sim::Time{0};
  };
  // Default state: retention off, flight recorder on — the macro must run
  // so the ring sees the event, but nothing lands in the trace stream.
  EMPTCP_TRACE(sim, cwnd(stamp(), 1, 2, 3));
  EXPECT_EQ(evals, 1);
  EXPECT_EQ(sim.trace().flight().total(), 1u);
  EXPECT_EQ(sim.trace().size(), 0u);

  // Fully off (retention off + flight recorder off): neither the record
  // call nor its arguments run.
  sim.trace().flight_enable(false);
  EMPTCP_TRACE(sim, cwnd(stamp(), 1, 2, 3));
  EXPECT_EQ(evals, 1);
  EXPECT_EQ(sim.trace().size(), 0u);

  sim.trace().enable();
  EMPTCP_TRACE(sim, cwnd(stamp(), 1, 2, 3));
  EXPECT_EQ(evals, 2);
  ASSERT_EQ(sim.trace().size(), 1u);
  EXPECT_EQ(sim.trace().events()[0].kind, Kind::kCwnd);
}

TEST(TraceSinkTest, TypedRecordsCarryTheirFields) {
  TraceSink sink;
  sink.enable();
  sink.tcp_state(sim::milliseconds(5), 42, "closed", "syn_sent");
  sink.sched_pick(sim::milliseconds(6), 1, "wifi", 4096, 1460);
  sink.mp_prio(sim::milliseconds(7), 1, "lte", true, "peer");
  sink.energy_sample(sim::milliseconds(8), 2, "lte", 7.5, 1210.0);
  sink.warning(sim::milliseconds(9), "energy.byte_counter_backwards", 100, 10);

  ASSERT_EQ(sink.size(), 5u);
  const auto& ev = sink.events();
  EXPECT_EQ(ev[0].kind, Kind::kTcpState);
  EXPECT_EQ(ev[0].t, sim::milliseconds(5));
  EXPECT_EQ(ev[0].id, 42u);
  EXPECT_STREQ(ev[0].label, "closed");
  EXPECT_STREQ(ev[0].label2, "syn_sent");

  EXPECT_EQ(ev[1].kind, Kind::kSchedPick);
  EXPECT_EQ(ev[1].i0, 4096);
  EXPECT_EQ(ev[1].i1, 1460);

  EXPECT_EQ(ev[2].kind, Kind::kMpPrio);
  EXPECT_EQ(ev[2].i0, 1);
  EXPECT_STREQ(ev[2].label2, "peer");

  EXPECT_EQ(ev[3].kind, Kind::kEnergySample);
  EXPECT_DOUBLE_EQ(ev[3].d0, 7.5);
  EXPECT_DOUBLE_EQ(ev[3].d1, 1210.0);

  EXPECT_EQ(ev[4].kind, Kind::kWarning);
  EXPECT_EQ(ev[4].i0, 100);
  EXPECT_EQ(ev[4].i1, 10);

  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSinkTest, KindNamesAreStable) {
  EXPECT_STREQ(to_string(Kind::kTcpState), "tcp_state");
  EXPECT_STREQ(to_string(Kind::kCwnd), "cwnd");
  EXPECT_STREQ(to_string(Kind::kSrtt), "srtt");
  EXPECT_STREQ(to_string(Kind::kSchedPick), "sched_pick");
  EXPECT_STREQ(to_string(Kind::kMpPrio), "mp_prio");
  EXPECT_STREQ(to_string(Kind::kModeChange), "mode_change");
  EXPECT_STREQ(to_string(Kind::kRadioState), "radio_state");
  EXPECT_STREQ(to_string(Kind::kEnergySample), "energy_sample");
  EXPECT_STREQ(to_string(Kind::kChannelRate), "channel_rate");
  EXPECT_STREQ(to_string(Kind::kFastpath), "fastpath");
  EXPECT_STREQ(to_string(Kind::kWarning), "warning");
}

TEST(MetricsTest, FindOrCreateReturnsStableHandles) {
  Metrics m;
  Counter& a = m.counter("tcp.retransmits");
  Counter& b = m.counter("tcp.retransmits");
  EXPECT_EQ(&a, &b);
  a.add();
  a.add(4);
  EXPECT_EQ(b.value(), 5u);

  Gauge& g = m.gauge("wifi.mbps");
  g.set(12.5);
  EXPECT_DOUBLE_EQ(m.gauge("wifi.mbps").value(), 12.5);

  // Growing the registry must not invalidate earlier handles.
  for (int i = 0; i < 64; ++i) {
    m.counter("c" + std::to_string(i));
  }
  a.add();
  EXPECT_EQ(m.counter("tcp.retransmits").value(), 6u);
}

TEST(MetricsTest, SnapshotIsRegistrationOrderCountersFirst) {
  Metrics m;
  m.gauge("g.one").set(1.5);
  m.counter("c.one").add(2);
  m.counter("c.two").add(3);
  m.gauge("g.two").set(-4.0);

  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "c.one");
  EXPECT_DOUBLE_EQ(snap[0].value, 2.0);
  EXPECT_EQ(snap[1].name, "c.two");
  EXPECT_DOUBLE_EQ(snap[1].value, 3.0);
  EXPECT_EQ(snap[2].name, "g.one");
  EXPECT_DOUBLE_EQ(snap[2].value, 1.5);
  EXPECT_EQ(snap[3].name, "g.two");
  EXPECT_DOUBLE_EQ(snap[3].value, -4.0);
}

TEST(TraceDiffTest, IdenticalTextDiffsClean) {
  const std::string text = "line one\nline two\n";
  const TraceDiff d = diff_trace_text(text, text);
  EXPECT_TRUE(d.identical);
  EXPECT_EQ(d.line, 0u);
}

TEST(TraceDiffTest, ReportsFirstDivergentLine) {
  const TraceDiff d = diff_trace_text("a\nb\nc\n", "a\nX\nc\n");
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.line, 2u);
  EXPECT_EQ(d.a_line, "b");
  EXPECT_EQ(d.b_line, "X");
  EXPECT_FALSE(d.describe().empty());
}

TEST(TraceDiffTest, MissingTrailingLineReported) {
  const TraceDiff d = diff_trace_text("a\n", "a\nb\n");
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.line, 2u);
  EXPECT_EQ(d.a_line, "<missing>");
  EXPECT_EQ(d.b_line, "b");
}

TEST(TraceExportTest, JsonlUsesPerKindSchemaNames) {
  TraceSink sink;
  sink.enable();
  sink.tcp_state(sim::milliseconds(1), 7, "syn_sent", "established");
  sink.cwnd(sim::milliseconds(2), 7, 14600, 65535);
  sink.mode_change(sim::milliseconds(3), "all_paths", "wifi_only", 12.5, 9.0);
  sink.fastpath(sim::milliseconds(4), 3, "fluid", "quiescent", 524288, 8.5,
                0.25);
  sink.metrics().counter("tcp.rtos").add(2);

  const std::string jsonl = stats::trace_to_jsonl(
      sink.events(), sink.metrics().snapshot());
  const std::string expected =
      "{\"t_ns\":1000000,\"kind\":\"tcp_state\",\"flow\":7,"
      "\"from\":\"syn_sent\",\"to\":\"established\"}\n"
      "{\"t_ns\":2000000,\"kind\":\"cwnd\",\"flow\":7,\"cwnd\":14600,"
      "\"ssthresh\":65535}\n"
      "{\"t_ns\":3000000,\"kind\":\"mode_change\",\"from\":\"all_paths\","
      "\"to\":\"wifi_only\",\"wifi_mbps\":12.5,\"cell_mbps\":9}\n"
      "{\"t_ns\":4000000,\"kind\":\"fastpath\",\"flow\":3,"
      "\"state\":\"fluid\",\"reason\":\"quiescent\",\"pending\":524288,"
      "\"wifi_mbps\":8.5,\"cell_mbps\":0.25}\n"
      "{\"metric\":\"tcp.rtos\",\"value\":2}\n";
  EXPECT_EQ(jsonl, expected);
}

TEST(TraceExportTest, JsonlDoublesRoundTripShortest) {
  TraceSink sink;
  sink.enable();
  // 0.1 is not exactly representable; the formatter must still print the
  // shortest string that round-trips, not 17 digits of noise.
  sink.channel_rate(0, "onoff", 0.1, 1.0 / 3.0);
  const std::string jsonl = stats::trace_to_jsonl(sink.events());
  EXPECT_NE(jsonl.find("\"mbps\":0.1,"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"extra\":0.3333333333333333"), std::string::npos)
      << jsonl;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TraceExportTest, StreamedWriterMatchesInMemoryAcrossChunkBoundaries) {
  // ~1.2 MB of lines, so the writer's 256 KB buffer fills several times
  // with a line straddling each boundary, plus one label whose escaped
  // form alone is longer than the buffer.
  static const std::string long_label =
      std::string(50000, 'q') + "\"\\\x01";
  TraceSink sink;
  sink.enable();
  for (std::uint32_t i = 0; i < 15000; ++i) {
    const sim::Time t = static_cast<sim::Time>(i) * 1000;
    sink.sched_pick(t, i % 3, i % 2 == 0 ? "wifi" : "cell", i * 1400ULL, 1400);
    if (i % 100 == 0) {
      sink.energy_sample(t, 0, "wifi", i / 7.0, -1e-3 * i);
    }
    if (i == 7000) sink.warning(t, long_label.c_str(), 1, 2);
  }
  sink.metrics().counter("tcp.rtos").add(3);
  const std::vector<MetricSnapshot> metrics = sink.metrics().snapshot();
  const std::string expected = stats::trace_to_jsonl(sink.events(), metrics);
  ASSERT_GT(expected.size(), 4u * 256 * 1024);
  EXPECT_NE(expected.find("\"what\":\"qqqq"), std::string::npos);
  EXPECT_NE(expected.find("qqq\\\"\\\\\\u0001\",\"v0\":1,"),
            std::string::npos);

  const std::string path = ::testing::TempDir() + "/emptcp_streamed.jsonl";
  std::string digest;
  ASSERT_TRUE(
      stats::write_trace_jsonl(path, sink.events(), metrics, digest));
  EXPECT_EQ(slurp(path), expected);
  EXPECT_EQ(digest, stats::fnv1a64_hex(expected));
  std::filesystem::remove(path);
}

TEST(TraceExportTest, StreamedWriterFailsOnFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  TraceSink sink;
  sink.enable();
  sink.cwnd(1, 7, 14600, 65535);
  std::string digest;
  EXPECT_FALSE(
      stats::write_trace_jsonl("/dev/full", sink.events(), {}, digest));
  EXPECT_TRUE(digest.empty());
}

}  // namespace
}  // namespace emptcp::trace
