#include "stats/csv.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <thread>
#include <vector>

namespace emptcp::stats {
namespace {

/// fmt_double's rule in its first form, kept as the reference: the
/// smallest %.*g precision >= 6 whose text sscanf parses back to v.
std::string reference_fmt_double(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

TEST(FmtDoubleTest, MatchesReferenceOnEdgeValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0,     kInf,    std::numeric_limits<double>::quiet_NaN(),
      DBL_MAX, DBL_MIN, DBL_TRUE_MIN,
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      0.1,     1.0 / 3.0, 12.5, 9.0};
  const auto with_neighbours = [&values](double v) {
    values.push_back(v);
    values.push_back(std::nextafter(v, 0.0));
    values.push_back(std::nextafter(v, kInf));
  };
  for (int e = -1074; e <= 1023; ++e) with_neighbours(std::ldexp(1.0, e));
  for (int e = -323; e <= 308; ++e) {
    with_neighbours(std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));
  }
  for (const double v : values) {
    EXPECT_EQ(fmt_double(v), reference_fmt_double(v)) << hex(v);
    EXPECT_EQ(fmt_double(-v), reference_fmt_double(-v)) << hex(-v);
  }
}

TEST(FmtDoubleTest, MatchesReferenceOnRandomBitPatterns) {
  // 2^20 uniformly random bit patterns: every exponent, subnormals, NaN
  // payloads of both signs. The reference needs ~17 us for most of them
  // (it walks every precision up to 17), so four threads share the work.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = (std::size_t{1} << 20) / kThreads;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::string> first(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &mismatches, &first] {
      std::mt19937_64 rng(0x5eed + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t bits = rng();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        const std::string got = fmt_double(v);
        const std::string want = reference_fmt_double(v);
        if (got != want && mismatches[t]++ == 0) {
          first[t] = hex(v) + ": " + got + " != " + want;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << first[t];
  }
}

TEST(FmtDoubleTest, LongestOutputFitsTheDeclaredRoom) {
  EXPECT_EQ(fmt_double(-DBL_MIN).size(), kMaxDoubleChars);
  EXPECT_EQ(fmt_double(-DBL_MIN), "-2.2250738585072014e-308");
}

TEST(CsvTest, PlainFieldsUnquoted) {
  EXPECT_EQ(csv_field("hello"), "hello");
  EXPECT_EQ(csv_field("12.5"), "12.5");
}

TEST(CsvTest, SpecialFieldsQuotedAndEscaped) {
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("line\nbreak"), "\"line\nbreak\"");
  // RFC 4180: a bare CR needs quoting too, not just LF.
  EXPECT_EQ(csv_field("cr\rhere"), "\"cr\rhere\"");
}

TEST(CsvTest, ParseCsvRoundTripsEveryEscapeClass) {
  const std::vector<std::vector<std::string>> rows{
      {"plain", "with,comma", "with \"quotes\""},
      {"multi\nline", "cr\r\nlf", ""},
      {"", "", "trailing-empty-ok"},
  };
  const std::vector<std::vector<std::string>> parsed = parse_csv(to_csv(rows));
  EXPECT_EQ(parsed, rows);
}

TEST(CsvTest, ParseCsvHandlesCrlfRowSeparators) {
  const auto rows = parse_csv("a,b\r\n1,2\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, ParseCsvDoubledQuotesInsideQuotedField) {
  const auto rows = parse_csv("\"say \"\"hi\"\"\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "say \"hi\"");
  EXPECT_EQ(rows[0][1], "x");
}

TEST(CsvTest, ParseCsvEmptyInputs) {
  EXPECT_TRUE(parse_csv("").empty());
  // A lone newline is one row with one empty field per RFC grammar — our
  // writer never emits it, and the parser must not crash on it.
  EXPECT_EQ(parse_csv("\n").size(), 1u);
}

TEST(CsvTest, RowsRender) {
  const std::string csv = to_csv({{"a", "b"}, {"1", "x,y"}});
  EXPECT_EQ(csv, "a,b\n1,\"x,y\"\n");
}

TEST(CsvTest, SeriesToCsv) {
  const Series s{{0.0, 1.0}, {1.0, 2.5}};
  const std::string csv = series_to_csv(s, "energy_j");
  EXPECT_EQ(csv, "t_s,energy_j\n0,1\n1,2.5\n");
}

TEST(CsvTest, SeriesTableJoinsOnCommonGrid) {
  const Series a{{0.0, 1.0}, {10.0, 2.0}};
  const Series b{{0.0, 5.0}, {5.0, 7.0}, {10.0, 9.0}};
  const std::string csv = series_table_to_csv({{"a", &a}, {"b", &b}}, 3);
  // Header + 3 grid rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_NE(csv.find("t_s,a,b"), std::string::npos);
  // At t=5: a holds its last value (1), b stepped to 7.
  EXPECT_NE(csv.find("5,1,7"), std::string::npos);
}

TEST(CsvTest, SeriesTableDegenerateInputs) {
  EXPECT_TRUE(series_table_to_csv({}, 10).empty());
  const Series empty;
  EXPECT_TRUE(series_table_to_csv({{"e", &empty}}, 10).empty());
}

TEST(CsvTest, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/emptcp_csv_test.csv";
  ASSERT_TRUE(write_file(path, "a,b\n1,2\n"));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(CsvTest, WriteFileFailsOnBadPath) {
  EXPECT_FALSE(write_file("/nonexistent-dir-xyz/file.csv", "x"));
}

TEST(CsvTest, WriteFileFailsOnFullDevice) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // A small file sits in the stream's buffer until close flushes it, so
  // only the close sees the device refuse it.
  EXPECT_FALSE(write_file("/dev/full", std::string(100, 'x')));
  EXPECT_FALSE(write_file("/dev/full", std::string(1 << 20, 'x')));
}

}  // namespace
}  // namespace emptcp::stats
