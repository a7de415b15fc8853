// CSV export: every figure bench prints ASCII, but plotting the traces
// (Figs. 7/9/12) or the whisker data externally needs machine-readable
// output. These helpers render tables and time series as RFC-4180-style
// CSV (quoted only when needed) and write them to files.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/timeseries.hpp"

namespace emptcp::stats {

/// Locale-independent shortest-roundtrip double formatting ("0.1", not
/// "0.10000000000000001"): the `%.*g` text at the smallest precision >= 6
/// that parses back to `v`. Shared by every deterministic text artifact:
/// JSONL traces, CSV dumps, run manifests and report output.
std::string fmt_double(double v);

/// Longest text fmt_double produces ("-2.2250738585072014e-308").
inline constexpr std::size_t kMaxDoubleChars = 24;

/// Writes fmt_double(v) at `out`, which needs kMaxDoubleChars bytes of
/// room; returns the end of what it wrote.
char* write_double(char* out, double v);

/// Appends `s` to `out` as a quoted JSON string: '"' and '\\' are
/// backslash-escaped, other control characters become \u00XX. The one
/// escaper behind the trace, manifest, perf-document and Chrome-trace
/// writers.
void append_json_string(std::string& out, std::string_view s);

/// append_json_string's text written at `out`, which needs
/// 2 + 6 * s.size() bytes of room; returns the end of what it wrote.
char* write_json_string(char* out, std::string_view s);

/// Escapes one CSV field per RFC 4180 (quotes when it contains a comma,
/// quote, CR or LF; embedded quotes are doubled).
std::string csv_field(const std::string& value);

/// Renders rows (first row = header) as CSV text.
std::string to_csv(const std::vector<std::vector<std::string>>& rows);

/// Parses RFC-4180 CSV text back into rows. Quoted fields may contain
/// commas, doubled quotes, CR and LF; rows end at an unquoted LF or CRLF.
/// The exact inverse of to_csv: parse_csv(to_csv(rows)) == rows.
std::vector<std::vector<std::string>> parse_csv(std::string_view text);

/// One (t, v) series with a named value column.
std::string series_to_csv(const Series& series,
                          const std::string& value_name = "value",
                          const std::string& time_name = "t_s");

/// Multiple series joined on a common resampled time grid (n points over
/// the union of their time ranges) — the layout the trace figures need.
std::string series_table_to_csv(
    const std::vector<std::pair<std::string, const Series*>>& columns,
    std::size_t points = 200);

/// Writes text to a file; returns false on any I/O failure, including a
/// failed final flush when the file closes.
bool write_file(const std::string& path, const std::string& text);

}  // namespace emptcp::stats
