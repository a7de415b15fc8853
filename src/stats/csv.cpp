#include "stats/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

namespace emptcp::stats {
namespace {

char* put(char* out, std::string_view s) {
  std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

}  // namespace

char* write_double(char* out, double v) {
  // %g spells the non-finite values "nan", "-nan", "inf" and "-inf". NaN
  // never compares equal to itself, so no precision "round-trips" it and
  // the rule falls through to %.17g, which prints the same word.
  if (std::isnan(v)) return put(out, std::signbit(v) ? "-nan" : "nan");
  if (std::isinf(v)) return put(out, v < 0.0 ? "-inf" : "inf");
  // The shortest round-trip text has the fewest significant digits any
  // decimal that parses back to v can have, so no %g precision below that
  // count round-trips: the search starts there (at least at 6). %g rounds
  // to nearest, which at a binade edge can miss the interval the shortest
  // text hit, so the next precision is sometimes needed; 17 always works.
  char shortest[32];
  const char* const e =
      std::to_chars(shortest, shortest + sizeof(shortest), v,
                    std::chars_format::scientific)
          .ptr;
  int digits = 0;
  for (const char* c = shortest; c != e && *c != 'e'; ++c) {
    digits += *c >= '0' && *c <= '9' ? 1 : 0;
  }
  for (int prec = std::max(6, digits);; ++prec) {
    char* const end = std::to_chars(out, out + kMaxDoubleChars, v,
                                    std::chars_format::general, prec)
                          .ptr;
    double back = 0.0;
    std::from_chars(out, end, back);
    if (back == v || prec >= 17) return end;
  }
}

std::string fmt_double(double v) {
  char buf[kMaxDoubleChars];
  return std::string(buf, write_double(buf, v));
}

char* write_json_string(char* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out++ = '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      *out++ = '\\';
      *out++ = c;
    } else if (u < 0x20) {
      out = put(out, "\\u00");
      *out++ = kHex[u >> 4];
      *out++ = kHex[u & 0xF];
    } else {
      *out++ = c;
    }
  }
  *out++ = '"';
  return out;
}

void append_json_string(std::string& out, std::string_view s) {
  const std::size_t at = out.size();
  out.resize(at + 2 + 6 * s.size());
  out.resize(static_cast<std::size_t>(
      write_json_string(out.data() + at, s) - out.data()));
}

std::string csv_field(const std::string& value) {
  // RFC 4180: a field containing a comma, quote, CR or LF must be quoted
  // (the original writer missed '\r', which silently corrupted rows).
  const bool needs_quoting =
      value.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string to_csv(const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream os;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ',';
      os << csv_field(row[i]);
    }
    os << '\n';
  }
  return os.str();
}

std::vector<std::vector<std::string>> parse_csv(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // distinguishes "" (one empty field) from ""
  std::size_t i = 0;
  const std::size_t n = text.size();
  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };
  while (i < n) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field += '"';
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field += c;
        ++i;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        ++i;
        break;
      case ',':
        end_field();
        field_started = true;  // a separator implies a following field
        ++i;
        break;
      case '\r':
        if (i + 1 < n && text[i + 1] == '\n') ++i;
        [[fallthrough]];
      case '\n':
        end_row();
        ++i;
        break;
      default:
        field += c;
        field_started = true;
        ++i;
        break;
    }
  }
  // Text not ending in a newline still terminates its last row.
  if (field_started || !field.empty() || !row.empty()) end_row();
  return rows;
}

std::string series_to_csv(const Series& series,
                          const std::string& value_name,
                          const std::string& time_name) {
  std::ostringstream os;
  os << csv_field(time_name) << ',' << csv_field(value_name) << '\n';
  for (const Point& p : series) {
    os << p.t << ',' << p.v << '\n';
  }
  return os.str();
}

std::string series_table_to_csv(
    const std::vector<std::pair<std::string, const Series*>>& columns,
    std::size_t points) {
  if (columns.empty() || points == 0) return "";

  double t0 = 0.0;
  double t1 = 0.0;
  bool first = true;
  for (const auto& [name, series] : columns) {
    if (series == nullptr || series->empty()) continue;
    if (first) {
      t0 = series->front().t;
      t1 = series->back().t;
      first = false;
    } else {
      t0 = std::min(t0, series->front().t);
      t1 = std::max(t1, series->back().t);
    }
  }
  if (first || t1 <= t0) return "";

  std::ostringstream os;
  os << "t_s";
  for (const auto& [name, series] : columns) os << ',' << csv_field(name);
  os << '\n';
  if (points == 1) {
    // The grid formula below needs points >= 2; emit the single row at t0.
    os << t0;
    for (const auto& [name, series] : columns) {
      os << ',';
      if (series != nullptr && !series->empty()) os << value_at(*series, t0);
    }
    os << '\n';
    return os.str();
  }
  for (std::size_t i = 0; i < points; ++i) {
    const double t = t0 + (t1 - t0) * static_cast<double>(i) /
                              static_cast<double>(points - 1);
    os << t;
    for (const auto& [name, series] : columns) {
      os << ',';
      if (series != nullptr && !series->empty()) os << value_at(*series, t);
    }
    os << '\n';
  }
  return os.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << text;
  // Small files sit in the stream's buffer until close flushes them, so a
  // full disk shows only there.
  out.close();
  return !out.fail();
}

}  // namespace emptcp::stats
