#include "stats/csv.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace emptcp::stats {

std::string fmt_double(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
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
  return static_cast<bool>(out);
}

}  // namespace emptcp::stats
