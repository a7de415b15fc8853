// Allocation-free scanner for one JSONL trace line.
//
// Every trace line stats/trace_export.hpp writes is one flat JSON object
// of scalars. The scanner checks the whole line when it scans it: the
// object structure (no nesting, nothing after the closing brace), each
// string (escapes decoded) and each number (JSON grammar, plus the
// "nan"/"inf" spellings stats::fmt_double emits). It records every field
// as a (key, type, token) view; numbers convert only when read. The field
// list and the buffer for decoded strings are reused from line to line,
// so a warmed-up scanner does not allocate.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace emptcp::analysis {

class TraceLine {
 public:
  enum class Type : std::uint8_t { kNumber, kString, kBool, kNull };
  struct Field {
    std::string_view key;
    /// Number and literal fields: the raw token. Strings: the decoded
    /// bytes, without the quotes.
    std::string_view value;
    Type type = Type::kNull;
  };

  /// Scans one line. On malformed input returns false and sets `err`
  /// ("offset N: message"). The views stay valid until the next scan and
  /// only while the bytes of `line` do.
  bool scan(std::string_view line, std::string& err);

  /// The first field named `key` (a duplicate key's first value wins), or
  /// nullptr.
  [[nodiscard]] const Field* find(std::string_view key) const;
  /// String value at `key`; "" when absent or not a string.
  [[nodiscard]] std::string_view str(std::string_view key) const;
  /// Numeric value at `key` (bools widen to 0/1), or `fallback`.
  [[nodiscard]] double num(std::string_view key, double fallback) const;

 private:
  std::vector<Field> fields_;
  /// Decoded bytes of escaped strings. Reserved to the line's length
  /// before scanning (decoding never grows a string), so it never moves
  /// while views into it are handed out.
  std::string decoded_;
};

}  // namespace emptcp::analysis
