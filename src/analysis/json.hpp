// Minimal JSON reader for the analysis layer.
//
// The documents this repo serializes besides traces — run manifests,
// campaign specs, perf documents, BENCH_core.json — are scalars inside
// (possibly nested) objects. This parser flattens that shape into
// ordered (dotted.path, scalar) pairs:
// {"a":{"b":1},"c":"x"} -> [("a.b", 1), ("c", "x")]. Arrays flatten with
// numeric path segments. It is a reader for our own writers, not a
// general-purpose JSON library; anything malformed fails with a position
// so the offending artifact can be inspected. Trace lines, flat and
// numerous, go through the in-place TraceLine scanner instead.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace emptcp::analysis {

struct JsonScalar {
  enum class Type { kNumber, kString, kBool, kNull };
  Type type = Type::kNull;
  double num = 0.0;
  bool boolean = false;
  std::string str;
};

/// One flattened JSON document, in serialization order.
using FlatJson = std::vector<std::pair<std::string, JsonScalar>>;

/// Parses one JSON value (object/array/scalar). Returns std::nullopt and
/// sets `err` ("offset N: message") on malformed input.
std::optional<FlatJson> parse_json_flat(std::string_view text,
                                        std::string* err = nullptr);

/// Decodes the escape sequence whose letter is at `p` (just after the
/// backslash; p < end) into `out`. Returns the position after it, or
/// nullptr with `error` set. Shared by parse_json_flat and TraceLine.
const char* decode_json_escape(const char* p, const char* end,
                               std::string& out, const char*& error);

/// First value at `key`, or nullptr.
const JsonScalar* json_find(const FlatJson& doc, std::string_view key);

/// Numeric value at `key` (bools widen to 0/1), or `fallback`.
double json_num(const FlatJson& doc, std::string_view key, double fallback);

/// String value at `key`, or `fallback`.
std::string json_str(const FlatJson& doc, std::string_view key,
                     std::string_view fallback = "");

}  // namespace emptcp::analysis
