#include "analysis/trace_line.hpp"

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "analysis/json.hpp"

namespace emptcp::analysis {
namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Word-at-a-time helpers: the scanner classifies 8 bytes at once, so a
// short key or number costs one step instead of a data-dependent branch
// per byte.
constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kHigh = 0x8080808080808080ULL;

std::uint64_t load8(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// The high bit of every nonzero byte of `y` (exact: no carries between
/// bytes).
std::uint64_t nonzero_bytes(std::uint64_t y) {
  return (((y & ~kHigh) + ~kHigh) | y) & kHigh;
}

std::uint64_t bytes_equal(std::uint64_t x, unsigned char c) {
  return ~nonzero_bytes(x ^ (kOnes * c)) & kHigh;
}

/// Index of the first flagged byte; `flags` is nonzero.
std::size_t first_flagged(std::uint64_t flags) {
  return static_cast<std::size_t>(std::countr_zero(flags)) / 8;
}

bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

const char* skip_ws(const char* p, const char* end) {
  while (p != end && is_ws(*p)) ++p;
  return p;
}

// The scanning steps below take the position `p` of what they scan and
// return the position just past it, or nullptr with `error` set. They run
// on plain pointers so the position stays in a register.

const char* literal(const char* p, const char* end, std::string_view word) {
  return static_cast<std::size_t>(end - p) >= word.size() &&
                 std::memcmp(p, word.data(), word.size()) == 0
             ? p + word.size()
             : nullptr;
}

/// The escaped remainder of a string whose plain prefix [p, q) was
/// already scanned: decodes it all into `decoded` and views the copy.
const char* decode_string(const char* p, const char* q, const char* end,
                          std::string& decoded, std::string_view& out,
                          const char*& error) {
  const std::size_t start = decoded.size();
  decoded.append(p, q);
  p = q;
  while (p != end) {
    const char c = *p;
    if (c == '"') {
      out = std::string_view(decoded.data() + start, decoded.size() - start);
      return p + 1;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      error = "control character in string";
      return nullptr;
    }
    if (c != '\\') {
      decoded += c;
      ++p;
      continue;
    }
    if (++p == end) break;
    p = decode_json_escape(p, end, decoded, error);
    if (p == nullptr) return nullptr;
  }
  error = "unterminated string";
  return nullptr;
}

/// A quoted string at `p`. Without escapes `out` views the line itself;
/// with them, the decoded copy appended to `decoded`.
const char* scan_string(const char* p, const char* end, std::string& decoded,
                        std::string_view& out, const char*& error) {
  ++p;  // opening quote
  const char* q = p;
  // Stops at a quote, a backslash or a control byte (top three bits 0).
  for (; end - q >= 8; q += 8) {
    const std::uint64_t x = load8(q);
    const std::uint64_t stop = bytes_equal(x, '"') | bytes_equal(x, '\\') |
                               (~nonzero_bytes(x & (kOnes * 0xE0)) & kHigh);
    if (stop != 0) {
      q += first_flagged(stop);
      break;
    }
  }
  while (q != end && *q != '"' && *q != '\\' &&
         static_cast<unsigned char>(*q) >= 0x20) {
    ++q;
  }
  if (q != end && *q == '"') {
    out = std::string_view(p, static_cast<std::size_t>(q - p));
    return q + 1;
  }
  return decode_string(p, q, end, decoded, out, error);
}

const char* digits(const char* p, const char* end) {
  // A byte is a digit when its high nibble is 3 and stays 3 after adding
  // 6 (0x3A-0x3F carry into 0x4_); a non-digit byte is flagged.
  for (; end - p >= 8; p += 8) {
    const std::uint64_t x = load8(p);
    const std::uint64_t nibble = kOnes * 0xF0;
    const std::uint64_t non_digit = nonzero_bytes(
        ((x & nibble) ^ (kOnes * 0x30)) |
        (((x + kOnes * 0x06) & nibble) ^ (kOnes * 0x30)));
    if (non_digit != 0) return p + first_flagged(non_digit);
  }
  while (p != end && is_digit(*p)) ++p;
  return p;
}

/// JSON number grammar, plus "nan"/"inf" with an optional minus.
const char* scan_number(const char* p, const char* end, const char*& error) {
  error = "bad number";
  if (*p == '-') ++p;
  if (end - p >= 3 &&
      (std::memcmp(p, "nan", 3) == 0 || std::memcmp(p, "inf", 3) == 0)) {
    return p + 3;
  }
  if (p == end || !is_digit(*p)) return nullptr;
  p = *p == '0' ? p + 1 : digits(p, end);
  if (p != end && *p == '.') {
    const char* const frac = p + 1;
    p = digits(frac, end);
    if (p == frac) return nullptr;
  }
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    const char* const exp = p;
    p = digits(exp, end);
    if (p == exp) return nullptr;
  }
  error = nullptr;
  return p;
}

/// One field value at `p` (not at the end).
const char* scan_value(const char* p, const char* end, std::string& decoded,
                       TraceLine::Field& f, const char*& error) {
  switch (*p) {
    case '"':
      f.type = TraceLine::Type::kString;
      return scan_string(p, end, decoded, f.value, error);
    case '{':
    case '[':
      error = "nested object or array in a trace line";
      return nullptr;
    case 't':
    case 'f':
    case 'n': {
      const char* q = literal(p, end, "true");
      if (q == nullptr) q = literal(p, end, "false");
      f.type = TraceLine::Type::kBool;
      if (q == nullptr) {
        q = literal(p, end, "null");
        f.type = TraceLine::Type::kNull;
      }
      if (q != nullptr) {
        f.value = std::string_view(p, static_cast<std::size_t>(q - p));
        return q;
      }
      break;
    }
    default:
      break;
  }
  f.type = TraceLine::Type::kNumber;
  const char* const q = scan_number(p, end, error);
  if (q != nullptr) {
    f.value = std::string_view(p, static_cast<std::size_t>(q - p));
  }
  return q;
}

}  // namespace

bool TraceLine::scan(std::string_view line, std::string& err) {
  fields_.clear();
  decoded_.clear();
  decoded_.reserve(line.size());
  const char* p = line.data();
  const char* const end = p + line.size();
  const char* error = nullptr;
  // Each failing step returns nullptr; `at` keeps the position it failed
  // at for the message.
  const char* at = p;
  const auto fail = [&](const char* msg) {
    error = msg;
    return false;
  };
  const auto object = [&]() {
    p = skip_ws(p, end);
    if (p == end || *p != '{') return fail("expected '{'");
    p = skip_ws(p + 1, end);
    if (p != end && *p == '}') {
      ++p;
      return true;
    }
    for (;;) {
      if (p == end || *p != '"') return fail("expected object key");
      Field f;
      at = p;
      p = scan_string(p, end, decoded_, f.key, error);
      if (p == nullptr) return false;
      p = skip_ws(p, end);
      if (p == end || *p != ':') return fail("expected ':' after key");
      p = skip_ws(p + 1, end);
      if (p == end) return fail("unexpected end of input");
      at = p;
      p = scan_value(p, end, decoded_, f, error);
      if (p == nullptr) return false;
      fields_.push_back(f);
      p = skip_ws(p, end);
      if (p == end) return fail("unterminated object");
      if (*p == '}') {
        ++p;
        return true;
      }
      if (*p != ',') return fail("expected ',' or '}' in object");
      p = skip_ws(p + 1, end);
    }
  };
  if (object()) {
    p = skip_ws(p, end);
    if (p == end) return true;
    error = "trailing characters after JSON value";
  }
  if (p == nullptr) p = at;
  err = "offset " + std::to_string(p - line.data()) + ": " + error;
  return false;
}

const TraceLine::Field* TraceLine::find(std::string_view key) const {
  for (const Field& f : fields_) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

std::string_view TraceLine::str(std::string_view key) const {
  const Field* f = find(key);
  return f != nullptr && f->type == Type::kString ? f->value
                                                  : std::string_view();
}

double TraceLine::num(std::string_view key, double fallback) const {
  const Field* f = find(key);
  if (f == nullptr) return fallback;
  if (f->type == Type::kBool) return f->value == "true" ? 1.0 : 0.0;
  if (f->type != Type::kNumber) return fallback;
  double v = 0.0;
  const auto r =
      std::from_chars(f->value.data(), f->value.data() + f->value.size(), v);
  // from_chars leaves v alone when the token overflows or underflows a
  // double; strtod gives the ±HUGE_VAL or 0 a JSON reader expects. The
  // token is validated and followed by a delimiter inside the line, so
  // strtod stops where it ends.
  if (r.ec == std::errc::result_out_of_range) {
    return std::strtod(f->value.data(), nullptr);
  }
  return v;
}

}  // namespace emptcp::analysis
