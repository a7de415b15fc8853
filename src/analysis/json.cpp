#include "analysis/json.hpp"

#include <cstdlib>
#include <cstring>

namespace emptcp::analysis {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(FlatJson& out, std::string& err) {
    skip_ws();
    if (!value("", out, err)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      err = fail("trailing characters after JSON value");
      return false;
    }
    return true;
  }

 private:
  [[nodiscard]] std::string fail(const char* msg) const {
    return "offset " + std::to_string(pos_) + ": " + msg;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.substr(pos_, n) != word) return false;
    pos_ += n;
    return true;
  }

  static std::string join(const std::string& prefix, const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  }

  bool value(const std::string& path, FlatJson& out, std::string& err) {
    if (eof()) {
      err = fail("unexpected end of input");
      return false;
    }
    const char c = peek();
    if (c == '{') return object(path, out, err);
    if (c == '[') return array(path, out, err);
    if (c == '"') {
      JsonScalar s;
      s.type = JsonScalar::Type::kString;
      if (!string_token(s.str, err)) return false;
      out.emplace_back(path, std::move(s));
      return true;
    }
    if (literal("true")) {
      JsonScalar s;
      s.type = JsonScalar::Type::kBool;
      s.boolean = true;
      s.num = 1.0;
      out.emplace_back(path, std::move(s));
      return true;
    }
    if (literal("false")) {
      JsonScalar s;
      s.type = JsonScalar::Type::kBool;
      out.emplace_back(path, std::move(s));
      return true;
    }
    if (literal("null")) {
      out.emplace_back(path, JsonScalar{});
      return true;
    }
    return number(path, out, err);
  }

  bool number(const std::string& path, FlatJson& out, std::string& err) {
    const char* start = text_.data() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) {
      err = fail("expected a JSON value");
      return false;
    }
    // strtod over-accepts (hex, inf); both never appear in our writers and
    // are harmless to admit here.
    pos_ += static_cast<std::size_t>(end - start);
    JsonScalar s;
    s.type = JsonScalar::Type::kNumber;
    s.num = v;
    out.emplace_back(path, std::move(s));
    return true;
  }

  bool string_token(std::string& out, std::string& err) {
    ++pos_;  // opening quote
    while (!eof()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (eof()) break;
        const char* const at = text_.data() + pos_;
        const char* error = nullptr;
        const char* const next =
            decode_json_escape(at, text_.data() + text_.size(), out, error);
        if (next == nullptr) {
          err = fail(error);
          return false;
        }
        pos_ += static_cast<std::size_t>(next - at);
        continue;
      }
      out += c;
      ++pos_;
    }
    err = fail("unterminated string");
    return false;
  }

  bool object(const std::string& path, FlatJson& out, std::string& err) {
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') {
        err = fail("expected object key");
        return false;
      }
      std::string key;
      if (!string_token(key, err)) return false;
      skip_ws();
      if (eof() || peek() != ':') {
        err = fail("expected ':' after key");
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value(join(path, key), out, err)) return false;
      skip_ws();
      if (eof()) {
        err = fail("unterminated object");
        return false;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      err = fail("expected ',' or '}' in object");
      return false;
    }
  }

  bool array(const std::string& path, FlatJson& out, std::string& err) {
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    std::size_t index = 0;
    for (;;) {
      skip_ws();
      if (!value(join(path, std::to_string(index)), out, err)) return false;
      ++index;
      skip_ws();
      if (eof()) {
        err = fail("unterminated array");
        return false;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      err = fail("expected ',' or ']' in array");
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* decode_json_escape(const char* p, const char* end,
                               std::string& out, const char*& error) {
  switch (*p) {
    case '"': out += '"'; break;
    case '\\': out += '\\'; break;
    case '/': out += '/'; break;
    case 'b': out += '\b'; break;
    case 'f': out += '\f'; break;
    case 'n': out += '\n'; break;
    case 'r': out += '\r'; break;
    case 't': out += '\t'; break;
    case 'u': {
      if (end - p < 5) {
        error = "truncated \\u escape";
        return nullptr;
      }
      unsigned code = 0;
      for (int i = 1; i <= 4; ++i) {
        const char h = p[i];
        code <<= 4;
        if (h >= '0' && h <= '9') {
          code |= static_cast<unsigned>(h - '0');
        } else if (h >= 'a' && h <= 'f') {
          code |= static_cast<unsigned>(h - 'a' + 10);
        } else if (h >= 'A' && h <= 'F') {
          code |= static_cast<unsigned>(h - 'A' + 10);
        } else {
          error = "bad \\u escape";
          return nullptr;
        }
      }
      p += 4;
      // Our writers only emit \u00xx (control bytes); encode the code
      // point as UTF-8 for completeness.
      if (code < 0x80) {
        out += static_cast<char>(code);
      } else if (code < 0x800) {
        out += static_cast<char>(0xC0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3F));
      } else {
        out += static_cast<char>(0xE0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
      }
      break;
    }
    default:
      error = "unknown escape";
      return nullptr;
  }
  return p + 1;
}

std::optional<FlatJson> parse_json_flat(std::string_view text,
                                        std::string* err) {
  FlatJson out;
  std::string local_err;
  Parser p(text);
  if (!p.parse(out, local_err)) {
    if (err != nullptr) *err = local_err;
    return std::nullopt;
  }
  return out;
}

const JsonScalar* json_find(const FlatJson& doc, std::string_view key) {
  for (const auto& [k, v] : doc) {
    if (k == key) return &v;
  }
  return nullptr;
}

double json_num(const FlatJson& doc, std::string_view key, double fallback) {
  const JsonScalar* s = json_find(doc, key);
  if (s == nullptr) return fallback;
  if (s->type == JsonScalar::Type::kNumber) return s->num;
  if (s->type == JsonScalar::Type::kBool) return s->boolean ? 1.0 : 0.0;
  return fallback;
}

std::string json_str(const FlatJson& doc, std::string_view key,
                     std::string_view fallback) {
  const JsonScalar* s = json_find(doc, key);
  if (s != nullptr && s->type == JsonScalar::Type::kString) return s->str;
  return std::string(fallback);
}

}  // namespace emptcp::analysis
