#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/strutil.h"

namespace dblayout::obs {

namespace {

/// True when one of the 8 bytes of `w` is below 0x20, '"' or '\\'. Each
/// term sets a byte's top bit when that byte is below 0x20 or zero after
/// the XOR; a borrow can set further bits only above a byte that matched,
/// so the word test is exact.
bool WordNeedsEscape(uint64_t w) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kTops = 0x8080808080808080ULL;
  const uint64_t below_space = w - kOnes * 0x20;
  const uint64_t quote = (w ^ (kOnes * '"')) - kOnes;
  const uint64_t backslash = (w ^ (kOnes * '\\')) - kOnes;
  return ((below_space | quote | backslash) & ~w & kTops) != 0;
}

}  // namespace

void AppendJsonString(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t run = 0;  // start of the bytes not yet copied
  size_t i = 0;
  while (i < s.size()) {
    // Skip 8 plain bytes at a time; SQL texts rarely hold an escape.
    uint64_t word = 0;
    if (i + sizeof(word) <= s.size()) {
      std::memcpy(&word, s.data() + i, sizeof(word));
      if (!WordNeedsEscape(word)) {
        i += sizeof(word);
        continue;
      }
    }
    const auto c = static_cast<unsigned char>(s[i++]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - 1 - run);
    run = i;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out->append(escaped, sizeof(escaped));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

std::string JsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonString(&out, s);
  return out;
}

void AppendJsonInt(std::string* out, int64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(r.ptr - buf));
}

std::string JsonInt(int64_t v) {
  std::string out;
  AppendJsonInt(&out, v);
  return out;
}

std::string JsonBool(bool v) { return v ? "true" : "false"; }

void AppendJsonDouble(std::string* out, double v) {
  // Journals carry costs and timings, which are finite by construction, but
  // degrade gracefully rather than emit invalid JSON.
  if (std::isnan(v)) {
    out->append("null");
    return;
  }
  if (v > 1.7e308 || v < -1.7e308) {
    out->append(v > 0 ? "1e308" : "-1e308");
    return;
  }
  // An integer of at most six digits is its own "%.6g" form. -0 is not: it
  // prints as "-0".
  if (std::fabs(v) < 1e6) {
    const auto i = static_cast<int64_t>(v);
    if (static_cast<double>(i) == v && (i != 0 || !std::signbit(v))) {
      AppendJsonInt(out, i);
      return;
    }
  }
  char buf[32];
  for (const int precision : {6, 15, 16}) {
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, precision);
    double back = 0;
    const std::from_chars_result parsed = std::from_chars(buf, r.ptr, back);
    if (parsed.ec == std::errc() && back == v) {
      out->append(buf, static_cast<size_t>(r.ptr - buf));
      return;
    }
  }
  AppendDouble(out, v, 17);
}

std::string JsonDouble(double v) {
  std::string out;
  AppendJsonDouble(&out, v);
  return out;
}

std::string JsonIntArray(const std::vector<int>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out.push_back(',');
    AppendJsonInt(&out, v[i]);
  }
  out.push_back(']');
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

std::optional<int64_t> JsonValue::int_value(int64_t min, int64_t max) const {
  if (!is_number()) return std::nullopt;
  int64_t v = exact_;
  if (!has_exact_) {
    // An integral double converts when ToInt64 takes it.
    const std::optional<int64_t> whole = ToInt64(number_);
    if (!whole || static_cast<double>(*whole) != number_) return std::nullopt;
    v = *whole;
  }
  if (v < min || v > max) return std::nullopt;
  return v;
}

Result<int64_t> JsonValue::IntOr(const std::string& key, int64_t fallback,
                                 int64_t min, int64_t max) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (const std::optional<int64_t> i = v->int_value(min, max)) return *i;
  const std::string range = StrFormat("an integer in [%lld, %lld]",
                                      static_cast<long long>(min),
                                      static_cast<long long>(max));
  if (!v->is_number()) {
    return Status::InvalidArgument(
        StrFormat("field '%s' is not a number; expected %s", key.c_str(), range.c_str()));
  }
  return Status::InvalidArgument(StrFormat("field '%s' is %g; expected %s", key.c_str(),
                                           v->number_value(), range.c_str()));
}

std::string JsonValue::StringOr(const std::string& key,
                                std::string fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value()
                                          : std::move(fallback);
}

bool JsonValue::BoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : fallback;
}

JsonValue JsonValue::Bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::Number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::Integer(double number, int64_t exact) {
  JsonValue out = Number(number);
  out.has_exact_ = true;
  out.exact_ = exact;
  return out;
}

JsonValue JsonValue::String(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::Array(std::vector<JsonValue> v) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.array_ = std::move(v);
  return out;
}

JsonValue JsonValue::Object(
    std::vector<std::pair<std::string, JsonValue>> v) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.object_ = std::move(v);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    DBLAYOUT_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::ParseError("JSON parse error at byte " +
                              std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        DBLAYOUT_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          *out = JsonValue::Bool(true);
          return Status::OK();
        }
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          *out = JsonValue::Bool(false);
          return Status::OK();
        }
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          *out = JsonValue::Null();
          return Status::OK();
        }
        return Error("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = JsonValue::Object(std::move(members));
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      DBLAYOUT_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      JsonValue value;
      DBLAYOUT_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = JsonValue::Object(std::move(members));
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = JsonValue::Array(std::move(items));
      return Status::OK();
    }
    while (true) {
      JsonValue value;
      DBLAYOUT_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      items.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = JsonValue::Array(std::move(items));
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_];
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              char h = text_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape");
              }
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (journals only escape
            // control characters, so this path is for robustness).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("invalid escape character");
        }
        ++pos_;
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string_view token(text_.data() + start, pos_ - start);
    const std::optional<double> value = ParseDouble(token);
    if (!value) {
      pos_ = start;
      return Error("malformed number '" + std::string(token) + "'");
    }
    // An integer literal in int64_t's range also keeps its exact value.
    const std::optional<int64_t> exact = ParseInt<int64_t>(token);
    *out = exact ? JsonValue::Integer(*value, *exact) : JsonValue::Number(*value);
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace dblayout::obs
