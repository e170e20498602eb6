#include "common/strutil.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace dblayout {

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

void AppendDouble(std::string* out, double v, int precision) {
  // 32 bytes hold "-1.7976931348623157e+308" and the widest fixed form at
  // 17 digits ("-0.00012345678901234567").
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, precision);
  DBLAYOUT_DCHECK(r.ec == std::errc());
  out->append(buf, static_cast<size_t>(r.ptr - buf));
}

std::optional<double> ParseDouble(std::string_view text) {
  // strtod reads a NUL-terminated string: copy the token, which is short
  // on every input path, to the stack.
  char buf[64];
  std::string long_text;
  const char* begin = buf;
  if (text.size() < sizeof(buf)) {
    std::memcpy(buf, text.data(), text.size());
    buf[text.size()] = '\0';
  } else {
    long_text.assign(text);
    begin = long_text.c_str();
  }
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (text.empty() || end != begin + text.size()) return std::nullopt;
  return v;
}

template <typename T>
std::optional<T> ParseInt(std::string_view text) {
  const char* p = text.data();
  const char* const last = p + text.size();
  while (p != last && std::isspace(static_cast<unsigned char>(*p))) ++p;
  // from_chars takes the '-' of a signed type and no '+'.
  if (last - p > 1 && p[0] == '+' && p[1] != '-') ++p;
  T v{};
  const std::from_chars_result r = std::from_chars(p, last, v);
  if (r.ec != std::errc() || r.ptr != last) return std::nullopt;
  return v;
}

template std::optional<int> ParseInt<int>(std::string_view);
template std::optional<int64_t> ParseInt<int64_t>(std::string_view);
template std::optional<uint64_t> ParseInt<uint64_t>(std::string_view);

std::optional<int64_t> ToInt64(double v) {
  // -2^63 and 2^63 are doubles: every double in between, and no other,
  // truncates into int64_t. NaN fails both comparisons.
  if (!(v >= -0x1p63 && v < 0x1p63)) return std::nullopt;
  return static_cast<int64_t>(v);
}

std::string_view NextField(std::string_view s, size_t* pos) {
  size_t b = *pos;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = b;
  while (e < s.size() && !std::isspace(static_cast<unsigned char>(s[e]))) ++e;
  *pos = e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string ToUpper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string RenderTable(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return "";
  size_t cols = 0;
  for (const auto& r : rows) cols = std::max(cols, r.size());
  std::vector<size_t> width(cols, 0);
  for (const auto& r : rows) {
    for (size_t c = 0; c < r.size(); ++c) width[c] = std::max(width[c], r[c].size());
  }
  std::string out;
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    for (size_t c = 0; c < cols; ++c) {
      std::string cell = c < r.size() ? r[c] : "";
      cell.resize(width[c], ' ');
      out += cell;
      if (c + 1 < cols) out += " | ";
    }
    out += '\n';
    if (i == 0) {
      for (size_t c = 0; c < cols; ++c) {
        out += std::string(width[c], '-');
        if (c + 1 < cols) out += "-+-";
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace dblayout
