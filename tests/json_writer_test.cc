// Differential tests of the number and string writers: AppendDouble against
// printf's "%.*g", and the JSON writers against the snprintf/strtod and
// char-at-a-time code they replaced, which is kept here as the reference.
// Every number they write must also read back through ParseDouble.
// Journals, checkpoints, layout CSVs and every digest golden are built from
// these writers, so any difference would change bytes somewhere.

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strutil.h"
#include "obs/json.h"

namespace dblayout {
namespace {

// --- References: the writers as they were before the to_chars versions ------

std::string ReferenceJsonDouble(double v) {
  if (!(v == v)) return "null";
  if (v > 1.7e308) return "1e308";
  if (v < -1.7e308) return "-1e308";
  char buf[64];
  for (int prec = 6; prec <= 17; prec += prec < 15 ? 9 : 1) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string ReferenceJsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string Printf(int precision, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, bits);
  return buf;
}

/// Every power of two from 2^-1074 to 2^1023 with both neighbours, the
/// integers around 0, 1e3, 1e4, 1e5 and 1e6 and every 97th one across
/// ±1.1e6, ±0, ±DBL_MAX, both infinities, NaN, and seeded random bit
/// patterns (NaN payloads and infinities among them); all with both signs.
std::vector<double> Samples() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> out;
  const auto add = [&out](double v) {
    out.push_back(v);
    out.push_back(-v);
  };
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    add(p);
    add(std::nextafter(p, 0.0));
    add(std::nextafter(p, kInf));
  }
  for (const double center : {0.0, 1e3, 1e4, 1e5, 1e6}) {
    for (int d = -2000; d <= 2000; ++d) add(center + d);
  }
  for (int64_t i = -1'100'000; i <= 1'100'000; i += 97) {
    out.push_back(static_cast<double>(i));
  }
  for (const double v : {0.0, DBL_MAX, kInf, std::numeric_limits<double>::quiet_NaN(),
                         1.0 / 3, 0.1, 123456.5, 1e-7, 5e-324, 1.7e308}) {
    add(v);
  }
  Rng rng(20261020);
  for (int i = 0; i < 120'000; ++i) {
    const auto bits = static_cast<uint64_t>(rng.UniformInt(
        std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max()));
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    out.push_back(v);
  }
  return out;
}

/// Whether ParseDouble reads all of `text`, the writing of `v` at
/// `precision`, back to `v`'s bits (at precision 17) or to a value that
/// writes as the same text again (at lower precisions).
bool ReadsBack(const std::string& text, double v, int precision) {
  const std::optional<double> back = ParseDouble(text);
  if (!back) return false;
  if (precision == 17) return Bits(*back) == Bits(v);
  std::string again;
  AppendDouble(&again, *back, precision);
  return again == text;
}

TEST(AppendDoubleTest, MatchesPrintfAtEveryJsonPrecision) {
  const std::vector<double> samples = Samples();
  int mismatches = 0;
  for (const int precision : {6, 15, 16, 17}) {
    for (const double v : samples) {
      std::string got;
      AppendDouble(&got, v, precision);
      const std::string want = Printf(precision, v);
      if (got != want && ++mismatches <= 10) {
        ADD_FAILURE() << "%." << precision << "g of " << Bits(v) << ": got " << got
                      << ", printf gives " << want;
      }
      // Below 17 digits, ±DBL_MAX round past the largest double, and strtod
      // reads the text as ±inf; the JSON writer clamps those values.
      const bool readable = precision == 17 ? std::isfinite(v) : std::fabs(v) <= 1.7e308;
      if (readable && !ReadsBack(got, v, precision) && ++mismatches <= 10) {
        ADD_FAILURE() << "%." << precision << "g of " << Bits(v) << " is " << got
                      << ", which ParseDouble does not read back";
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonWriterTest, DoubleMatchesTheSnprintfStrtodLoop) {
  int mismatches = 0;
  for (const double v : Samples()) {
    const std::string got = obs::JsonDouble(v);
    const std::string want = ReferenceJsonDouble(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << Bits(v) << ": got " << got << ", the loop gives " << want;
    }
    // Every finite double the writer does not clamp reads back bit for bit.
    if (std::fabs(v) <= 1.7e308 && !ReadsBack(got, v, 17) && ++mismatches <= 10) {
      ADD_FAILURE() << Bits(v) << " is " << got << ", which ParseDouble does not read back";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonWriterTest, StringMatchesTheCharLoop) {
  std::vector<std::string> samples = {""};
  std::string every_byte;
  for (int c = 0; c < 256; ++c) {
    samples.push_back(std::string(1, static_cast<char>(c)));
    every_byte.push_back(static_cast<char>(c));
  }
  samples.push_back(every_byte);
  samples.push_back(std::string(every_byte.rbegin(), every_byte.rend()));
  // One escape or UTF-8 byte at every offset of a 24-byte plain text, so
  // each lands at every position of an 8-byte word and in the tail.
  for (const char special : {'"', '\\', '\n', '\x01', '\x1f', '\x7f', '\x80', '\xff'}) {
    for (size_t at = 0; at < 24; ++at) {
      std::string s(24, 'a');
      s[at] = special;
      samples.push_back(s);
      samples.push_back(s.substr(0, at + 1));
    }
  }
  // Random strings, mostly plain runs with an escape now and then.
  Rng rng(26);
  for (int i = 0; i < 2000; ++i) {
    std::string s;
    for (int n = static_cast<int>(rng.UniformInt(0, 64)); n > 0; --n) {
      s.push_back(static_cast<char>(rng.Bernoulli(0.2) ? rng.UniformInt(0, 255)
                                                       : rng.UniformInt(0x20, 0x7e)));
    }
    samples.push_back(s);
  }
  for (const std::string& s : samples) {
    EXPECT_EQ(obs::JsonString(s), ReferenceJsonString(s)) << "length " << s.size();
  }
}

TEST(JsonWriterTest, IntMatchesPrintf) {
  std::vector<int64_t> samples = {0,  1,   -1,
                                  9,  10,  -10,
                                  std::numeric_limits<int64_t>::max(),
                                  std::numeric_limits<int64_t>::min()};
  Rng rng(27);
  for (int i = 0; i < 2000; ++i) {
    samples.push_back(rng.UniformInt(std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max()) >>
                      rng.UniformInt(0, 63));
  }
  for (const int64_t v : samples) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    EXPECT_EQ(obs::JsonInt(v), buf);
  }
}

TEST(JsonWriterTest, AppendFormsAppend) {
  std::string out = "[";
  obs::AppendJsonInt(&out, -42);
  out += ',';
  obs::AppendJsonDouble(&out, 0.1);
  out += ',';
  obs::AppendJsonString(&out, "a\"b");
  out += ',';
  AppendDouble(&out, 1.0 / 3, 17);
  out += ']';
  EXPECT_EQ(out, "[-42,0.1,\"a\\\"b\",0.33333333333333331]");
}

/// `{"k": <literal>}` parsed, and its "k" read by IntOr in [min, max].
Result<int64_t> ReadK(const std::string& literal,
                      int64_t min = std::numeric_limits<int64_t>::min(),
                      int64_t max = std::numeric_limits<int64_t>::max()) {
  Result<obs::JsonValue> v = obs::ParseJson("{\"k\":" + literal + "}");
  EXPECT_TRUE(v.ok()) << literal;
  return v.ok() ? v->IntOr("k", -7, min, max) : Result<int64_t>(v.status());
}

// Integer reads check the value before any conversion (the asan-ubsan
// build's float-cast-overflow check would catch one that did not).
TEST(JsonReaderTest, IntegersAreCheckedBeforeTheyConvert) {
  for (const char* bad : {"1e300", "-1e300", "1e19", "-1e19", "2.5", "-0.5",
                          "9223372036854775808", "1e999", "true", "\"3\"", "null"}) {
    const Result<int64_t> r = ReadK(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("field 'k'"), std::string::npos)
        << r.status().message();
  }
  // In an int field, 3e9 is out of range too.
  constexpr int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  for (const char* bad : {"3e9", "-3e9", "2147483648"}) {
    EXPECT_FALSE(ReadK(bad, kIntMin, kIntMax).ok()) << bad;
  }
  EXPECT_EQ(ReadK("2147483647", kIntMin, kIntMax).value(), kIntMax);
  EXPECT_EQ(ReadK("-2147483648", kIntMin, kIntMax).value(), kIntMin);
  EXPECT_EQ(ReadK("3e9").value(), 3'000'000'000);
  EXPECT_EQ(ReadK("4.0").value(), 4);
  EXPECT_EQ(ReadK("-0").value(), 0);
  EXPECT_EQ(ReadK("1e18").value(), 1'000'000'000'000'000'000);
  // Integer literals that fit int64_t read exactly, past a double's 53 bits.
  EXPECT_EQ(ReadK("9223372036854775807").value(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ReadK("-9223372036854775808").value(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ReadK("9007199254740993").value(), 9'007'199'254'740'993);
  // An absent field reads as the fallback.
  Result<obs::JsonValue> empty = obs::ParseJson("{}");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->IntOr("k", -7).value(), -7);
}

}  // namespace
}  // namespace dblayout
