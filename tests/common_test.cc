#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strutil.h"
#include "common/units.h"

namespace dblayout {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::CapacityExceeded("x").code(), StatusCode::kCapacityExceeded);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CopyIsCheapAndEqualityWorks) {
  Status a = Status::NotFound("missing");
  Status b = a;  // shared rep
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.message(), "missing");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    DBLAYOUT_RETURN_NOT_OK(Status::Internal("inner"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kInternal);
  auto passes = []() -> Status {
    DBLAYOUT_RETURN_NOT_OK(Status::OK());
    return Status::OK();
  };
  EXPECT_TRUE(passes().ok());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 10;
  };
  auto outer = [&](bool fail) -> Result<int> {
    DBLAYOUT_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(outer(false).value(), 11);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInternal);
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StrUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StrUtilTest, CaseAndTrim) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("abc"), "ABC");
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_TRUE(StartsWith("-- weight: 3", "--"));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(StrUtilTest, ParseDoubleReadsWholeTokensAsStrtod) {
  EXPECT_EQ(ParseDouble("2.5"), 2.5);
  EXPECT_EQ(ParseDouble(" +0x1p3"), 8.0);
  EXPECT_EQ(ParseDouble("1e999"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(ParseDouble("1e-400"), 0.0);
  EXPECT_TRUE(std::isnan(*ParseDouble("nan")));
  EXPECT_TRUE(std::signbit(*ParseDouble("-0")));
  for (const char* bad : {"", " ", "1e", "1.2.3", "2 ", "x1", "--1"}) {
    EXPECT_EQ(ParseDouble(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(ParseDouble(std::string_view("1\0", 2)), std::nullopt);
  EXPECT_EQ(ParseDouble(std::string(100, '0') + "1"), 1.0);
}

TEST(StrUtilTest, ParseIntFitsItsTypeOrFails) {
  EXPECT_EQ(ParseInt<int>(" +42"), 42);
  EXPECT_EQ(ParseInt<int>("-2147483648"), INT32_MIN);
  EXPECT_EQ(ParseInt<int>("2147483648"), std::nullopt);
  EXPECT_EQ(ParseInt<int>("4294967298"), std::nullopt);
  EXPECT_EQ(ParseInt<int64_t>("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseInt<int64_t>("9223372036854775808"), std::nullopt);
  EXPECT_EQ(ParseInt<uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(ParseInt<uint64_t>("18446744073709551616"), std::nullopt);
  for (const char* bad : {"-1", "-0", "+-1", "+", "", "1 ", "1e3", "0x10", "1.0"}) {
    EXPECT_EQ(ParseInt<uint64_t>(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(ParseInt<int>("+-1"), std::nullopt);
}

TEST(StrUtilTest, ToInt64TakesExactlyTheDoublesBelow2To63) {
  EXPECT_EQ(ToInt64(-0x1p63), INT64_MIN);
  EXPECT_EQ(ToInt64(std::nextafter(0x1p63, 0.0)), 9223372036854774784);
  EXPECT_EQ(ToInt64(-2.9), -2);
  for (const double bad : {0x1p63, -0x1p64, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(ToInt64(bad), std::nullopt) << bad;
  }
}

TEST(StrUtilTest, NextFieldSplitsAtWhiteSpace) {
  const std::string s = "  ab\tc  d ";
  size_t pos = 0;
  EXPECT_EQ(NextField(s, &pos), "ab");
  EXPECT_EQ(NextField(s, &pos), "c");
  EXPECT_EQ(s.substr(pos), "  d ");
  EXPECT_EQ(NextField(s, &pos), "d");
  EXPECT_EQ(NextField(s, &pos), "");
}

TEST(StrUtilTest, RenderTableAlignsColumns) {
  std::string t = RenderTable({{"h1", "header2"}, {"a", "b"}});
  EXPECT_NE(t.find("h1 | header2"), std::string::npos);
  EXPECT_NE(t.find("---+-"), std::string::npos);
  EXPECT_EQ(RenderTable({}), "");
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, WeightedIndexRespectsZeroWeight) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.WeightedIndex({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(UnitsTest, BytesToBlocksRoundsUp) {
  EXPECT_EQ(BytesToBlocks(0), 0);
  EXPECT_EQ(BytesToBlocks(1), 1);
  EXPECT_EQ(BytesToBlocks(kBlockBytes), 1);
  EXPECT_EQ(BytesToBlocks(kBlockBytes + 1), 2);
}

TEST(UnitsTest, MsPerBlockMatchesRate) {
  // 64 KiB at 65.536 MB/s is exactly 1 ms.
  EXPECT_DOUBLE_EQ(MsPerBlock(65.536), 1.0);
  EXPECT_NEAR(MsPerBlock(40.0), 1.638, 1e-3);
}

TEST(LoggingTest, LevelsSettable) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(prev);
}

}  // namespace
}  // namespace dblayout
