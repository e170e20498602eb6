#include <gtest/gtest.h>

#include "workload/trace.h"

namespace dblayout {
namespace {

constexpr char kTrace[] = R"(# a profiler trace
1000 51 SELECT COUNT(*) FROM orders
1005 52 SELECT COUNT(*) FROM customers;
1010 51 SELECT COUNT(*) FROM orders
1020 53 DELETE FROM staging WHERE s_id < 5
)";

TEST(TraceTest, ParsesEventsSortedByTimestamp) {
  auto events = ParseTraceEvents("200 2 SELECT * FROM b\n100 1 SELECT * FROM a\n");
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_DOUBLE_EQ((*events)[0].timestamp_ms, 100);
  EXPECT_EQ((*events)[0].session_id, 1);
  EXPECT_EQ((*events)[0].sql, "SELECT * FROM a");
  EXPECT_EQ((*events)[1].sql, "SELECT * FROM b");
}

TEST(TraceTest, ParseErrors) {
  EXPECT_EQ(ParseTraceEvents("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceEvents("# only comments\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTraceEvents("notanumber 1 SELECT * FROM t").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseTraceEvents("100 x SELECT * FROM t").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseTraceEvents("100 1 ;").status().code(), StatusCode::kParseError);
  // A NaN timestamp would break the strict weak order the sort needs.
  EXPECT_EQ(ParseTraceEvents("nan 1 SELECT * FROM t").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseTraceEvents("inf 1 SELECT * FROM t").status().code(),
            StatusCode::kParseError);
}

TEST(TraceTest, SetOfStatementsAggregatesWeights) {
  auto wl = WorkloadFromTrace("t", kTrace);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  ASSERT_EQ(wl->size(), 3u);
  EXPECT_EQ(wl->statement(0).sql, "SELECT COUNT(*) FROM orders");
  EXPECT_DOUBLE_EQ(wl->statement(0).weight, 2);  // appeared twice
  EXPECT_DOUBLE_EQ(wl->statement(1).weight, 1);
  EXPECT_EQ(wl->statement(2).parsed.kind, SqlStatement::Kind::kDelete);
  EXPECT_FALSE(wl->HasConcurrencyStreams());
}

TEST(TraceTest, SessionsBecomeStreams) {
  TraceOptions opt;
  opt.sessions_as_streams = true;
  auto wl = WorkloadFromTrace("t", kTrace, opt);
  ASSERT_TRUE(wl.ok());
  ASSERT_EQ(wl->size(), 4u);  // no aggregation in stream mode
  EXPECT_EQ(wl->statement(0).stream, 1);  // session 51
  EXPECT_EQ(wl->statement(1).stream, 2);  // session 52
  EXPECT_EQ(wl->statement(2).stream, 1);  // session 51 again
  EXPECT_EQ(wl->statement(3).stream, 3);  // session 53
  EXPECT_TRUE(wl->HasConcurrencyStreams());
}

TEST(TraceTest, BadSqlInTraceSurfaces) {
  EXPECT_EQ(WorkloadFromTrace("t", "100 1 THIS IS NOT SQL").status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace dblayout
