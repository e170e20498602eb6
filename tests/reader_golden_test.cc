// The reader golden: every number reader and integer conversion at an input
// boundary, run on one corpus of spellings. Each line of
// tests/testdata/reader_golden.txt is `<reader> '<text>' -> <result>`: the
// values read (doubles as hexfloats) or the Status.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "benchdata/tpch.h"
#include "common/strutil.h"
#include "golden_test_util.h"
#include "layout/search.h"
#include "obs/json.h"
#include "resilience/fault.h"
#include "sql/ddl.h"
#include "sql/parser.h"
#include "storage/disk.h"
#include "storage/layout.h"
#include "workload/analyzer.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace dblayout {
namespace {

std::string Hex(double v) { return StrFormat("%a", v); }

/// `reader '<text>' -> result` for every spelling, `text` being the spelling
/// put into `shape` at `@`.
template <typename Read>
void Lines(std::string* out, const char* reader, const std::string& shape,
           const Read& read) {
  const size_t at = shape.find('@');
  for (const std::string& spelling : testutil::NumberSpellings()) {
    const std::string text = shape.substr(0, at) + spelling + shape.substr(at + 1);
    std::string escaped;
    for (const char c : text) escaped += c == '\n' ? std::string("\\n") : std::string(1, c);
    *out += StrFormat("%s '%s' -> %s\n", reader, escaped.c_str(), read(text).c_str());
  }
}

/// The value strtod reads from the whole of `spelling`, as the double flags
/// read it, or NaN with *ok false.
double FlagValue(const std::string& spelling, bool* ok) {
  char* end = nullptr;
  const double v = std::strtod(spelling.c_str(), &end);
  *ok = !spelling.empty() && *end == '\0';
  return v;
}

TEST(ReaderGoldenTest, NumberReadersMatchGolden) {
  std::string got;
  for (const char* shape : {"@ 1 SELECT a FROM t", "0 @ SELECT a FROM t"}) {
    Lines(&got, "trace", shape, [](const std::string& text) {
      auto events = ParseTraceEvents(text);
      if (!events.ok()) return events.status().ToString();
      const TraceEvent& e = events->front();
      return StrFormat("ts=%s session=%d sql='%s'", Hex(e.timestamp_ms).c_str(),
                       e.session_id, e.sql.c_str());
    });
  }
  for (const char* shape : {"d1 degraded transfer=@", "d1 degraded seek=@",
                            "d1 degraded errors=@"}) {
    Lines(&got, "fault", shape, [](const std::string& text) {
      auto plan = FaultPlan::FromSpec(text, "f");
      if (!plan.ok()) return plan.status().ToString();
      const DriveFault& f = plan->faults.front();
      return StrFormat("transfer=%s seek=%s errors=%s", Hex(f.transfer_scale).c_str(),
                       Hex(f.seek_scale).c_str(), Hex(f.transient_error_rate).c_str());
    });
  }
  for (const char* shape : {"-- weight:@\nSELECT a FROM t", "-- stream:@\nSELECT a FROM t"}) {
    Lines(&got, "workload", shape, [](const std::string& text) {
      auto wl = Workload::FromScript("w", text);
      if (!wl.ok()) return wl.status().ToString();
      return StrFormat("weight=%s stream=%d", Hex(wl->statement(0).weight).c_str(),
                       wl->statement(0).stream);
    });
  }
  for (const char* shape : {"d1 @ 5 100 90", "d1 10 @ 100 90", "d1 10 5 @ 90",
                            "d1 10 5 100 @"}) {
    Lines(&got, "disks", shape, [](const std::string& text) {
      auto fleet = DiskFleet::FromSpec(text, "d");
      if (!fleet.ok()) return fleet.status().ToString();
      const DiskDrive& d = fleet->disk(0);
      return StrFormat("blocks=%lld seek=%s read=%s write=%s",
                       static_cast<long long>(d.capacity_blocks), Hex(d.seek_ms).c_str(),
                       Hex(d.read_mb_s).c_str(), Hex(d.write_mb_s).c_str());
    });
  }
  const DiskFleet fleet = DiskFleet::Uniform(2);
  Lines(&got, "layout-csv", "object,D1,D2\nt,@,0", [&](const std::string& text) {
    auto layout = Layout::FromCsv(text, {"t"}, fleet);
    if (!layout.ok()) return layout.status().ToString();
    return StrFormat("x=%s", Hex(layout->x(0, 0)).c_str());
  });
  Lines(&got, "json", "@", [](const std::string& text) {
    auto v = obs::ParseJson(text);
    if (!v.ok()) return v.status().ToString();
    if (!v->is_number()) return std::string("not a number");
    const std::optional<int64_t> i = v->int_value(INT64_MIN, INT64_MAX);
    return StrFormat("number=%s int=%s", Hex(v->number_value()).c_str(),
                     i ? std::to_string(*i).c_str() : "none");
  });
  for (const char* shape : {"@-01-01", "2000-@-01", "2000-01-@"}) {
    Lines(&got, "date", shape, [](const std::string& text) {
      auto days = ParseDateDays(text);
      return days.ok() ? StrFormat("days=%s", Hex(*days).c_str())
                       : days.status().ToString();
    });
  }
  Lines(&got, "top", "SELECT TOP @ a FROM t", [](const std::string& text) {
    auto stmt = ParseSql(text);
    if (!stmt.ok()) return stmt.status().ToString();
    return StrFormat("top=%lld", static_cast<long long>(stmt->select.top));
  });
  for (const char* shape : {"CREATE TABLE t (a INT DISTINCT @) ROWS 10",
                            "CREATE TABLE t (a INT) ROWS @"}) {
    Lines(&got, "ddl", shape, [](const std::string& text) {
      auto db = ParseSchemaScript("s", text);
      if (!db.ok()) return db.status().ToString();
      const Table& t = db->tables().front();
      return StrFormat("rows=%lld distinct=%lld", static_cast<long long>(t.row_count),
                       static_cast<long long>(t.columns.front().distinct_count));
    });
  }
  // The search's wall-clock budget and the TPC-H scale are doubles read by
  // the flag parser.
  Database db("budget");
  Table table;
  table.name = "t";
  table.row_count = 1000;
  Column key;
  key.name = "k";
  key.type = ColumnType::kInt;
  key.distinct_count = 1000;
  table.columns = {key};
  ASSERT_TRUE(db.AddTable(table).ok());
  Workload wl("budget");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM t").ok());
  auto profile = AnalyzeWorkload(db, wl);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  Lines(&got, "time-budget-ms", "@", [&](const std::string& text) {
    bool ok = false;
    SearchOptions options;
    options.time_budget_ms = FlagValue(text, &ok);
    if (!ok) return std::string("not a number");
    // A budget that neither expires at once nor outlasts any run would
    // make the line depend on the host's speed.
    if (options.time_budget_ms > 0 && options.time_budget_ms < 1e9) {
      return std::string("depends on the clock");
    }
    auto result = TsGreedySearch(db, fleet, options).Run(*profile, rc);
    if (!result.ok()) return result.status().ToString();
    return StrFormat("timed_out=%d", result->timed_out ? 1 : 0);
  });
  Lines(&got, "tpch", "@", [](const std::string& text) {
    bool ok = false;
    const double scale = FlagValue(text, &ok);
    if (!ok) return std::string("not a number");
    if (!benchdata::TpchScaleFits(scale)) return std::string("does not fit");
    const Database tpch = benchdata::MakeTpchDatabase(scale);
    return StrFormat("lineitem=%lld",
                     static_cast<long long>(tpch.FindTable("lineitem")->row_count));
  });
  testutil::ExpectMatchesGolden(got, "reader_golden.txt");
}

}  // namespace
}  // namespace dblayout
