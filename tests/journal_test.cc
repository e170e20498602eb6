// EventJournal tests: the thread-count byte-identity contract of the search
// journal, shard-merge determinism, wall-clock opt-in fields, value
// serialization, and JSONL well-formedness (every line re-parses).

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "layout/search.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "workload/analyzer.h"

namespace dblayout {
namespace {

using obs::EventJournal;
using obs::JournalFields;
using obs::JsonValue;

Column IntKey(const std::string& name, int64_t distinct) {
  Column c;
  c.name = name;
  c.type = ColumnType::kInt;
  c.distinct_count = distinct;
  c.min_value = 1;
  c.max_value = static_cast<double>(distinct);
  return c;
}

/// Two co-accessed large tables and one independent table (the same micro
/// instance the search and evaluator tests use).
Database MicroDb() {
  Database db("micro");
  for (const char* name : {"big_a", "big_b", "solo"}) {
    Table t;
    t.name = name;
    t.row_count = 300'000;
    t.columns = {IntKey(std::string(name) + "_k", 300'000)};
    Column pay;
    pay.name = std::string(name) + "_p";
    pay.type = ColumnType::kChar;
    pay.declared_length = 120;
    t.columns.push_back(pay);
    t.clustered_key = {t.columns[0].name};
    EXPECT_TRUE(db.AddTable(t).ok());
  }
  return db;
}

WorkloadProfile MicroProfile(const Database& db) {
  Workload wl("micro");
  EXPECT_TRUE(
      wl.Add("SELECT COUNT(*) FROM big_a, big_b WHERE big_a_k = big_b_k", 5).ok());
  EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM solo").ok());
  EXPECT_TRUE(
      wl.Add("SELECT COUNT(*) FROM big_a, solo WHERE big_a_k = solo_k", 2).ok());
  auto profile = AnalyzeWorkload(db, wl);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

ResolvedConstraints NoConstraints(const Database& db) {
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  return rc;
}

/// Runs the greedy search with a fresh journal attached and returns the
/// serialized journal.
std::string SearchJournal(int num_threads) {
  Database db = MicroDb();
  WorkloadProfile profile = MicroProfile(db);
  DiskFleet fleet = DiskFleet::Uniform(6);
  EventJournal journal;
  SearchOptions opts;
  opts.num_threads = num_threads;
  opts.journal = &journal;
  TsGreedySearch search(db, fleet, opts);
  auto result = search.Run(profile, NoConstraints(db));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return journal.Serialize();
}

TEST(JournalTest, ByteIdenticalAcrossThreadCounts) {
  // The headline contract (DESIGN.md §10): a default-mode journal is a pure
  // function of the run's inputs, so the thread count must not leak into a
  // single byte. The search-level journal has no run_start envelope (the CLI
  // owns it), so the whole stream must match.
  const std::string one = SearchJournal(1);
  const std::string four = SearchJournal(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

TEST(JournalTest, EveryLineParsesAndCarriesEventType) {
  const std::string text = SearchJournal(2);
  size_t pos = 0;
  int lines = 0;
  bool saw_search_start = false, saw_eval = false, saw_decision = false,
       saw_iter_end = false, saw_bind = false;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "journal must end with a newline";
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lines;
    auto parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
    const JsonValue& ev = parsed.value();
    ASSERT_TRUE(ev.is_object());
    const std::string type = ev.StringOr("ev", "");
    EXPECT_FALSE(type.empty()) << line;
    // Default (logical-clock) mode must not emit any wall-clock field.
    EXPECT_EQ(ev.Find("t_us"), nullptr) << line;
    EXPECT_EQ(ev.Find("eval_ns"), nullptr) << line;
    saw_search_start |= type == "search_start";
    saw_eval |= type == "eval";
    saw_decision |= type == "decision";
    saw_iter_end |= type == "iter_end";
    saw_bind |= type == "bind";
  }
  EXPECT_GT(lines, 10);
  EXPECT_TRUE(saw_bind);
  EXPECT_TRUE(saw_search_start);
  EXPECT_TRUE(saw_eval);
  EXPECT_TRUE(saw_decision);
  EXPECT_TRUE(saw_iter_end);
}

TEST(JournalTest, DecisionEventsAreInternallyConsistent) {
  const std::string text = SearchJournal(3);
  size_t pos = 0;
  int accepted = 0;
  double last_accepted_cost = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    auto parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok());
    const JsonValue& ev = parsed.value();
    if (ev.StringOr("ev", "") != "decision") continue;
    const std::string reason = ev.StringOr("reason", "");
    if (ev.BoolOr("accepted", false)) {
      ++accepted;
      EXPECT_EQ(reason, "improved") << line;
      // delta = candidate cost - pre-move cost, so accepting means delta < 0.
      EXPECT_LT(ev.NumberOr("delta", 0), 0) << line;
      last_accepted_cost = ev.NumberOr("cost", 0);
    } else {
      EXPECT_TRUE(reason == "outscored" || reason == "not_improving") << line;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(last_accepted_cost, 0);
}

TEST(JournalTest, WallClockModeAddsTimestamps) {
  EventJournal journal(obs::JournalOptions{/*wall_clock=*/true});
  EXPECT_TRUE(journal.wall_clock());
  journal.Append("probe", {{"k", obs::JsonInt(1)}});
  const std::string text = journal.Serialize();
  auto parsed = obs::ParseJson(text.substr(0, text.find('\n')));
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed.value().Find("t_us"), nullptr);
  EXPECT_EQ(parsed.value().IntOr("k", 0).value(), 1);
}

TEST(JournalTest, ValueSerializationIsDeterministicJson) {
  EXPECT_EQ(obs::JsonString("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(obs::JsonBool(true), "true");
  EXPECT_EQ(obs::JsonInt(-42), "-42");
  EXPECT_EQ(obs::JsonIntArray({1, 2, 3}), "[1,2,3]");
  EXPECT_EQ(obs::JsonIntArray({}), "[]");
  // Doubles round-trip exactly through the emitted representation.
  for (double v : {0.0, 1.5, 1.0 / 3.0, 42782.048998860795, -1e-9, 1e300}) {
    const std::string s = obs::JsonDouble(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

// Bench records carry case names and SQL text verbatim; a tab, CR or other
// control character must come out escaped, or BENCH_*.json is invalid JSON.
TEST(BenchJsonTest, ControlCharactersInNamesAreEscaped) {
  const std::string name = "q1\tfilter\r\x01";
  const std::string sql = "SELECT *\tFROM t\r\nWHERE a = 1";
  const std::filesystem::path dir = testing::TempDir() + "/bench_json_escaping";
  std::filesystem::create_directories(dir);
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  bench::BenchJson bench("ctl");
  bench.Add(name, {{"sql", obs::JsonString(sql)}});
  bench.Write();
  std::filesystem::current_path(cwd);

  std::ifstream in(dir / "BENCH_ctl.json");
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove_all(dir);
  const std::string json = text.str();
  ASSERT_FALSE(json.empty());
  for (size_t i = 0; i + 1 < json.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(json[i]), 0x20) << "raw control byte at " << i;
  }
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue* records = parsed->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->array().size(), 1u);
  EXPECT_EQ(records->array()[0].StringOr("case", ""), name);
  EXPECT_EQ(records->array()[0].StringOr("sql", ""), sql);
}

// Bench records' "telemetry" object: keys, their order and the number
// formats are a file format that downstream diffs read. The golden strings
// were produced by the serializer that listed every field by hand, before
// kSearchTelemetryFields (search.h) replaced it.
TEST(BenchJsonTest, TelemetryJsonMatchesGolden) {
  SearchTelemetry t;
  t.widen_considered = 101;
  t.widen_accepted = 7;
  t.jump_considered = 202;
  t.jump_accepted = 3;
  t.narrow_considered = 33;
  t.narrow_accepted = 1;
  t.migrate_considered = 44;
  t.migrate_accepted = 2;
  t.capacity_rejected = 5;
  t.movement_rejected = 6;
  t.full_evals = 9;
  t.delta_evals = 400;
  t.used_full_striping_fallback = true;
  t.used_incremental_migration = false;
  t.timed_out = true;
  t.cost_trajectory = {1234.5678901, 1000, 0.000123456789};
  t.statements = 22;
  t.subplans = 60;
  t.distinct_signatures = 12;
  EXPECT_EQ(bench::TelemetryJson(t),
            "{\"widen_considered\":101,\"widen_accepted\":7,"
            "\"jump_considered\":202,\"jump_accepted\":3,"
            "\"narrow_considered\":33,\"narrow_accepted\":1,"
            "\"migrate_considered\":44,\"migrate_accepted\":2,"
            "\"capacity_rejected\":5,\"movement_rejected\":6,"
            "\"full_evals\":9,\"delta_evals\":400,"
            "\"used_full_striping_fallback\":true,"
            "\"used_incremental_migration\":false,"
            "\"statements\":22,\"subplans\":60,\"distinct_signatures\":12,"
            "\"cost_trajectory\":[1234.57,1000,0.000123457]}");

  SearchTelemetry flags;
  flags.used_incremental_migration = true;
  EXPECT_EQ(bench::TelemetryJson(flags),
            "{\"widen_considered\":0,\"widen_accepted\":0,"
            "\"jump_considered\":0,\"jump_accepted\":0,"
            "\"narrow_considered\":0,\"narrow_accepted\":0,"
            "\"migrate_considered\":0,\"migrate_accepted\":0,"
            "\"capacity_rejected\":0,\"movement_rejected\":0,"
            "\"full_evals\":0,\"delta_evals\":0,"
            "\"used_full_striping_fallback\":false,"
            "\"used_incremental_migration\":true,"
            "\"statements\":0,\"subplans\":0,\"distinct_signatures\":0,"
            "\"cost_trajectory\":[]}");
}

TEST(JournalTest, AppendIsThreadSafeAndCounts) {
  EventJournal journal;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Append("tick", {{"t", obs::JsonInt(t)}});
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(journal.event_count(), 4 * kPerThread);
}

}  // namespace
}  // namespace dblayout
