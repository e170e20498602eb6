// The service folds each window into its compressed profile with
// ProfileCompressor instead of re-compressing the whole profile. These tests
// hold the fold to CompressProfile over the concatenation of every window,
// bit for bit, across a checkpoint restore.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "benchdata/tpch.h"
#include "common/rng.h"
#include "service/checkpoint.h"
#include "service/supervisor.h"
#include "workload/analyzer.h"

namespace dblayout {
namespace {

struct Ingested {
  std::string sql;
  double weight = 1.0;
  int stream = 0;
};

/// Statements, order, sql, stream, sub-plans and weights, every bit.
void ExpectSameProfile(const WorkloadProfile& got, const WorkloadProfile& want) {
  EXPECT_EQ(got.num_objects, want.num_objects);
  ASSERT_EQ(got.statements.size(), want.statements.size());
  for (size_t i = 0; i < got.statements.size(); ++i) {
    const StatementProfile& g = got.statements[i];
    const StatementProfile& w = want.statements[i];
    SCOPED_TRACE("statement " + std::to_string(i) + ": " + w.sql);
    EXPECT_EQ(g.sql, w.sql);
    EXPECT_EQ(g.stream, w.stream);
    EXPECT_EQ(std::bit_cast<uint64_t>(g.weight), std::bit_cast<uint64_t>(w.weight));
    ASSERT_EQ(g.subplans.size(), w.subplans.size());
    for (size_t k = 0; k < g.subplans.size(); ++k) {
      const auto& ga = g.subplans[k].accesses;
      const auto& wa = w.subplans[k].accesses;
      ASSERT_EQ(ga.size(), wa.size());
      for (size_t a = 0; a < ga.size(); ++a) {
        EXPECT_EQ(ga[a].object_id, wa[a].object_id);
        EXPECT_EQ(std::bit_cast<uint64_t>(ga[a].blocks),
                  std::bit_cast<uint64_t>(wa[a].blocks));
        EXPECT_EQ(ga[a].is_write, wa[a].is_write);
        EXPECT_EQ(ga[a].random, wa[a].random);
        EXPECT_EQ(ga[a].read_modify_write, wa[a].read_modify_write);
      }
    }
  }
}

/// CompressProfile over `statements` analyzed as one workload.
WorkloadProfile CompressedReference(const Database& db,
                                    const std::vector<Ingested>& statements) {
  Workload all("all");
  for (const Ingested& s : statements) {
    EXPECT_TRUE(all.Add(s.sql, s.weight, s.stream).ok()) << s.sql;
  }
  auto profile = AnalyzeWorkload(db, all);
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return CompressProfile(*profile);
}

/// Windows of TPC-H statements: the same texts recur within and across
/// windows (repeated signatures) with weights whose sums round, plus
/// stream-tagged statements and one with a negative stream tag.
std::vector<std::vector<Ingested>> Windows() {
  Rng rng(5);
  std::vector<std::vector<Ingested>> windows;
  for (int w = 0; w < 6; ++w) {
    std::vector<Ingested> window;
    for (int k = 0; k < 8; ++k) {
      const int q = static_cast<int>(rng.UniformInt(1, 6));
      Rng text_rng(static_cast<uint64_t>(q));  // one text per query number
      window.push_back({benchdata::TpchQueryText(q, &text_rng), 0.1 * (k + 1) + 0.01 * w,
                        k == 3 ? 2 + w % 2 : (k == 6 ? -1 : 0)});
    }
    windows.push_back(std::move(window));
  }
  return windows;
}

TEST(ProfileFoldTest, FoldedWindowsEqualCompressProfileOfTheirConcatenation) {
  const Database db = benchdata::MakeTpchDatabase(0.1);
  WorkloadProfile folded;
  folded.num_objects = db.Objects().size();
  ProfileCompressor compressor;
  std::vector<Ingested> all;
  for (const std::vector<Ingested>& window : Windows()) {
    Workload wl("window");
    for (const Ingested& s : window) ASSERT_TRUE(wl.Add(s.sql, s.weight, s.stream).ok());
    auto profile = AnalyzeWorkload(db, wl);
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();
    for (const StatementProfile& s : profile->statements) compressor.Fold(s, &folded);
    all.insert(all.end(), window.begin(), window.end());
    ExpectSameProfile(folded, CompressedReference(db, all));
  }
  // Repeats collapsed, yet every stream-tagged statement stayed individual.
  int tagged = 0;
  for (const StatementProfile& s : folded.statements) tagged += s.stream > 0;
  EXPECT_EQ(tagged, 6);
  EXPECT_LT(folded.statements.size(), all.size() - 6);
}

/// The same through the service: windows folded by a session, a checkpoint
/// round trip partway, then more windows on both the original and the
/// restored supervisor. Stream tags reach the session through a checkpoint's
/// pending statements, the one input that carries them.
TEST(ProfileFoldTest, SessionFoldMatchesCompressProfileAcrossRestore) {
  const Database db = benchdata::MakeTpchDatabase(0.1);
  const DiskFleet fleet = DiskFleet::Uniform(4);
  ServiceConfig config;
  config.window_size = 8;
  config.max_profile_statements = 1000;
  config.seed = 3;
  const std::vector<std::vector<Ingested>> windows = Windows();

  // Start from a checkpoint whose open window holds the first window's
  // first seven statements, stream tags included.
  Supervisor blank(db, fleet, config, nullptr);
  blank.GetOrCreateSession(1);
  ServiceSnapshot start = blank.Snapshot();
  for (size_t k = 0; k + 1 < windows[0].size(); ++k) {
    const Ingested& s = windows[0][k];
    start.sessions[0].pending.push_back(StatementSnapshot{s.sql, s.weight, s.stream});
    ++start.sessions[0].statements_ingested;
  }
  auto original = Supervisor::Restore(start, db, fleet, config, nullptr);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  std::vector<Ingested> all(windows[0].begin(), windows[0].end() - 1);

  // Statements after the pending ones lose their tags: OnStatement has none.
  auto feed = [&all](Supervisor* supervisor, const std::vector<Ingested>& statements) {
    for (const Ingested& s : statements) {
      ASSERT_TRUE(supervisor->OnStatement(1, s.sql, s.weight).ok());
      all.push_back({s.sql, s.weight, 0});
    }
  };
  feed(original->get(), {windows[0].back()});
  feed(original->get(), windows[1]);
  feed(original->get(), windows[2]);
  const Session* session = (*original)->FindSession(1);
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->mode(), SessionMode::kActive);
  ExpectSameProfile(session->profile(), CompressedReference(db, all));

  const std::string checkpoint = SerializeCheckpoint((*original)->Snapshot());
  auto parsed = ParseCheckpoint(checkpoint);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto restored = Supervisor::Restore(*parsed, db, fleet, config, nullptr);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SerializeCheckpoint((*restored)->Snapshot()), checkpoint);

  const std::vector<Ingested> before_rest = all;
  for (size_t w = 3; w < windows.size(); ++w) feed(original->get(), windows[w]);
  const std::vector<Ingested> expected = all;
  all = before_rest;
  for (size_t w = 3; w < windows.size(); ++w) feed(restored->get(), windows[w]);
  ASSERT_EQ(all.size(), expected.size());

  const WorkloadProfile reference = CompressedReference(db, expected);
  ExpectSameProfile((*original)->FindSession(1)->profile(), reference);
  ExpectSameProfile((*restored)->FindSession(1)->profile(), reference);
  EXPECT_EQ(SerializeCheckpoint((*restored)->Snapshot()),
            SerializeCheckpoint((*original)->Snapshot()));
}

}  // namespace
}  // namespace dblayout
