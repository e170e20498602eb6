// Search-identity golden: TS-GREEDY runs over the benchmark workloads with
// an in-memory decision journal, hashed and compared against
// tests/testdata/search_digests.txt. The journal holds every candidate's
// exact score, every reject with its reason and every accept/reject
// decision, so any change to enumeration, pruning, scoring arithmetic or
// tie-breaking shows up as a digest mismatch; the result's cost and layout
// matrix are recorded as hex floats next to it. Every case runs at 1 and 4
// scoring threads against the same golden lines, and again at both without
// a journal: that search folds only the candidates whose bound may still
// win, and must give the same result and row lines, trajectory and move
// counts as the journaled one, which folds every candidate.
//
// Regenerate (only when a search change is intended):
//   SEARCH_DIGEST_UPDATE_GOLDEN=1 build/tests/dblayout_tests --gtest_filter='SearchDigestTest.*'

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "benchdata/sales.h"
#include "benchdata/tpch.h"
#include "layout/search.h"
#include "obs/journal.h"
#include "tests/golden_test_util.h"
#include "workload/analyzer.h"

namespace dblayout {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string GoldenPath() {
  return std::string(DBLAYOUT_TESTDATA_DIR) + "/search_digests.txt";
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// One search run rendered as golden lines, plus its journal for the
/// coverage checks and its telemetry: the cost trajectory and the
/// considered/accepted counts per move kind.
struct Rendered {
  std::vector<std::string> lines;
  std::string journal;
  std::string telemetry;
};

/// Runs the search at `threads`, with an in-memory journal when `journaled`
/// (which folds every candidate exactly) and without one otherwise (which
/// folds only the candidates whose bound may still win). Only a journaled
/// run renders the "journal" line.
Rendered RunSearch(const std::string& name, const Database& db,
                   const DiskFleet& fleet, const WorkloadProfile& profile,
                   const ResolvedConstraints& rc, int threads, bool journaled) {
  obs::EventJournal journal;
  SearchOptions options;
  options.num_threads = threads;
  if (journaled) options.journal = &journal;
  Result<SearchResult> r = TsGreedySearch(db, fleet, options).Run(profile, rc);
  EXPECT_TRUE(r.ok()) << name << ": " << r.status().ToString();
  Rendered out;
  if (!r.ok()) return out;
  if (journaled) {
    out.journal = journal.Serialize();
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(testutil::Fnv1a(out.journal)));
    out.lines.push_back(name + " journal " + digest);
  }
  out.lines.push_back(name + " result cost=" + Hex(r->cost) +
                      " iterations=" + std::to_string(r->greedy_iterations) +
                      " layouts_evaluated=" + std::to_string(r->layouts_evaluated) +
                      " delta_evals=" + std::to_string(r->telemetry.delta_evals));
  for (int i = 0; i < r->layout.num_objects(); ++i) {
    std::string row = name + " row " + std::to_string(i);
    for (int j = 0; j < r->layout.num_disks(); ++j) row += " " + Hex(r->layout.x(i, j));
    out.lines.push_back(std::move(row));
  }
  const SearchTelemetry& t = r->telemetry;
  out.telemetry = "trajectory";
  for (double c : t.cost_trajectory) out.telemetry += " " + Hex(c);
  for (const auto& [kind, considered, accepted] :
       {std::tuple{"widen", t.widen_considered, t.widen_accepted},
        std::tuple{"jump", t.jump_considered, t.jump_accepted},
        std::tuple{"narrow", t.narrow_considered, t.narrow_accepted},
        std::tuple{"migrate", t.migrate_considered, t.migrate_accepted}}) {
    out.telemetry += std::string(" ") + kind + "=" + std::to_string(considered) + "/" +
                     std::to_string(accepted);
  }
  return out;
}

/// Runs the case with a journal at 1 and 4 threads and requires identical
/// renderings, and compares them with the golden lines prefixed
/// "<name> ". Then runs it without a journal at 1 and 4 threads: the
/// result and row lines must equal the same golden lines, and the
/// trajectory and move counts the journaled run's. With
/// SEARCH_DIGEST_UPDATE_GOLDEN set, rewrites this case's lines instead.
/// Returns the 1-thread journal.
std::string CheckCase(const std::string& name, const Database& db,
                      const DiskFleet& fleet, const WorkloadProfile& profile,
                      const ResolvedConstraints& rc) {
  const Rendered one = RunSearch(name, db, fleet, profile, rc, 1, true);
  const Rendered four = RunSearch(name, db, fleet, profile, rc, 4, true);
  EXPECT_EQ(one.lines, four.lines) << name << ": 1 vs 4 scoring threads";
  EXPECT_EQ(one.telemetry, four.telemetry) << name << ": 1 vs 4 scoring threads";

  const std::string prefix = name + " ";
  std::vector<std::string> golden = ReadLines(GoldenPath());
  if (std::getenv("SEARCH_DIGEST_UPDATE_GOLDEN") != nullptr) {
    std::vector<std::string> kept;
    for (const std::string& line : golden) {
      if (line.compare(0, prefix.size(), prefix) != 0) kept.push_back(line);
    }
    kept.insert(kept.end(), one.lines.begin(), one.lines.end());
    std::ofstream out(GoldenPath());
    for (const std::string& line : kept) out << line << '\n';
    EXPECT_TRUE(out.good()) << "failed to regenerate " << GoldenPath();
    return one.journal;
  }

  std::vector<std::string> expected;
  for (const std::string& line : golden) {
    if (line.compare(0, prefix.size(), prefix) == 0) expected.push_back(line);
  }
  EXPECT_EQ(expected.size(), one.lines.size())
      << "golden " << GoldenPath() << " has " << expected.size() << " " << name
      << " lines (run with SEARCH_DIGEST_UPDATE_GOLDEN=1 to create)";
  for (size_t i = 0; i < std::min(expected.size(), one.lines.size()); ++i) {
    EXPECT_EQ(expected[i], one.lines[i]) << "search changed for " << name;
  }

  // Unjournaled: the golden lines after the journal line.
  const std::vector<std::string> unjournaled_golden(
      expected.begin() + std::min<std::ptrdiff_t>(1, std::ssize(expected)),
      expected.end());
  for (const int threads : {1, 4}) {
    const Rendered bounded = RunSearch(name, db, fleet, profile, rc, threads, false);
    EXPECT_EQ(unjournaled_golden, bounded.lines)
        << name << ": unjournaled search at " << threads << " threads";
    EXPECT_EQ(one.telemetry, bounded.telemetry)
        << name << ": unjournaled search at " << threads << " threads";
  }
  return one.journal;
}

WorkloadProfile Analyze(const Database& db, const Result<Workload>& wl) {
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();
  Result<WorkloadProfile> profile = AnalyzeWorkload(db, wl.value());
  EXPECT_TRUE(profile.ok()) << profile.status().ToString();
  return std::move(profile).value();
}

ResolvedConstraints Resolve(const Constraints& c, const Database& db,
                            const DiskFleet& fleet) {
  Result<ResolvedConstraints> rc = ResolveConstraints(c, db, fleet);
  EXPECT_TRUE(rc.ok()) << rc.status().ToString();
  return std::move(rc).value();
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Journal lines containing every one of `needles`.
int CountLines(const std::string& journal, const std::vector<std::string>& needles) {
  int count = 0;
  size_t pos = 0;
  while (pos < journal.size()) {
    size_t end = journal.find('\n', pos);
    if (end == std::string::npos) end = journal.size();
    const std::string line = journal.substr(pos, end - pos);
    count += std::all_of(needles.begin(), needles.end(),
                         [&](const std::string& n) { return Contains(line, n); })
                 ? 1
                 : 0;
    pos = end + 1;
  }
  return count;
}

TEST(SearchDigestTest, Tpch22) {
  const Database db = benchdata::MakeTpchDatabase();
  const DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42);
  const WorkloadProfile profile = Analyze(db, benchdata::MakeTpch22Workload(db, 1));
  CheckCase("tpch22", db, fleet, profile, Resolve({}, db, fleet));
}

TEST(SearchDigestTest, Sales45) {
  const Database db = benchdata::MakeSalesDatabase();
  const DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42);
  const WorkloadProfile profile =
      Analyze(db, benchdata::MakeSales45Workload(db, 11));
  CheckCase("sales45", db, fleet, profile, Resolve({}, db, fleet));
}

TEST(SearchDigestTest, Qgen88OnTpch1g4) {
  const Database db = benchdata::MakeTpchDatabase(1.0, 4);
  const DiskFleet fleet = DiskFleet::Heterogeneous(16, 0.3, 42);
  const WorkloadProfile profile =
      Analyze(db, benchdata::MakeTpchQgenWorkload(db, 88, 4, 3));
  CheckCase("qgen88", db, fleet, profile, Resolve({}, db, fleet));
}

// Co-location, an availability requirement on RAID drives, and a movement
// budget from a full-striping current layout small enough that the search
// switches to migration and the budget rejects candidates.
TEST(SearchDigestTest, ConstrainedTpch22) {
  const Database db = benchdata::MakeTpchDatabase();
  DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42);
  for (int j = 4; j < 8; ++j) {
    fleet.disk(j).avail = j < 6 ? Availability::kMirroring : Availability::kParity;
  }
  const WorkloadProfile profile = Analyze(db, benchdata::MakeTpch22Workload(db, 1));
  const Layout current =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  Constraints c;
  c.co_located = {{"part", "partsupp"}};
  c.avail_requirements = {{"orders", Availability::kMirroring}};
  c.max_movement_fraction = 0.3;
  c.current_layout = &current;
  const std::string journal =
      CheckCase("constrained", db, fleet, profile, Resolve(c, db, fleet));
  EXPECT_TRUE(Contains(journal, R"("phase":"migrate")"));
  EXPECT_TRUE(Contains(journal, R"("reason":"movement_budget")"));
}

// Drives small enough that widening moves overflow them.
TEST(SearchDigestTest, TightFleetTpch22) {
  const Database db = benchdata::MakeTpchDatabase();
  const DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42, 0.25);
  const WorkloadProfile profile = Analyze(db, benchdata::MakeTpch22Workload(db, 1));
  const std::string journal =
      CheckCase("tight", db, fleet, profile, Resolve({}, db, fleet));
  EXPECT_TRUE(Contains(journal, R"("reason":"capacity")"));
}

// A random current layout on small drives under a movement budget: the
// migration phase accepts steps and rejects others for both reasons.
TEST(SearchDigestTest, MigrateTightTpch22) {
  const Database db = benchdata::MakeTpchDatabase();
  const DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42, 0.3);
  const WorkloadProfile profile = Analyze(db, benchdata::MakeTpch22Workload(db, 1));
  Rng rng(5);
  Result<Layout> current = RandomLayout(db, fleet, &rng);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  Constraints c;
  c.max_movement_fraction = 0.2;
  c.current_layout = &current.value();
  const std::string journal =
      CheckCase("migrate_tight", db, fleet, profile, Resolve(c, db, fleet));
  EXPECT_GT(CountLines(journal, {R"("ev":"decision")", R"("move":"migrate")"}), 0);
  EXPECT_GT(CountLines(journal, {R"("ev":"reject")", R"("move":"migrate")",
                                 R"("reason":"capacity")"}),
            0);
  EXPECT_GT(CountLines(journal, {R"("ev":"reject")", R"("move":"migrate")",
                                 R"("reason":"movement_budget")"}),
            0);
}

// A random current layout on small drives under a tight movement budget:
// both phases meet candidates that fail the capacity check and the movement
// budget at once, so the journaled reason pins each phase's check order
// (greedy: capacity first; migration: movement first).
TEST(SearchDigestTest, BothFailTpch22) {
  const Database db = benchdata::MakeTpchDatabase();
  const DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42, 0.25);
  const WorkloadProfile profile = Analyze(db, benchdata::MakeTpch22Workload(db, 1));
  Rng rng(1);
  Result<Layout> current = RandomLayout(db, fleet, &rng);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  Constraints c;
  c.max_movement_fraction = 0.1;
  c.current_layout = &current.value();
  const std::string journal =
      CheckCase("both_fail", db, fleet, profile, Resolve(c, db, fleet));
  const std::string reject = R"("ev":"reject")";
  const std::string migrate = R"("move":"migrate")";
  const std::string capacity = R"("reason":"capacity")";
  const std::string movement = R"("reason":"movement_budget")";
  EXPECT_GT(CountLines(journal, {reject, capacity}) -
                CountLines(journal, {reject, migrate, capacity}),
            0);
  EXPECT_GT(CountLines(journal, {reject, movement}) -
                CountLines(journal, {reject, migrate, movement}),
            0);
  EXPECT_GT(CountLines(journal, {reject, migrate, movement}), 0);
}

// A two-member co-location group on small drives: the greedy capacity check
// sums the group's members on each drive.
TEST(SearchDigestTest, TightColocatedTpch22) {
  const Database db = benchdata::MakeTpchDatabase();
  const DiskFleet fleet = DiskFleet::Heterogeneous(8, 0.3, 42, 0.25);
  const WorkloadProfile profile = Analyze(db, benchdata::MakeTpch22Workload(db, 1));
  Constraints c;
  c.co_located = {{"part", "partsupp"}};
  const std::string journal =
      CheckCase("tight_colocated", db, fleet, profile, Resolve(c, db, fleet));
  EXPECT_GT(CountLines(journal, {R"("ev":"reject")", R"("group":[4,5])",
                                 R"("reason":"capacity")"}),
            0);
}

}  // namespace
}  // namespace dblayout
