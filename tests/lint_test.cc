// Tests for the layout lint subsystem (src/lint/): one positive (rule
// fires) and one negative (rule stays quiet) fixture per built-in rule,
// golden-file output for the text renderer, and structural checks that the
// SARIF rendering is well-formed JSON carrying the right rule ids and
// logical locations.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "lint/lint.h"
#include "sql/ddl.h"

namespace dblayout {
namespace {

Column IntKey(const std::string& name, int64_t distinct) {
  Column c;
  c.name = name;
  c.type = ColumnType::kInt;
  c.distinct_count = distinct;
  c.min_value = 1;
  c.max_value = static_cast<double>(distinct);
  return c;
}

/// Four tables: two big joinable ones, a small one, and one no workload
/// statement ever touches (the schema-object-unreferenced positive).
Database LintDb() {
  Database db("lintdb");
  for (const char* name : {"big_a", "big_b", "small_c", "dead_d"}) {
    Table t;
    const bool big = std::string(name).rfind("big", 0) == 0;
    t.name = name;
    t.row_count = big ? 800'000 : 20'000;
    t.columns = {IntKey(std::string(name) + "_k", t.row_count)};
    Column pay;
    pay.name = std::string(name) + "_p";
    pay.type = ColumnType::kChar;
    pay.declared_length = 100;
    t.columns.push_back(pay);
    t.clustered_key = {t.columns[0].name};
    EXPECT_TRUE(db.AddTable(t).ok());
  }
  return db;
}

Workload JoinWorkload() {
  Workload wl("lint-wl");
  EXPECT_TRUE(
      wl.Add("SELECT COUNT(*) FROM big_a, big_b WHERE big_a_k = big_b_k", 4).ok());
  EXPECT_TRUE(wl.Add("SELECT COUNT(*) FROM small_c").ok());
  return wl;
}

LintReport RunLintOn(const LintInput& input, const LintRunner& runner) {
  auto report = runner.Run(input);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report.value());
}

LintReport RunLintOn(const LintInput& input, const LintOptions& options = {}) {
  return RunLintOn(input, LintRunner(options));
}

std::vector<Diagnostic> ById(const LintReport& report, const std::string& id) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule_id == id) out.push_back(d);
  }
  return out;
}

/// Pulls one rule out of the default set for direct Check() invocation (used
/// where the positive fixture needs a hand-corrupted context the runner
/// would never build itself).
std::unique_ptr<LintRule> TakeRule(const std::string& id) {
  auto rules = DefaultLintRules();
  for (auto& r : rules) {
    if (id == r->id()) return std::move(r);
  }
  ADD_FAILURE() << "no such rule: " << id;
  return nullptr;
}

// --- Workload rules --------------------------------------------------------

TEST(LintTest, WorkloadUnparsableFiresOnBadScript) {
  Database db = LintDb();
  std::vector<Workload::ScriptError> errors;
  const Workload wl = Workload::FromScriptLenient(
      "wl", "SELECT COUNT(*) FROM small_c;\nFROM FROM FROM;", &errors);
  ASSERT_EQ(errors.size(), 1u);
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.script_errors = &errors;
  const LintReport report = RunLintOn(input);
  const auto diags = ById(report, "workload-unparsable");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kError);
  EXPECT_NE(diags[0].message.find("FROM FROM FROM"), std::string::npos);
  EXPECT_FALSE(diags[0].fix_it.empty());
}

TEST(LintTest, WorkloadUnparsableQuietOnCleanScript) {
  Database db = LintDb();
  std::vector<Workload::ScriptError> errors;
  const Workload wl = Workload::FromScriptLenient(
      "wl", "SELECT COUNT(*) FROM small_c;", &errors);
  EXPECT_TRUE(errors.empty());
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.script_errors = &errors;
  EXPECT_TRUE(ById(RunLintOn(input), "workload-unparsable").empty());
}

TEST(LintTest, WorkloadUnplannableFiresOnSchemaMismatch) {
  Database db = LintDb();
  Workload wl("wl");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM nosuch_t").ok());
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM small_c").ok());
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  const LintReport report = RunLintOn(input);
  const auto diags = ById(report, "workload-unplannable");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("nosuch_t"), std::string::npos);
  // The plannable statement still analyzed: small_c is not "unreferenced".
  for (const auto& d : ById(report, "schema-object-unreferenced")) {
    EXPECT_TRUE(d.objects.empty() || d.objects[0] != "small_c");
  }
}

TEST(LintTest, WorkloadUnplannableQuietWhenAllBind) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  EXPECT_TRUE(ById(RunLintOn(input), "workload-unplannable").empty());
}

TEST(LintTest, WorkloadZeroWeightFiresOnWeightlessStatement) {
  // Workload::Add rejects non-positive weights, so the positive fixture
  // drives the rule directly with a hand-built profile.
  Database db = LintDb();
  LintInput input;
  input.db = &db;
  const LintOptions options;
  WorkloadProfile profile;
  profile.num_objects = db.Objects().size();
  StatementProfile sp;
  sp.sql = "SELECT COUNT(*) FROM small_c";
  sp.weight = 0;
  profile.statements.push_back(std::move(sp));
  LintContext ctx{input, options, std::move(profile), {}, WeightedGraph(0),
                  false, {}};
  const auto rule = TakeRule("workload-zero-weight");
  std::vector<Diagnostic> out;
  rule->Check(ctx, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].severity, LintSeverity::kWarning);
}

TEST(LintTest, WorkloadZeroWeightQuietOnWeightedWorkload) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  EXPECT_TRUE(ById(RunLintOn(input), "workload-zero-weight").empty());
}

// --- Schema rules ----------------------------------------------------------

TEST(LintTest, UnreferencedObjectFiresOnDeadTable) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  const auto diags = ById(RunLintOn(input), "schema-object-unreferenced");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].objects, std::vector<std::string>{"dead_d"});
}

TEST(LintTest, UnreferencedObjectQuietWhenAllTouched) {
  Database db = LintDb();
  Workload wl = JoinWorkload();
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM dead_d").ok());
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  EXPECT_TRUE(ById(RunLintOn(input), "schema-object-unreferenced").empty());
}

// --- Access-graph rules ----------------------------------------------------

TEST(LintTest, GraphStructureFiresOnCorruptGraph) {
  Database db = LintDb();
  LintInput input;
  input.db = &db;
  const LintOptions options;
  WeightedGraph graph(2);
  graph.AddNodeWeight(0, -5);  // negative block count: impossible
  LintContext ctx{input, options, WorkloadProfile{}, {}, graph, true, {}};
  const auto rule = TakeRule("graph-structure");
  std::vector<Diagnostic> out;
  rule->Check(ctx, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].severity, LintSeverity::kError);
}

TEST(LintTest, GraphStructureQuietOnRealWorkload) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  EXPECT_TRUE(ById(RunLintOn(input), "graph-structure").empty());
}

TEST(LintTest, NoCoaccessFiresOnPointQueryWorkload) {
  Database db = LintDb();
  Workload wl("wl");
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM big_a").ok());
  ASSERT_TRUE(wl.Add("SELECT COUNT(*) FROM big_b").ok());
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  const auto diags = ById(RunLintOn(input), "graph-no-coaccess");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kNote);
}

TEST(LintTest, NoCoaccessQuietOnJoinWorkload) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  EXPECT_TRUE(ById(RunLintOn(input), "graph-no-coaccess").empty());
}

TEST(LintTest, CoaccessBoundFiresOnOverweightEdge) {
  Database db = LintDb();
  LintInput input;
  input.db = &db;
  const LintOptions options;
  WeightedGraph graph(2);
  graph.AddNodeWeight(0, 10);
  graph.AddNodeWeight(1, 10);
  graph.AddEdgeWeight(0, 1, 100);  // > 10 + 10
  LintContext ctx{input, options, WorkloadProfile{}, {}, graph, true, {}};
  const auto rule = TakeRule("graph-coaccess-bound");
  std::vector<Diagnostic> out;
  rule->Check(ctx, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].objects.size(), 2u);
}

TEST(LintTest, CoaccessBoundQuietOnRealWorkload) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  EXPECT_TRUE(ById(RunLintOn(input), "graph-coaccess-bound").empty());
}

// --- Fleet rules -----------------------------------------------------------

TEST(LintTest, FleetCapacityFiresOnUndersizedFleet) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  const DiskFleet fleet = DiskFleet::Uniform(2, /*capacity_gb=*/0.001);
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  const auto diags = ById(RunLintOn(input), "fleet-capacity");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kError);
}

TEST(LintTest, FleetCapacityQuietOnAdequateFleet) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  const DiskFleet fleet = DiskFleet::Uniform(6);
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  EXPECT_TRUE(ById(RunLintOn(input), "fleet-capacity").empty());
}

// --- Constraint rules ------------------------------------------------------

TEST(LintTest, UnknownConstraintObjectFires) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  Constraints constraints;
  constraints.co_located.emplace_back("big_a", "ghost_t");
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.constraints = &constraints;
  const auto diags = ById(RunLintOn(input), "constraint-unknown-object");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].objects, std::vector<std::string>{"ghost_t"});
}

TEST(LintTest, UnknownConstraintObjectQuietOnValidNames) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  Constraints constraints;
  constraints.co_located.emplace_back("big_a", "big_b");
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.constraints = &constraints;
  EXPECT_TRUE(ById(RunLintOn(input), "constraint-unknown-object").empty());
}

TEST(LintTest, AvailabilityFiresWhenNoDriveQualifies) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);  // all drives avail=None
  Constraints constraints;
  constraints.avail_requirements.emplace_back("big_a", Availability::kParity);
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.constraints = &constraints;
  const auto diags = ById(RunLintOn(input), "constraint-availability");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].objects, std::vector<std::string>{"big_a"});
}

TEST(LintTest, AvailabilityQuietWhenSatisfiable) {
  Database db = LintDb();
  auto fleet = DiskFleet::FromSpec(
      "d1 6 9.0 40 32 none\n"
      "d2 6 9.0 40 32 parity\n");
  ASSERT_TRUE(fleet.ok());
  Constraints constraints;
  constraints.avail_requirements.emplace_back("small_c", Availability::kParity);
  LintInput input;
  input.db = &db;
  input.fleet = &fleet.value();
  input.constraints = &constraints;
  EXPECT_TRUE(ById(RunLintOn(input), "constraint-availability").empty());
}

TEST(LintTest, ColocationCapacityFiresOnUndersizedEligibleDrives) {
  Database db = LintDb();
  auto fleet = DiskFleet::FromSpec(
      "d1 6 9.0 40 32 none\n"
      "d2 0.01 9.0 40 32 mirroring\n");  // 0.01 GB mirrored drive
  ASSERT_TRUE(fleet.ok());
  Constraints constraints;
  constraints.co_located.emplace_back("big_a", "big_b");
  constraints.avail_requirements.emplace_back("big_a", Availability::kMirroring);
  LintInput input;
  input.db = &db;
  input.fleet = &fleet.value();
  input.constraints = &constraints;
  const auto diags = ById(RunLintOn(input), "constraint-colocation-capacity");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("big_a"), std::string::npos);
  EXPECT_NE(diags[0].message.find("big_b"), std::string::npos);
  EXPECT_FALSE(diags[0].fix_it.empty());
}

TEST(LintTest, ColocationCapacityQuietWhenDrivesSuffice) {
  Database db = LintDb();
  auto fleet = DiskFleet::FromSpec(
      "d1 6 9.0 40 32 none\n"
      "d2 6 9.0 40 32 mirroring\n");
  ASSERT_TRUE(fleet.ok());
  Constraints constraints;
  constraints.co_located.emplace_back("big_a", "big_b");
  constraints.avail_requirements.emplace_back("big_a", Availability::kMirroring);
  LintInput input;
  input.db = &db;
  input.fleet = &fleet.value();
  input.constraints = &constraints;
  EXPECT_TRUE(ById(RunLintOn(input), "constraint-colocation-capacity").empty());
}

TEST(LintTest, MovementBoundFiresWithoutCurrentLayout) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  Constraints constraints;
  constraints.max_movement_fraction = 0.5;  // but no current_layout
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.constraints = &constraints;
  const auto diags = ById(RunLintOn(input), "constraint-movement-bound");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kError);
}

TEST(LintTest, MovementBoundQuietWithBaseline) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout current =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  Constraints constraints;
  constraints.max_movement_fraction = 0.5;
  constraints.current_layout = &current;
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.constraints = &constraints;
  EXPECT_TRUE(ById(RunLintOn(input), "constraint-movement-bound").empty());
}

TEST(LintTest, MovementBoundAllowsBudgetExactlyEqualToForcedMovement) {
  Database db = LintDb();
  DiskFleet fleet = DiskFleet::Uniform(2);
  fleet.disk(1).avail = Availability::kMirroring;
  Layout current(static_cast<int>(db.Objects().size()), fleet.num_disks());
  for (int i = 0; i < current.num_objects(); ++i) current.AssignEqual(i, {0});
  const int big_a = db.ObjectIdOfTable("big_a").value();
  Constraints constraints;
  constraints.avail_requirements.emplace_back("big_a", Availability::kMirroring);
  // Repairing the availability violation forces moving every big_a block; a
  // budget of *exactly* that many blocks must be feasible (regression: the
  // feasibility check used to reject exact equality when the fraction-times-
  // total budget rounded a hair below the forced block count).
  constraints.max_movement_fraction =
      static_cast<double>(db.ObjectSizes()[static_cast<size_t>(big_a)]) /
      static_cast<double>(db.TotalBlocks());
  constraints.current_layout = &current;
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.constraints = &constraints;
  EXPECT_TRUE(ById(RunLintOn(input), "constraint-movement-bound").empty());
}

TEST(LintTest, MovementBoundFiresJustBelowForcedMovement) {
  Database db = LintDb();
  DiskFleet fleet = DiskFleet::Uniform(2);
  fleet.disk(1).avail = Availability::kMirroring;
  Layout current(static_cast<int>(db.Objects().size()), fleet.num_disks());
  for (int i = 0; i < current.num_objects(); ++i) current.AssignEqual(i, {0});
  const int big_a = db.ObjectIdOfTable("big_a").value();
  Constraints constraints;
  constraints.avail_requirements.emplace_back("big_a", Availability::kMirroring);
  constraints.max_movement_fraction =
      0.9 * static_cast<double>(db.ObjectSizes()[static_cast<size_t>(big_a)]) /
      static_cast<double>(db.TotalBlocks());
  constraints.current_layout = &current;
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.constraints = &constraints;
  const auto diags = ById(RunLintOn(input), "constraint-movement-bound");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kError);
  EXPECT_EQ(diags[0].objects, std::vector<std::string>{"big_a"});
}

// --- Layout rules ----------------------------------------------------------

TEST(LintTest, LayoutInvalidFiresOnUnallocatedRows) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout zeros(static_cast<int>(db.Objects().size()), fleet.num_disks());
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.layout = &zeros;
  input.layout_label = "zeros.csv";
  const auto diags = ById(RunLintOn(input), "layout-invalid");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("zeros.csv"), std::string::npos);
}

TEST(LintTest, LayoutInvalidFiresOnDimensionMismatch) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout wrong(1, fleet.num_disks());
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.layout = &wrong;
  EXPECT_EQ(ById(RunLintOn(input), "layout-invalid").size(), 1u);
}

TEST(LintTest, LayoutInvalidQuietOnFullStriping) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout fs =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.layout = &fs;
  EXPECT_TRUE(ById(RunLintOn(input), "layout-invalid").empty());
}

std::string ReadExampleData(const std::string& file) {
  std::ifstream in(std::string(DBLAYOUT_TESTDATA_DIR) + "/../../examples/data/" + file);
  EXPECT_TRUE(in) << "missing example data " << file;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Lints examples/data's schema, workload and drives against the
/// lint/striped_coaccess.csv fixture with its first "0.2" replaced by
/// `fraction`, and returns the layout-rule diagnostics.
std::vector<Diagnostic> LayoutDiagnosticsOfStripedCoaccessWith(const std::string& fraction) {
  auto db = ParseSchemaScript("examples", ReadExampleData("schema.sql"));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  auto wl = Workload::FromScript("workload", ReadExampleData("workload.sql"));
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();
  auto fleet = DiskFleet::FromSpec(ReadExampleData("disks.txt"), "disks.txt");
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  std::string csv = ReadExampleData("lint/striped_coaccess.csv");
  const size_t at = csv.find("0.2");
  EXPECT_NE(at, std::string::npos);
  csv.replace(at, 3, fraction);
  std::vector<std::string> names;
  for (const DatabaseObject& o : db->Objects()) names.push_back(o.name);
  auto layout = Layout::FromCsv(csv, names, fleet.value());
  EXPECT_TRUE(layout.ok()) << layout.status().ToString();
  if (!db.ok() || !wl.ok() || !fleet.ok() || !layout.ok()) return {};
  LintInput input;
  input.db = &db.value();
  input.workload = &wl.value();
  input.fleet = &fleet.value();
  input.layout = &layout.value();
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : RunLintOn(input).diagnostics) {
    if (d.rule_id.rfind("layout-", 0) == 0) out.push_back(d);
  }
  return out;
}

// A NaN or huge fraction fails Definition 2's row checks: layout-invalid
// names it, and the other layout rules, which would apportion or compare
// the fractions, skip the layout.
TEST(LintTest, NanFractionIsOnlyLayoutInvalid) {
  const auto diags = LayoutDiagnosticsOfStripedCoaccessWith("nan");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, "layout-invalid");
  EXPECT_NE(diags[0].message.find("NaN"), std::string::npos) << diags[0].message;
}

TEST(LintTest, HugeFractionIsOnlyLayoutInvalid) {
  const auto diags = LayoutDiagnosticsOfStripedCoaccessWith("1e300");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, "layout-invalid");
  EXPECT_NE(diags[0].message.find("allocated fraction"), std::string::npos)
      << diags[0].message;
}

TEST(LintTest, LayoutInvalidChecksRowsWithoutAFleet) {
  Database db = LintDb();
  Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), DiskFleet::Uniform(4));
  layout.set_x(1, 2, std::nan(""));
  LintInput input;
  input.db = &db;
  input.layout = &layout;
  const LintReport report = RunLintOn(input);
  ASSERT_EQ(ById(report, "layout-invalid").size(), 1u);
  EXPECT_NE(ById(report, "layout-invalid")[0].message.find("object 1 has fraction NaN on disk 2"),
            std::string::npos);
  EXPECT_TRUE(ById(report, "layout-thin-stripe").empty());
}

TEST(LintTest, CoaccessSharedDiskFiresOnFullStriping) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout fs =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  input.layout = &fs;
  const auto diags = ById(RunLintOn(input), "layout-coaccess-shared-disk");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kWarning);
  EXPECT_EQ(diags[0].objects,
            (std::vector<std::string>{"big_a", "big_b"}));
  EXPECT_EQ(diags[0].disks.size(), 4u);  // every drive is shared
  EXPECT_FALSE(diags[0].fix_it.empty()) << "acceptance: fix-it required";
}

TEST(LintTest, CoaccessSharedDiskQuietOnDisjointPlacement) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  Layout layout(static_cast<int>(db.Objects().size()), fleet.num_disks());
  layout.AssignEqual(0, {0, 1});  // big_a
  layout.AssignEqual(1, {2, 3});  // big_b: disjoint from big_a
  layout.AssignEqual(2, {0, 1, 2, 3});
  layout.AssignEqual(3, {0, 1, 2, 3});
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  input.layout = &layout;
  EXPECT_TRUE(ById(RunLintOn(input), "layout-coaccess-shared-disk").empty());
}

TEST(LintTest, CapacityHeadroomFiresOnNearlyFullDrives) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  // Two drives sized so full striping fills each to ~95%.
  const double gb_per_drive =
      static_cast<double>(db.TotalBlocks()) * 65536.0 / 1e9 / 2 / 0.95;
  const DiskFleet fleet = DiskFleet::Uniform(2, gb_per_drive);
  const Layout fs =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  input.layout = &fs;
  const auto diags = ById(RunLintOn(input), "layout-capacity-headroom");
  EXPECT_EQ(diags.size(), 2u);  // both drives ~95% full
  EXPECT_TRUE(ById(RunLintOn(input), "fleet-capacity").empty());
}

TEST(LintTest, CapacityHeadroomQuietOnRoomyFleet) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout fs =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.layout = &fs;
  EXPECT_TRUE(ById(RunLintOn(input), "layout-capacity-headroom").empty());
}

TEST(LintTest, ThinStripeFiresOnSliverFraction) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  // big_a: almost everything on drive 0, a sub-block sliver on drive 1.
  layout.set_x(0, 0, 1 - 1e-4);
  layout.set_x(0, 1, 1e-4);
  layout.set_x(0, 2, 0);
  layout.set_x(0, 3, 0);
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.layout = &layout;
  const auto diags = ById(RunLintOn(input), "layout-thin-stripe");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].objects, std::vector<std::string>{"big_a"});
  EXPECT_EQ(diags[0].disks.size(), 1u);
}

TEST(LintTest, ThinStripeQuietOnFullStriping) {
  Database db = LintDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout fs =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  LintInput input;
  input.db = &db;
  input.fleet = &fleet;
  input.layout = &fs;
  EXPECT_TRUE(ById(RunLintOn(input), "layout-thin-stripe").empty());
}

TEST(LintTest, SinglePointOfFailureFiresOnHotObjectOnNonRedundantDrive) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  const DiskFleet fleet = DiskFleet::Uniform(4);  // every drive kNone
  Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  layout.AssignEqual(0, {0});  // big_a (~half the workload blocks) on D1 only
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  input.layout = &layout;
  const auto diags = ById(RunLintOn(input), "layout-single-point-of-failure");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kWarning);
  EXPECT_EQ(diags[0].objects, std::vector<std::string>{"big_a"});
  EXPECT_EQ(diags[0].disks, std::vector<std::string>{fleet.disk(0).name});
  EXPECT_FALSE(diags[0].fix_it.empty());
}

TEST(LintTest, SinglePointOfFailureQuietOnRedundantDrive) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  DiskFleet fleet = DiskFleet::Uniform(4);
  fleet.disk(0).avail = Availability::kMirroring;  // the pinned drive is safe
  Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  layout.AssignEqual(0, {0});
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  input.layout = &layout;
  EXPECT_TRUE(ById(RunLintOn(input), "layout-single-point-of-failure").empty());
}

TEST(LintTest, SinglePointOfFailureQuietWhenStriped) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  const Layout fs =  // every object wide: no single drive is fatal
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  input.layout = &fs;
  EXPECT_TRUE(ById(RunLintOn(input), "layout-single-point-of-failure").empty());
}

TEST(LintTest, SinglePointOfFailureThresholdIsConfigurable) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  Layout layout =
      Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
  layout.AssignEqual(0, {0});  // big_a: just under half the workload blocks
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  input.layout = &layout;
  LintOptions strict;
  strict.spof_min_workload_share = 0.01;
  EXPECT_FALSE(ById(RunLintOn(input, strict),
                    "layout-single-point-of-failure").empty());
  LintOptions lax;
  lax.spof_min_workload_share = 0.9;  // nothing carries 90% of the blocks
  EXPECT_TRUE(ById(RunLintOn(input, lax),
                   "layout-single-point-of-failure").empty());
}

// --- Runner / report -------------------------------------------------------

TEST(LintTest, RunnerRequiresDatabase) {
  const LintRunner runner;
  EXPECT_EQ(runner.Run(LintInput{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LintTest, DiagnosticsSortedMostSevereFirst) {
  Database db = LintDb();
  const Workload wl = JoinWorkload();  // dead_d warning
  const DiskFleet fleet = DiskFleet::Uniform(4);
  Constraints constraints;
  constraints.co_located.emplace_back("big_a", "ghost_t");  // error
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  input.constraints = &constraints;
  const LintReport report = RunLintOn(input);
  ASSERT_GE(report.diagnostics.size(), 2u);
  for (size_t i = 1; i < report.diagnostics.size(); ++i) {
    EXPECT_GE(report.diagnostics[i - 1].severity, report.diagnostics[i].severity);
  }
  EXPECT_EQ(report.CountAtLeast(LintSeverity::kError), 1u);
  EXPECT_GE(report.CountAtLeast(LintSeverity::kWarning), 2u);
}

// --- Renderers -------------------------------------------------------------

/// The canonical mixed-severity scenario used by the renderer tests: one
/// error (unknown constraint object) and four warnings (the co-accessed
/// pair sharing a drive; the dead table; two single-point-of-failure
/// findings for the big tables pinned to one non-redundant drive).
LintReport GoldenReport() {
  static Database db = LintDb();
  static const Workload wl = JoinWorkload();
  static const DiskFleet fleet = DiskFleet::Uniform(4);
  static const Layout fs = [] {
    Layout l = Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
    l.AssignEqual(0, {0});  // big_a and big_b both on D1: the co-accessed
    l.AssignEqual(1, {0});  // pair shares one non-redundant drive
    return l;
  }();
  static Constraints constraints = [] {
    Constraints c;
    c.co_located.emplace_back("big_a", "ghost_t");
    return c;
  }();
  LintInput input;
  input.db = &db;
  input.workload = &wl;
  input.fleet = &fleet;
  input.constraints = &constraints;
  input.layout = &fs;
  input.layout_label = "pinned_join_pair";
  return RunLintOn(input);
}

TEST(LintTest, TextRendererMatchesGoldenFile) {
  const std::string got = RenderLintText(GoldenReport());
  const std::string path =
      std::string(DBLAYOUT_TESTDATA_DIR) + "/lint_golden.txt";
  if (std::getenv("DBLAYOUT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << got;
    ASSERT_TRUE(out) << "cannot regenerate " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "text renderer drifted from " << path
      << " — if the change is intentional, regenerate the golden file";
}

// Minimal recursive-descent JSON syntax checker (no external deps): returns
// true iff `s` is one well-formed JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    Ws();
    if (!Value()) return false;
    Ws();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default:  return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    Ws();
    if (Peek('}')) return true;
    while (true) {
      Ws();
      if (!String()) return false;
      Ws();
      if (!Expect(':')) return false;
      Ws();
      if (!Value()) return false;
      Ws();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    Ws();
    if (Peek(']')) return true;
    while (true) {
      Ws();
      if (!Value()) return false;
      Ws();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (!Expect('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return Expect('"');
  }
  bool Number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            strchr("+-.eE", s_[pos_]) != nullptr)) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const size_t len = strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  void Ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) { return Peek(c); }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(LintTest, JsonRendererEmitsWellFormedJson) {
  const std::string json = RenderLintJson(GoldenReport());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"tool\": \"dblayout-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
}

TEST(LintTest, SarifRendererIsStructurallySound) {
  const LintReport report = GoldenReport();
  const std::string sarif = RenderLintSarif(report);
  EXPECT_TRUE(JsonChecker(sarif).Valid()) << sarif;
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  // Every rule that ran is declared under tool.driver.rules.
  EXPECT_EQ(report.rules.size(), DefaultLintRules().size());
  for (const LintRuleInfo& r : report.rules) {
    EXPECT_NE(sarif.find("\"id\": \"" + r.id + "\""), std::string::npos)
        << "rule " << r.id << " missing from SARIF driver.rules";
  }
  // Every finding carries its ruleId, level, and logical locations.
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_NE(sarif.find("\"ruleId\": \"" + d.rule_id + "\""),
              std::string::npos);
    for (const std::string& o : d.objects) {
      EXPECT_NE(sarif.find("{\"name\": \"" + o + "\", \"kind\": \"object\"}"),
                std::string::npos);
    }
  }
  EXPECT_NE(sarif.find("\"kind\": \"object\""), std::string::npos);
}

TEST(LintTest, SeverityParsingAcceptsAliases) {
  EXPECT_EQ(ParseLintSeverity("warn").value(), LintSeverity::kWarning);
  EXPECT_EQ(ParseLintSeverity("WARNING").value(), LintSeverity::kWarning);
  EXPECT_EQ(ParseLintSeverity("Error").value(), LintSeverity::kError);
  EXPECT_EQ(ParseLintSeverity("note").value(), LintSeverity::kNote);
  EXPECT_FALSE(ParseLintSeverity("fatal").ok());
}

// The opt-in rule registered via AddRule (the extension path the CLI uses):
// fires at the statement threshold, stays quiet below it, and is absent
// from the default rule set.
TEST(LintTest, WorkloadProgressFiresAtThresholdViaAddRule) {
  Database db = LintDb();
  Workload wl = JoinWorkload();  // 2 statements
  LintInput input;
  input.db = &db;
  input.workload = &wl;

  LintOptions options;
  options.progress_recommend_statements = 2;
  LintRunner runner(options);
  runner.AddRule(MakeWorkloadProgressRule());
  LintReport report = RunLintOn(input, runner);

  const auto found = ById(report, "workload-progress-recommended");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].severity, LintSeverity::kNote);
  EXPECT_NE(found[0].fix_it.find("--progress"), std::string::npos);
  // The registered rule is declared in the run's rule inventory.
  bool listed = false;
  for (const LintRuleInfo& r : report.rules) {
    listed = listed || r.id == "workload-progress-recommended";
  }
  EXPECT_TRUE(listed);
}

TEST(LintTest, WorkloadProgressQuietBelowThresholdAndNotDefault) {
  Database db = LintDb();
  Workload wl = JoinWorkload();
  LintInput input;
  input.db = &db;
  input.workload = &wl;

  // Default threshold (100) far above the 2-statement workload.
  LintRunner runner{LintOptions{}};
  runner.AddRule(MakeWorkloadProgressRule());
  LintReport quiet = RunLintOn(input, runner);
  EXPECT_TRUE(ById(quiet, "workload-progress-recommended").empty());

  // Not part of DefaultLintRules: without AddRule it never appears.
  for (const auto& rule : DefaultLintRules()) {
    EXPECT_STRNE(rule->id(), "workload-progress-recommended");
  }
}

}  // namespace
}  // namespace dblayout
