// Tests for dblayout check (src/staticcheck/): positive + negative fixture
// snippets per rule (including the scope-aware annotation-completeness and
// determinism-taint rules), suppression and baseline semantics (stale
// entries included), job-count invariance of the parallel runner, the
// cross-file symbol harvest, and a golden SARIF rendering — mirroring the
// lint_test.cc conventions.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "staticcheck/staticcheck.h"

namespace dblayout::staticcheck {
namespace {

/// Runs the default rules over a single in-memory file.
LintReport Check(const std::string& path, const std::string& content,
                 CheckStats* stats = nullptr) {
  CheckRunner runner;
  runner.AddSource(path, content);
  return runner.Run(stats);
}

std::vector<Diagnostic> ById(const LintReport& report, const std::string& id) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule_id == id) out.push_back(d);
  }
  return out;
}

// --- Lexer -----------------------------------------------------------------

TEST(CppLexerTest, TokensCarryKindsAndLines) {
  const LexedSource lex = LexCpp("int a = 1;\nfoo->bar += \"s\";\n");
  ASSERT_GE(lex.tokens.size(), 9u);
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_EQ(lex.tokens[0].kind, TokKind::kIdentifier);
  EXPECT_EQ(lex.tokens[0].line, 1);
  EXPECT_EQ(lex.tokens[3].text, "1");
  EXPECT_EQ(lex.tokens[3].kind, TokKind::kNumber);
  // Maximal munch: -> and += are single tokens.
  EXPECT_EQ(lex.tokens[6].text, "->");
  EXPECT_EQ(lex.tokens[6].line, 2);
  EXPECT_EQ(lex.tokens[8].text, "+=");
}

TEST(CppLexerTest, CommentsAndStringsDoNotLeakTokens) {
  const LexedSource lex = LexCpp(
      "// rand() in a comment\n"
      "/* srand(1); */\n"
      "const char* s = \"rand()\";\n"
      "char c = 'r';\n");
  for (const Tok& t : lex.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "srand");
  }
}

TEST(CppLexerTest, RawStringsAreSingleTokens) {
  const LexedSource lex = LexCpp("auto s = R\"(rand(); \" quote)\";\nint x;");
  bool saw_raw = false;
  for (const Tok& t : lex.tokens) {
    if (t.kind == TokKind::kString) {
      saw_raw = true;
      EXPECT_NE(t.text.find("rand"), std::string::npos);
    }
    EXPECT_NE(t.text, "rand");  // not an identifier token
  }
  EXPECT_TRUE(saw_raw);
  EXPECT_EQ(lex.tokens.back().text, ";");
}

TEST(CppLexerTest, MarkerMustLeadTheComment) {
  // Prose that *mentions* the marker syntax mid-sentence is documentation,
  // not a suppression; doc-comment slashes before the tag are fine.
  const LexedSource lex = LexCpp(
      "// silenced inline with `// dblayout-check(raw-random): why` markers\n"
      "/// dblayout-check(determinism-taint): doc marker, still leading\n");
  ASSERT_EQ(lex.suppressions.size(), 1u);
  EXPECT_EQ(lex.suppressions[0].rule, "determinism-taint");
  EXPECT_EQ(lex.suppressions[0].line, 2);
}

TEST(CppLexerTest, SuppressionMarkersParsed) {
  const LexedSource lex = LexCpp(
      "int x;  // dblayout-check(raw-random): seeded upstream\n"
      "// dblayout-check(determinism-taint):\n");
  ASSERT_EQ(lex.suppressions.size(), 2u);
  EXPECT_EQ(lex.suppressions[0].rule, "raw-random");
  EXPECT_EQ(lex.suppressions[0].justification, "seeded upstream");
  EXPECT_EQ(lex.suppressions[0].line, 1);
  EXPECT_EQ(lex.suppressions[1].rule, "determinism-taint");
  EXPECT_TRUE(lex.suppressions[1].justification.empty());
}

// --- Symbol harvest --------------------------------------------------------

TEST(HarvestTest, FindsUnorderedValuesFunctionsAndElements) {
  CheckRunner runner;
  runner.AddSource("a.h",
                   "const std::unordered_map<size_t, double>& Neighbors(size_t u);\n"
                   "std::unordered_set<int> seen_;\n"
                   "std::vector<std::unordered_map<int, double>> adj_;\n"
                   "std::vector<int> plain_;\n");
  const SymbolIndex index = HarvestSymbols(runner.files());
  EXPECT_EQ(index.unordered_functions.count("Neighbors"), 1u);
  EXPECT_EQ(index.unordered_values.count("seen_"), 1u);
  EXPECT_EQ(index.unordered_element_values.count("adj_"), 1u);
  EXPECT_EQ(index.unordered_values.count("adj_"), 0u);   // vector is ordered
  EXPECT_EQ(index.unordered_values.count("plain_"), 0u);
}

TEST(HarvestTest, FindsStatusReturningFunctions) {
  CheckRunner runner;
  runner.AddSource("a.h",
                   "Status Validate() const;\n"
                   "Status Workload::Add(Statement s);\n"
                   "Result<Layout> InitialLayout(int n);\n"
                   "Status st = Foo();\n"       // variable, not a function
                   "return Status::OK();\n");   // a use, not a declaration
  const SymbolIndex index = HarvestSymbols(runner.files());
  EXPECT_EQ(index.status_functions.count("Validate"), 1u);
  EXPECT_EQ(index.status_functions.count("Add"), 1u);
  EXPECT_EQ(index.status_functions.count("InitialLayout"), 1u);
  EXPECT_EQ(index.status_functions.count("st"), 0u);
  EXPECT_EQ(index.status_functions.count("OK"), 0u);
}

TEST(HarvestTest, AmbiguousOverloadSetsAreDropped) {
  // `Add` is declared both Status-returning (Workload::Add) and
  // void-returning (DiskFleet::Add): a token-level pass cannot tell which
  // overload a call hits, so the name must drop out of status_functions.
  CheckRunner runner;
  runner.AddSource("a.h",
                   "Status Workload::Add(Statement s);\n"
                   "void Add(DiskDrive d);\n"
                   "Status Save(const Layout& l);\n");
  const SymbolIndex index = HarvestSymbols(runner.files());
  EXPECT_EQ(index.status_functions.count("Add"), 0u);
  EXPECT_EQ(index.nonstatus_functions.count("Add"), 1u);
  EXPECT_EQ(index.status_functions.count("Save"), 1u);
}

TEST(StaticCheckTest, UncheckedStatusQuietOnAmbiguousOverload) {
  const LintReport report = Check("src/x.cc",
                                  "Status Workload::Add(Statement s);\n"
                                  "void JsonWriter::Add(std::string row);\n"
                                  "void F(JsonWriter& json) {\n"
                                  "  json.Add(\"row\");\n"
                                  "}\n");
  EXPECT_TRUE(ById(report, "unchecked-status").empty());
}

// --- unordered-accumulation / unordered-iteration-order --------------------

TEST(StaticCheckTest, UnorderedAccumulationFiresOnFloatSum) {
  const LintReport report = Check("src/x.cc",
                                  "std::unordered_map<int, double> m_;\n"
                                  "double Total() {\n"
                                  "  double total = 0;\n"
                                  "  for (const auto& [k, v] : m_) total += v;\n"
                                  "  return total;\n"
                                  "}\n");
  const auto diags = ById(report, "unordered-accumulation");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kError);
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_EQ(diags[0].file, "src/x.cc");
  EXPECT_NE(diags[0].message.find("m_"), std::string::npos);
  EXPECT_TRUE(ById(report, "unordered-iteration-order").empty());
}

TEST(StaticCheckTest, UnorderedAccumulationFiresViaFunctionReturn) {
  // Cross-file: the function is declared unordered in the header, iterated
  // in the .cc — the index must connect them.
  CheckRunner runner;
  runner.AddSource("src/g.h",
                   "const std::unordered_map<size_t, double>& Neighbors(size_t u) const;\n");
  runner.AddSource("src/g.cc",
                   "double Sum(const G& g, size_t u) {\n"
                   "  double t = 0;\n"
                   "  for (const auto& [v, w] : g.Neighbors(u)) t += w;\n"
                   "  return t;\n"
                   "}\n");
  const auto diags = ById(runner.Run(), "unordered-accumulation");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/g.cc");
  EXPECT_NE(diags[0].message.find("Neighbors"), std::string::npos);
}

TEST(StaticCheckTest, UnorderedAccumulationFiresOnIndexedElement) {
  const LintReport report =
      Check("src/x.cc",
            "std::vector<std::unordered_map<size_t, double>> adj_;\n"
            "double T(size_t u) {\n"
            "  double t = 0;\n"
            "  for (const auto& [v, w] : adj_[u]) t += w;\n"
            "  return t;\n"
            "}\n");
  ASSERT_EQ(ById(report, "unordered-accumulation").size(), 1u);
}

TEST(StaticCheckTest, UnorderedIterationWarnsWithoutAccumulation) {
  const LintReport report = Check("src/x.cc",
                                  "std::unordered_set<int> s_;\n"
                                  "bool Any() {\n"
                                  "  for (int v : s_) { if (v > 0) return true; }\n"
                                  "  return false;\n"
                                  "}\n");
  const auto diags = ById(report, "unordered-iteration-order");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kWarning);
  EXPECT_TRUE(ById(report, "unordered-accumulation").empty());
}

TEST(StaticCheckTest, OrderedIterationQuiet) {
  const LintReport report = Check("src/x.cc",
                                  "std::map<int, double> m_;\n"
                                  "std::vector<int> v_;\n"
                                  "double Total() {\n"
                                  "  double t = 0;\n"
                                  "  for (const auto& [k, v] : m_) t += v;\n"
                                  "  for (int x : v_) t += x;\n"
                                  "  return t;\n"
                                  "}\n");
  EXPECT_TRUE(ById(report, "unordered-accumulation").empty());
  EXPECT_TRUE(ById(report, "unordered-iteration-order").empty());
}

// --- raw-random ------------------------------------------------------------

TEST(StaticCheckTest, RawRandomFiresOnRandAndEngines) {
  const LintReport report = Check("src/x.cc",
                                  "int a = rand();\n"
                                  "std::random_device rd;\n"
                                  "std::mt19937_64 gen(rd());\n");
  EXPECT_EQ(ById(report, "raw-random").size(), 3u);
}

TEST(StaticCheckTest, RawRandomAllowedInRngHeader) {
  const LintReport report =
      Check("src/common/rng.h", "std::mt19937_64 gen_;\n");
  EXPECT_TRUE(ById(report, "raw-random").empty());
}

TEST(StaticCheckTest, RawRandomQuietOnSeededRngUse) {
  const LintReport report = Check("src/x.cc",
                                  "Rng rng(seed);\n"
                                  "size_t i = rng.Index(n);\n");
  EXPECT_TRUE(ById(report, "raw-random").empty());
}

// --- determinism-taint -----------------------------------------------------

TEST(DeterminismTaintTest, FiresOnDirectClockReadInEntryLayer) {
  const LintReport report = Check("src/layout/x.cc",
                                  "double Budget() {\n"
                                  "  auto t0 = std::chrono::steady_clock::now();\n"
                                  "  return 0;\n"
                                  "}\n");
  const auto diags = ById(report, "determinism-taint");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kWarning);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("steady_clock"), std::string::npos);
  EXPECT_NE(diags[0].message.find("Budget"), std::string::npos);
}

TEST(DeterminismTaintTest, FiresOnEnvReadInEntryLayer) {
  const LintReport report = Check("src/graph/p.cc",
                                  "void Tune() {\n"
                                  "  const char* v = getenv(\"DBLAYOUT_MODE\");\n"
                                  "}\n");
  const auto diags = ById(report, "determinism-taint");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("getenv"), std::string::npos);
}

TEST(DeterminismTaintTest, PropagatesThroughCallGraph) {
  // The clock read lives two hops away in a carrier file; the finding lands
  // at the entry-layer call site and names the full path.
  CheckRunner runner;
  runner.AddSource("src/common/timeutil.cc",
                   "int64_t NowNs() {\n"
                   "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
                   "}\n"
                   "int64_t Stamp() {\n"
                   "  return NowNs();\n"
                   "}\n");
  runner.AddSource("src/layout/cost.cc",
                   "double Cost() {\n"
                   "  return Stamp() * 1.0;\n"
                   "}\n");
  const auto diags = ById(runner.Run(), "determinism-taint");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/layout/cost.cc");
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("'Stamp'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("steady_clock"), std::string::npos);
  EXPECT_NE(diags[0].message.find("Stamp -> NowNs"), std::string::npos);
}

TEST(DeterminismTaintTest, ResolvesQualifiedCallsThroughRecursion) {
  // Mutually recursive carriers must not hang the propagation, and the
  // qualified call `Clock::Read()` must resolve to the right definition.
  CheckRunner runner;
  runner.AddSource("src/common/clock.cc",
                   "int64_t Clock::Read() {\n"
                   "  return std::chrono::system_clock::now().time_since_epoch().count();\n"
                   "}\n"
                   "int64_t A() { return B(); }\n"
                   "int64_t B() { return A() + Clock::Read(); }\n");
  runner.AddSource("src/resilience/f.cc",
                   "double Impact() { return A() * 2.0; }\n");
  const auto diags = ById(runner.Run(), "determinism-taint");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/resilience/f.cc");
  EXPECT_NE(diags[0].message.find("system_clock"), std::string::npos);
}

TEST(DeterminismTaintTest, ObsLayerReadsAreNotSources) {
  // The obs timing layer owns its clock; calling into it from the cost
  // model is sanctioned infrastructure, not hidden input.
  CheckRunner runner;
  runner.AddSource("src/obs/trace.cc",
                   "int64_t SteadyNowNs() {\n"
                   "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
                   "}\n");
  runner.AddSource("src/layout/cost.cc",
                   "void Record() { SteadyNowNs(); }\n");
  EXPECT_TRUE(ById(runner.Run(), "determinism-taint").empty());
}

TEST(DeterminismTaintTest, QuietOutsideEntryLayers) {
  // A clock read in src/io/ taints the function, but with no entry-layer
  // caller there is nothing to report.
  const LintReport report = Check("src/io/w.cc",
                                  "void Touch() {\n"
                                  "  auto t = std::chrono::steady_clock::now();\n"
                                  "}\n");
  EXPECT_TRUE(ById(report, "determinism-taint").empty());
}

// --- parallel-default-ref-capture ------------------------------------------

TEST(StaticCheckTest, ParallelCaptureFiresOnBareRefCapture) {
  const LintReport report = Check(
      "src/x.cc",
      "pool.ParallelFor(n, p, [&](int64_t i, int w) { out[i] = f(i); });\n");
  const auto diags = ById(report, "parallel-default-ref-capture");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, LintSeverity::kWarning);
}

TEST(StaticCheckTest, ParallelCaptureQuietOnNamedCaptures) {
  const LintReport report = Check(
      "src/x.cc",
      "pool.ParallelFor(n, p, [&out, &f](int64_t i, int w) { out[i] = f(i); });\n");
  EXPECT_TRUE(ById(report, "parallel-default-ref-capture").empty());
}

TEST(StaticCheckTest, ParallelCaptureQuietWithVisibleSynchronization) {
  const LintReport report = Check(
      "src/x.cc",
      "pool.ParallelFor(n, p, [&](int64_t i, int w) {\n"
      "  std::lock_guard<std::mutex> lock(mu_);\n"
      "  shared += f(i);\n"
      "});\n");
  EXPECT_TRUE(ById(report, "parallel-default-ref-capture").empty());
}

TEST(StaticCheckTest, ParallelCaptureQuietOutsidePoolCalls) {
  const LintReport report =
      Check("src/x.cc", "auto fn = [&](int i) { return i + shared; };\n");
  EXPECT_TRUE(ById(report, "parallel-default-ref-capture").empty());
}

// --- pointer-key-container -------------------------------------------------

TEST(StaticCheckTest, PointerKeyFiresOnMapAndSet) {
  const LintReport report = Check("src/x.cc",
                                  "std::map<const Table*, int> by_table_;\n"
                                  "std::set<Node*> visited_;\n");
  EXPECT_EQ(ById(report, "pointer-key-container").size(), 2u);
}

TEST(StaticCheckTest, PointerKeyQuietOnValuePointersAndIds) {
  const LintReport report =
      Check("src/x.cc",
            "std::map<int, std::vector<const SubplanAccess*>> streams_;\n"
            "std::set<size_t> ids_;\n");
  EXPECT_TRUE(ById(report, "pointer-key-container").empty());
}

// --- dcheck-side-effect ----------------------------------------------------

TEST(StaticCheckTest, DcheckSideEffectFiresOnMutation) {
  const LintReport report = Check("src/x.cc",
                                  "DBLAYOUT_DCHECK(++calls < limit);\n"
                                  "DBLAYOUT_DCHECK_EQ(x = 1, 1);\n"
                                  "DBLAYOUT_CHECK(total += w);\n");
  EXPECT_EQ(ById(report, "dcheck-side-effect").size(), 3u);
}

TEST(StaticCheckTest, DcheckSideEffectQuietOnObservations) {
  const LintReport report =
      Check("src/x.cc",
            "DBLAYOUT_DCHECK(x == 1);\n"
            "DBLAYOUT_DCHECK_LE(a, b);\n"
            "DBLAYOUT_DCHECK_OK(auditor.AuditLayout(layout));\n");
  EXPECT_TRUE(ById(report, "dcheck-side-effect").empty());
}

// --- unchecked-status ------------------------------------------------------

TEST(StaticCheckTest, UncheckedStatusFiresOnDiscardedCall) {
  const LintReport report = Check("src/x.cc",
                                  "Status Save(const Layout& l);\n"
                                  "void F(const Layout& l) {\n"
                                  "  Save(l);\n"
                                  "}\n");
  const auto diags = ById(report, "unchecked-status");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("Save"), std::string::npos);
}

TEST(StaticCheckTest, UncheckedStatusFiresOnDiscardedMemberCall) {
  const LintReport report = Check("src/x.cc",
                                  "Status Workload::Add(Statement s);\n"
                                  "void F(Workload& wl, Statement s) {\n"
                                  "  wl.Add(s);\n"
                                  "}\n");
  EXPECT_EQ(ById(report, "unchecked-status").size(), 1u);
}

TEST(StaticCheckTest, UncheckedStatusQuietWhenChecked) {
  const LintReport report =
      Check("src/x.cc",
            "Status Save(const Layout& l);\n"
            "Status F(const Layout& l) {\n"
            "  DBLAYOUT_RETURN_NOT_OK(Save(l));\n"
            "  if (!Save(l).ok()) return Status::Internal(\"save\");\n"
            "  const Status st = Save(l);\n"
            "  (void)Save(l);\n"
            "  return Save(l);\n"
            "}\n");
  EXPECT_TRUE(ById(report, "unchecked-status").empty());
}

// --- raw-thread ------------------------------------------------------------

TEST(StaticCheckTest, RawThreadFiresOutsideThreadPool) {
  const LintReport report =
      Check("src/x.cc", "std::thread t([] { Work(); });\nt.join();\n");
  EXPECT_EQ(ById(report, "raw-thread").size(), 1u);
}

TEST(StaticCheckTest, RawThreadAllowedInThreadPool) {
  const LintReport report =
      Check("src/common/thread_pool.cc", "std::vector<std::thread> workers_;\n");
  EXPECT_TRUE(ById(report, "raw-thread").empty());
}

// --- Suppressions ----------------------------------------------------------

TEST(SuppressionTest, JustifiedMarkerSuppressesSameLine) {
  CheckStats stats;
  const LintReport report = Check(
      "src/x.cc",
      "int a = rand();  // dblayout-check(raw-random): fixture, not shipped\n",
      &stats);
  EXPECT_TRUE(ById(report, "raw-random").empty());
  EXPECT_TRUE(ById(report, "invalid-suppression").empty());
  EXPECT_EQ(stats.suppressed, 1u);
}

TEST(SuppressionTest, JustifiedMarkerSuppressesLineBelow) {
  const LintReport report = Check(
      "src/x.cc",
      "// dblayout-check(raw-random): fixture, not shipped\n"
      "int a = rand();\n");
  EXPECT_TRUE(ById(report, "raw-random").empty());
  EXPECT_TRUE(ById(report, "invalid-suppression").empty());
}

TEST(SuppressionTest, MarkerWithoutJustificationDoesNotSuppress) {
  const LintReport report = Check(
      "src/x.cc", "int a = rand();  // dblayout-check(raw-random)\n");
  EXPECT_EQ(ById(report, "raw-random").size(), 1u);
  const auto invalid = ById(report, "invalid-suppression");
  ASSERT_EQ(invalid.size(), 1u);
  EXPECT_NE(invalid[0].message.find("no justification"), std::string::npos);
}

TEST(SuppressionTest, UnknownRuleReported) {
  const LintReport report = Check(
      "src/x.cc", "// dblayout-check(no-such-rule): whatever\n");
  const auto invalid = ById(report, "invalid-suppression");
  ASSERT_EQ(invalid.size(), 1u);
  EXPECT_NE(invalid[0].message.find("unknown rule"), std::string::npos);
}

TEST(SuppressionTest, StaleMarkerReported) {
  const LintReport report = Check(
      "src/x.cc", "int a = 1;  // dblayout-check(raw-random): nothing here\n");
  const auto invalid = ById(report, "invalid-suppression");
  ASSERT_EQ(invalid.size(), 1u);
  EXPECT_NE(invalid[0].message.find("stale"), std::string::npos);
}

TEST(SuppressionTest, MarkerOnlySuppressesItsOwnRule) {
  const LintReport report = Check(
      "src/layout/x.cc",
      "void F() {\n"
      "  srand(time(nullptr));  // dblayout-check(raw-random): fixture\n"
      "}\n");
  EXPECT_TRUE(ById(report, "raw-random").empty());
  // Both nondeterministic reads (the srand() entropy sink and the
  // time(nullptr) clock read) are determinism-taint findings in an
  // entry-layer file; the raw-random marker must not absorb either.
  EXPECT_EQ(ById(report, "determinism-taint").size(), 2u);
}

// --- Baseline --------------------------------------------------------------

TEST(BaselineTest, RoundTripAbsorbsFindings) {
  CheckRunner first;
  first.AddSource("src/x.cc", "int a = rand();\n");
  const LintReport before = first.Run();
  ASSERT_EQ(ById(before, "raw-random").size(), 1u);
  const std::string baseline = CheckRunner::RenderBaseline(before);

  CheckRunner second;
  second.AddSource("src/x.cc", "int a = rand();\n");
  // Feed the rendered baseline back through the parser semantics: keys are
  // whole trimmed lines, comments ignored.
  for (const Diagnostic& d : before.diagnostics) {
    EXPECT_NE(baseline.find(CheckRunner::BaselineKey(d)), std::string::npos);
  }
  CheckStats stats;
  CheckRunner third;
  third.AddSource("src/x.cc", "int a = rand();\n");
  // Simulate LoadBaseline via a temp-free path: keys straight from `before`.
  // (LoadBaseline itself is exercised by the staticcheck_clean ctest gate.)
  const LintReport after = [&] {
    CheckRunner r;
    r.AddSource("src/x.cc", "int a = rand();\n");
    // No public setter: write and load through a real file.
    const std::string path = ::testing::TempDir() + "/staticcheck_baseline.txt";
    {
      std::ofstream out(path);
      out << baseline;
    }
    EXPECT_TRUE(r.LoadBaseline(path).ok());
    return r.Run(&stats);
  }();
  EXPECT_TRUE(ById(after, "raw-random").empty());
  EXPECT_EQ(stats.baselined, 1u);
}

TEST(BaselineTest, BaselineDoesNotAbsorbNewFindings) {
  const std::string path = ::testing::TempDir() + "/staticcheck_baseline2.txt";
  {
    std::ofstream out(path);
    out << "# comment line\n";
    out << "raw-random|src/x.cc|raw entropy source 'rand' bypasses the seeded Rng\n";
  }
  CheckRunner runner;
  runner.AddSource("src/x.cc", "int a = rand();\nstd::random_device rd;\n");
  EXPECT_TRUE(runner.LoadBaseline(path).ok());
  const LintReport report = runner.Run();
  const auto diags = ById(report, "raw-random");
  ASSERT_EQ(diags.size(), 1u);  // rand() absorbed, random_device not
  EXPECT_NE(diags[0].message.find("random_device"), std::string::npos);
}

// --- unannotated-mutex-field -----------------------------------------------

TEST(UnannotatedFieldTest, FiresOnBareFieldInMutexHoldingClass) {
  const LintReport report = Check("src/x.cc",
                                  "class Pool {\n"
                                  " private:\n"
                                  "  Mutex mu_;\n"
                                  "  int count_ = 0;\n"
                                  "};\n");
  const auto diags = ById(report, "unannotated-mutex-field");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_NE(diags[0].message.find("count_"), std::string::npos);
}

TEST(UnannotatedFieldTest, QuietOnAnnotatedAtomicConstAndPrimitives) {
  const LintReport report = Check("src/x.cc",
                                  "class Pool {\n"
                                  " private:\n"
                                  "  Mutex mu_;\n"
                                  "  CondVar cv_;\n"
                                  "  std::atomic<int> hits_{0};\n"
                                  "  const std::string name_;\n"
                                  "  int count_ DBLAYOUT_GUARDED_BY(mu_) = 0;\n"
                                  "};\n");
  EXPECT_TRUE(ById(report, "unannotated-mutex-field").empty());
}

TEST(UnannotatedFieldTest, QuietWithoutAMutexMember) {
  const LintReport report = Check("src/x.cc",
                                  "class Plain {\n"
                                  " private:\n"
                                  "  int count_ = 0;\n"
                                  "};\n");
  EXPECT_TRUE(ById(report, "unannotated-mutex-field").empty());
}

// --- Parallel runner -------------------------------------------------------

TEST(ParallelRunTest, ReportByteIdenticalAcrossJobCounts) {
  const char* kFixtures[][2] = {
      {"src/a.cc", "int a = rand();\n"},
      {"src/b.cc", "std::set<Node*> visited_;\n"},
      {"src/layout/c.cc",
       "void F() { auto t = std::chrono::steady_clock::now(); }\n"},
      {"src/d.cc", "std::unordered_set<int> s_;\n"
                   "bool Any() {\n"
                   "  for (int v : s_) { if (v) return true; }\n"
                   "  return false;\n"
                   "}\n"},
      {"src/e.cc", "DBLAYOUT_DCHECK(++calls < limit);\n"},
      {"src/f.cc", "int clean = 0;\n"},
  };
  auto run = [&](int jobs, CheckStats* stats) {
    CheckOptions options;
    options.jobs = jobs;
    CheckRunner runner(options);
    for (const auto& f : kFixtures) runner.AddSource(f[0], f[1]);
    return runner.Run(stats);
  };
  CheckStats s1, s4;
  const std::string text1 = RenderLintText(run(1, &s1), "dblayout-check");
  const std::string text4 = RenderLintText(run(4, &s4), "dblayout-check");
  EXPECT_EQ(text1, text4);
  EXPECT_EQ(s1.files, s4.files);
  EXPECT_EQ(s1.suppressed, s4.suppressed);
  EXPECT_EQ(s1.baselined, s4.baselined);
  ASSERT_EQ(s1.timings.size(), 6u);  // file order, both runs
  for (size_t i = 0; i < s1.timings.size(); ++i) {
    EXPECT_EQ(s1.timings[i].path, s4.timings[i].path);
  }
}

// --- Stale baseline --------------------------------------------------------

TEST(BaselineTest, StaleEntriesReportedAsErrors) {
  const std::string path = ::testing::TempDir() + "/staticcheck_stale.txt";
  {
    std::ofstream out(path);
    out << "raw-random|src/x.cc|raw entropy source 'rand' bypasses the seeded Rng\n";
    out << "raw-random|src/gone.cc|raw entropy source 'rand' bypasses the seeded Rng\n";
  }
  CheckRunner runner;
  runner.AddSource("src/x.cc", "int a = rand();\n");
  ASSERT_TRUE(runner.LoadBaseline(path).ok());
  CheckStats stats;
  const LintReport report = runner.Run(&stats);
  EXPECT_TRUE(ById(report, "raw-random").empty());  // live entry absorbs
  const auto stale = ById(report, "stale-baseline");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].severity, LintSeverity::kError);
  EXPECT_NE(stale[0].message.find("src/gone.cc"), std::string::npos);
  ASSERT_EQ(stats.stale_baseline.size(), 1u);
  EXPECT_NE(stats.stale_baseline[0].find("src/gone.cc"), std::string::npos);
  // The stale report keeps the exit nonzero (the staticcheck_clean gate),
  // and RenderBaseline refuses to absorb its own staleness.
  EXPECT_GT(report.CountAtLeast(LintSeverity::kError), 0u);
  EXPECT_EQ(CheckRunner::RenderBaseline(report).find("stale-baseline"),
            std::string::npos);
}

// --- Report plumbing & renderers -------------------------------------------

TEST(ReportTest, DiagnosticsSortedAndRulesListed) {
  const LintReport report = Check("src/x.cc",
                                  "std::unordered_set<int> s_;\n"
                                  "bool Any() {\n"
                                  "  for (int v : s_) { if (v) return true; }\n"
                                  "  return false;\n"
                                  "}\n"
                                  "int a = rand();\n");
  ASSERT_GE(report.diagnostics.size(), 2u);
  // Errors (raw-random) sort before warnings (unordered-iteration-order).
  EXPECT_EQ(report.diagnostics[0].rule_id, "raw-random");
  // Rule metadata present and id-sorted, including the meta rule.
  ASSERT_EQ(report.rules.size(), 12u);
  for (size_t i = 1; i < report.rules.size(); ++i) {
    EXPECT_LT(report.rules[i - 1].id, report.rules[i].id);
  }
}

TEST(ReportTest, TextRenderingCarriesFileAndLine) {
  const LintReport report = Check("src/x.cc", "int a = rand();\n");
  const std::string text = RenderLintText(report, "dblayout-check");
  EXPECT_NE(text.find("src/x.cc:1: error: raw-random:"), std::string::npos);
  EXPECT_NE(text.find("dblayout-check: 1 error(s)"), std::string::npos);
}

TEST(ReportTest, SarifRenderingStructurallySound) {
  const LintReport report = Check("src/x.cc", "int a = rand();\n");
  const std::string sarif = RenderLintSarif(report, "dblayout-check");
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"dblayout-check\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"raw-random\""), std::string::npos);
  EXPECT_NE(sarif.find("\"physicalLocation\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/x.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  // Rule metadata for every rule that ran.
  EXPECT_NE(sarif.find("\"id\": \"unordered-accumulation\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"invalid-suppression\""), std::string::npos);
}

TEST(ReportTest, JsonRenderingCarriesFileAndLine) {
  const LintReport report = Check("src/x.cc", "int a = rand();\n");
  const std::string json = RenderLintJson(report, "dblayout-check");
  EXPECT_NE(json.find("\"tool\": \"dblayout-check\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/x.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
}


// --- Golden SARIF ----------------------------------------------------------

// One finding per scope-aware rule, rendered to SARIF and compared
// byte-for-byte. Regenerate with DBLAYOUT_UPDATE_GOLDEN=1.
TEST(ReportTest, ScopedRulesSarifMatchesGoldenFile) {
  CheckRunner runner;
  runner.AddSource("src/unannotated.cc",
                   "class Pool {\n"
                   " private:\n"
                   "  Mutex mu_;\n"
                   "  int count_ = 0;\n"
                   "};\n");
  runner.AddSource("src/layout/taint.cc",
                   "double Budget() {\n"
                   "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
                   "}\n");
  const std::string got = RenderLintSarif(runner.Run(), "dblayout-check");
  const std::string path =
      std::string(DBLAYOUT_TESTDATA_DIR) + "/staticcheck_sarif_golden.json";
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
      << "SARIF renderer drifted from " << path
      << " (regenerate with DBLAYOUT_UPDATE_GOLDEN=1)";
  // Sanity: every scoped rule is present in the golden run.
  for (const char* rule : {"unannotated-mutex-field", "determinism-taint"}) {
    EXPECT_NE(got.find(std::string("\"ruleId\": \"") + rule + "\""),
              std::string::npos)
        << rule;
  }
}

}  // namespace
}  // namespace dblayout::staticcheck
