// Tests for the declaration/scope parser (src/staticcheck/scope_parser.h):
// function-definition recognition (free, inline member, out-of-line,
// annotated), class-field harvesting with DBLAYOUT_GUARDED_BY, and
// call-graph / taint-propagation behavior on recursive and
// mutually-recursive chains.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "staticcheck/scope_parser.h"
#include "staticcheck/staticcheck.h"

namespace dblayout::staticcheck {
namespace {

FileModel Parse(const std::string& content) {
  return BuildFileModel(LexCpp(content));
}

const FunctionDef* FindFn(const FileModel& fm, const std::string& name) {
  for (const FunctionDef& f : fm.functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const ClassModel* FindCls(const FileModel& fm, const std::string& name) {
  for (const ClassModel& c : fm.classes) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const FieldDecl* FindField(const ClassModel& cls, const std::string& name) {
  for (const FieldDecl& f : cls.fields) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

// --- Function definitions --------------------------------------------------

TEST(ScopeParserTest, RecognizesFreeInlineAndOutOfLineFunctions) {
  const FileModel fm = Parse(
      "int Free(int a) { return a + 1; }\n"
      "class Widget {\n"
      " public:\n"
      "  int Inline() const { return v_; }\n"
      "  void OutOfLine(int x);\n"
      " private:\n"
      "  int v_ = 0;\n"
      "};\n"
      "void Widget::OutOfLine(int x) { v_ = x; }\n"
      "void Registry::AddLocked(int v) DBLAYOUT_REQUIRES(mu_) {\n"
      "  items_.push_back(v);\n"
      "}\n");
  const FunctionDef* free_fn = FindFn(fm, "Free");
  ASSERT_NE(free_fn, nullptr);
  EXPECT_EQ(free_fn->class_name, "");
  EXPECT_EQ(free_fn->qualified_name, "Free");
  EXPECT_EQ(free_fn->line, 1);
  EXPECT_GT(free_fn->body_end, free_fn->body_begin);

  const FunctionDef* inline_fn = FindFn(fm, "Inline");
  ASSERT_NE(inline_fn, nullptr);
  EXPECT_EQ(inline_fn->class_name, "Widget");
  EXPECT_EQ(inline_fn->qualified_name, "Widget::Inline");

  const FunctionDef* out_fn = FindFn(fm, "OutOfLine");
  ASSERT_NE(out_fn, nullptr);
  EXPECT_EQ(out_fn->class_name, "Widget");
  EXPECT_EQ(out_fn->qualified_name, "Widget::OutOfLine");
  EXPECT_EQ(out_fn->line, 9);

  // An annotation macro between the parameter list and the body does not
  // hide the definition.
  const FunctionDef* annotated = FindFn(fm, "AddLocked");
  ASSERT_NE(annotated, nullptr);
  EXPECT_EQ(annotated->qualified_name, "Registry::AddLocked");
  EXPECT_GT(annotated->body_end, annotated->body_begin);
}

TEST(ScopeParserTest, DeclarationsWithoutBodiesAreNotDefinitions) {
  const FileModel fm = Parse(
      "int Declared(int a);\n"
      "int Defined(int a) { return a; }\n");
  EXPECT_EQ(FindFn(fm, "Declared"), nullptr);
  ASSERT_NE(FindFn(fm, "Defined"), nullptr);
}

// --- Class fields ----------------------------------------------------------

TEST(ScopeParserTest, HarvestsFieldsWithAnnotationsAndKinds) {
  const FileModel fm = Parse(
      "class Pool {\n"
      " public:\n"
      "  void Drain();\n"
      "  int Size() const DBLAYOUT_REQUIRES(mu_);\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  CondVar cv_;\n"
      "  std::atomic<bool> done_{false};\n"
      "  const std::string name_;\n"
      "  std::vector<int> items_ DBLAYOUT_GUARDED_BY(mu_);\n"
      "  int plain_ = 0;\n"
      "};\n");
  const ClassModel* cls = FindCls(fm, "Pool");
  ASSERT_NE(cls, nullptr);
  EXPECT_TRUE(cls->has_mutex_member());

  const FieldDecl* mu = FindField(*cls, "mu_");
  ASSERT_NE(mu, nullptr);
  EXPECT_TRUE(mu->is_mutex);

  const FieldDecl* cv = FindField(*cls, "cv_");
  ASSERT_NE(cv, nullptr);
  EXPECT_TRUE(cv->is_condvar);

  const FieldDecl* done = FindField(*cls, "done_");
  ASSERT_NE(done, nullptr);
  EXPECT_TRUE(done->is_atomic);

  const FieldDecl* name = FindField(*cls, "name_");
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(name->is_const);

  const FieldDecl* items = FindField(*cls, "items_");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->guarded_by, "mu_");

  const FieldDecl* plain = FindField(*cls, "plain_");
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(plain->guarded_by.empty());
  EXPECT_FALSE(plain->is_mutex || plain->is_condvar || plain->is_atomic ||
               plain->is_const);

  // Methods, annotated or not, are not fields.
  EXPECT_EQ(cls->fields.size(), 6u);
}

TEST(ScopeParserTest, MethodsAndStaticsAreNotFields) {
  const FileModel fm = Parse(
      "class Pool {\n"
      " public:\n"
      "  void Drain() { }\n"
      "  Pool& operator=(const Pool&) = delete;\n"
      " private:\n"
      "  static constexpr int kMax = 8;\n"
      "  using Clock = int;\n"
      "  int real_ = 0;\n"
      "};\n");
  const ClassModel* cls = FindCls(fm, "Pool");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(FindField(*cls, "Drain"), nullptr);
  EXPECT_EQ(FindField(*cls, "operator"), nullptr);
  EXPECT_EQ(FindField(*cls, "kMax"), nullptr);
  EXPECT_EQ(FindField(*cls, "Clock"), nullptr);
  EXPECT_NE(FindField(*cls, "real_"), nullptr);
}

// --- Program model & call graph --------------------------------------------

TEST(ScopeParserTest, ProgramModelIndexesQualifiedAndBareNames) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile{"src/a.h", LexCpp("class W {\n"
                                               " public:\n"
                                               "  void Run();\n"
                                               " private:\n"
                                               "  Mutex mu_;\n"
                                               "  int v_ DBLAYOUT_GUARDED_BY(mu_);\n"
                                               "};\n")});
  files.push_back(
      SourceFile{"src/a.cc", LexCpp("void W::Run() { Helper(); }\n"
                                    "void Helper() { }\n")});
  const ProgramModel pm = BuildProgramModel(files);
  ASSERT_EQ(pm.functions.size(), 2u);
  EXPECT_EQ(pm.functions_by_name.count("W::Run"), 1u);
  EXPECT_EQ(pm.functions_by_name.count("Run"), 1u);
  EXPECT_EQ(pm.functions_by_name.count("Helper"), 1u);
  // The call from W::Run resolves to Helper's definition.
  const FunctionDef* run = nullptr;
  for (const auto& df : pm.functions) {
    if (df.def->name == "Run") run = df.def;
  }
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->calls.size(), 1u);
  const std::vector<size_t> targets = ResolveCall(pm, run->calls[0]);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(pm.functions[targets[0]].def->name, "Helper");
}

TEST(ScopeParserTest, TaintTerminatesOnRecursion) {
  // Self-recursion: Tick calls itself and the clock; propagation must
  // terminate and taint it exactly once.
  std::vector<SourceFile> files;
  files.push_back(SourceFile{
      "src/common/t.cc",
      LexCpp("int64_t Tick(int n) {\n"
             "  if (n == 0) return std::chrono::steady_clock::now()"
             ".time_since_epoch().count();\n"
             "  return Tick(n - 1);\n"
             "}\n")});
  const ProgramModel pm = BuildProgramModel(files);
  const TaintAnalysis ta = ComputeTaint(pm, {}, {"src/layout/"});
  ASSERT_EQ(ta.tainted.size(), 1u);
  EXPECT_EQ(ta.tainted.begin()->second.source,
            "std::chrono::steady_clock::now()");
}

TEST(ScopeParserTest, TaintPropagatesThroughMutualRecursion) {
  // A <-> B cycle with the source inside B, plus C -> A: all three carriers
  // must end up tainted, with finite paths.
  std::vector<SourceFile> files;
  files.push_back(SourceFile{
      "src/common/m.cc",
      LexCpp("int A(int n) { return B(n); }\n"
             "int B(int n) {\n"
             "  if (n > 0) return A(n - 1);\n"
             "  return rand();\n"
             "}\n"
             "int C() { return A(3); }\n")});
  const ProgramModel pm = BuildProgramModel(files);
  const TaintAnalysis ta = ComputeTaint(pm, {}, {"src/layout/"});
  EXPECT_EQ(ta.tainted.size(), 3u);
  for (const auto& [idx, tf] : ta.tainted) {
    EXPECT_EQ(tf.source, "rand()");
    EXPECT_FALSE(tf.path.empty());
    EXPECT_LE(tf.path.size(), 3u);
  }
}

TEST(ScopeParserTest, TaintSkipsAllowlistedAndEntryFiles) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile{
      "src/obs/o.cc",
      LexCpp("int64_t NowNs() { return std::chrono::steady_clock::now()"
             ".time_since_epoch().count(); }\n")});
  files.push_back(SourceFile{
      "src/layout/l.cc",
      LexCpp("double D() { return std::chrono::steady_clock::now()"
             ".time_since_epoch().count(); }\n")});
  const ProgramModel pm = BuildProgramModel(files);
  const TaintAnalysis ta = ComputeTaint(pm, {"src/obs/"}, {"src/layout/"});
  // The obs read is allowlisted and the entry-layer read is reported
  // locally by the determinism-taint rule, not via the carrier set.
  EXPECT_TRUE(ta.tainted.empty());
}

}  // namespace
}  // namespace dblayout::staticcheck
