// Pins every field the SQL and DDL front end produces, and every error
// message it returns, against goldens under tests/testdata/. PlanDigestTest
// pins plans, but plans read only some AST fields: aliases, literal texts,
// LIKE patterns and error offsets are pinned only here. The same corpus
// seeds a bounded mutation test of the three readers and of the workload
// script reader built on them.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "benchdata/apb.h"
#include "benchdata/sales.h"
#include "benchdata/tpch.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "layout/search.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "resilience/fault.h"
#include "service/checkpoint.h"
#include "sql/ddl.h"
#include "sql/parser.h"
#include "storage/disk.h"
#include "storage/layout.h"
#include "tests/golden_test_util.h"
#include "workload/analyzer.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace dblayout {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string ExamplePath(const std::string& name) {
  return std::string(DBLAYOUT_TESTDATA_DIR) + "/../../examples/data/" + name;
}

/// C-style escape: printable ASCII passes, everything else is \xNN.
std::string Escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '\\' || c == '"') {
      out += '\\';
      out += ch;
    } else if (c >= 0x20 && c < 0x7f) {
      out += ch;
    } else {
      out += StrFormat("\\x%02x", c);
    }
  }
  return out;
}

std::string Quote(const std::string& s) { return "\"" + Escape(s) + "\""; }

/// The SQL of a `timestamp session sql` stream or trace file, in file order.
std::vector<std::string> StreamSql(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& raw : Split(text, '\n')) {
    const std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const size_t ts_end = line.find(' ');
    const size_t session_end = line.find(' ', ts_end + 1);
    out.push_back(Trim(line.substr(session_end + 1)));
  }
  return out;
}

const char* LiteralKindName(Literal::Kind kind) {
  switch (kind) {
    case Literal::Kind::kNumber:
      return "number";
    case Literal::Kind::kString:
      return "string";
    case Literal::Kind::kDate:
      return "date";
  }
  return "?";
}

const char* PredicateKindName(Predicate::Kind kind) {
  switch (kind) {
    case Predicate::Kind::kCompareLiteral:
      return "compare";
    case Predicate::Kind::kJoin:
      return "join";
    case Predicate::Kind::kBetween:
      return "between";
    case Predicate::Kind::kIn:
      return "in";
    case Predicate::Kind::kLike:
      return "like";
    case Predicate::Kind::kExists:
      return "exists";
    case Predicate::Kind::kInSubquery:
      return "in_subquery";
  }
  return "?";
}

const char* AggName(AggFunc agg) {
  switch (agg) {
    case AggFunc::kNone:
      return "none";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

/// `kind:number-in-hex-float:"text"`; %a pins every bit of the number.
std::string Lit(const Literal& l) {
  return StrFormat("%s:%a:%s", LiteralKindName(l.kind), l.number, Quote(l.text).c_str());
}

std::string Col(const ColumnRef& c) { return Quote(c.qualifier) + "." + Quote(c.column); }

std::string Pad(int depth) { return std::string(static_cast<size_t>(depth) * 2, ' '); }

/// Appends ` name=value` unless `value` renders the field's default, so a
/// field left out of a line holds its default-constructed value.
void Field(std::string* out, const char* name, const std::string& value,
           const std::string& default_value) {
  if (value != default_value) *out += StrFormat(" %s=%s", name, value.c_str());
}

void PrintSelect(const SelectStatement& s, int depth, std::string* out);

void PrintWhere(const std::vector<Predicate>& where, int depth, std::string* out) {
  const std::string no_lit = Lit(Literal{});
  const std::string no_col = Col(ColumnRef{});
  for (const Predicate& p : where) {
    std::string in_list;
    for (const Literal& l : p.in_list) in_list += (in_list.empty() ? "" : ",") + Lit(l);
    *out += Pad(depth) + StrFormat("where %s %s %s", PredicateKindName(p.kind),
                                   Col(p.lhs).c_str(), CompareOpName(p.op));
    Field(out, "lit", Lit(p.rhs_literal), no_lit);
    Field(out, "col", Col(p.rhs_column), no_col);
    Field(out, "lo", Lit(p.between_lo), no_lit);
    Field(out, "hi", Lit(p.between_hi), no_lit);
    Field(out, "in", "[" + in_list + "]", "[]");
    Field(out, "like", Quote(p.like_pattern), Quote(""));
    Field(out, "negated", p.negated ? "1" : "0", "0");
    Field(out, "subquery", p.subquery != nullptr ? "1" : "0", "0");
    *out += "\n";
    if (p.subquery != nullptr) PrintSelect(*p.subquery, depth + 1, out);
  }
}

void PrintSelect(const SelectStatement& s, int depth, std::string* out) {
  *out += Pad(depth) + StrFormat("select top=%lld\n", static_cast<long long>(s.top));
  for (const SelectItem& item : s.items) {
    *out += Pad(depth) + StrFormat("item star=%d agg=%s col=%s alias=%s\n",
                                   static_cast<int>(item.star), AggName(item.agg),
                                   Col(item.column).c_str(), Quote(item.alias).c_str());
  }
  for (const TableRef& t : s.from) {
    *out += Pad(depth) + StrFormat("from %s alias=%s semi=%d\n", Quote(t.table).c_str(),
                                   Quote(t.alias).c_str(), static_cast<int>(t.semi_join));
  }
  PrintWhere(s.where, depth, out);
  for (const ColumnRef& c : s.group_by) *out += Pad(depth) + "group " + Col(c) + "\n";
  for (const OrderItem& o : s.order_by) {
    *out += Pad(depth) + "order " + Col(o.column) + (o.descending ? " desc" : " asc") +
            "\n";
  }
}

/// Every field of `stmt`. The members its kind leaves unset are printed
/// only when they differ from their defaults.
std::string RenderStatement(const SqlStatement& stmt) {
  static const char* kKinds[] = {"select", "insert", "update", "delete"};
  std::string out = StrFormat("kind=%s\n", kKinds[static_cast<int>(stmt.kind)]);
  std::string select;
  PrintSelect(stmt.select, 1, &select);
  std::string unset_select;
  PrintSelect(SelectStatement{}, 1, &unset_select);
  if (stmt.kind == SqlStatement::Kind::kSelect || select != unset_select) out += select;
  std::string insert = StrFormat("  insert table=%s rows=%lld\n",
                                 Quote(stmt.insert.table).c_str(),
                                 static_cast<long long>(stmt.insert.num_rows));
  if (stmt.kind == SqlStatement::Kind::kInsert ||
      insert != "  insert table=\"\" rows=1\n") {
    out += insert;
  }
  std::string set;
  for (const std::string& c : stmt.update.set_columns) {
    set += (set.empty() ? "" : ",") + Quote(c);
  }
  std::string update = StrFormat("  update table=%s set=[%s]\n",
                                 Quote(stmt.update.table).c_str(), set.c_str());
  PrintWhere(stmt.update.where, 2, &update);
  if (stmt.kind == SqlStatement::Kind::kUpdate ||
      update != "  update table=\"\" set=[]\n") {
    out += update;
  }
  std::string del = StrFormat("  delete table=%s\n", Quote(stmt.del.table).c_str());
  PrintWhere(stmt.del.where, 2, &del);
  if (stmt.kind == SqlStatement::Kind::kDelete || del != "  delete table=\"\"\n") {
    out += del;
  }
  return out;
}

/// A script with GO lines, ';' separators, blank statements and comments.
const char* kGoScript =
    "-- a GO-separated batch, as SQL Server workload scripts write them\n"
    "SELECT COUNT(*) FROM orders\n"
    "GO\n"
    "  go  \n"
    "SELECT o_id AS id, o_date FROM orders o WHERE o.o_id = 1;;\n"
    "DELETE orders WHERE o_id > 10\n"
    "Go\n"
    "UPDATE orders SET o_status = 'X', o_total = o_total WHERE o_id IN (1, 2, 3)\n";

/// Named statement texts: TPC-H-22 (three parameter draws), the TPCH1G-4
/// qgen texts, SALES-45, APB, the serve stream's three refresh-write shapes,
/// a hand-written set reaching the grammar's corners, and the examples/data
/// workload, trace and serve stream.
std::vector<std::pair<std::string, std::string>> Corpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (int q = 1; q <= 22; ++q) {
      corpus.emplace_back(
          StrFormat("tpch seed %llu q%d", static_cast<unsigned long long>(seed), q),
          benchdata::TpchQueryText(q, &rng));
    }
  }
  {
    Rng rng(4);
    for (int i = 0; i < 22; ++i) {
      const int copy = static_cast<int>(rng.UniformInt(1, 4));
      corpus.emplace_back(StrFormat("qgen %d copy %d", i, copy),
                          benchdata::TpchQueryText(i % 22 + 1, &rng, copy));
    }
  }
  {
    const Database db = benchdata::MakeSalesDatabase();
    auto wl = benchdata::MakeSales45Workload(db, 11);
    EXPECT_TRUE(wl.ok()) << wl.status().ToString();
    if (wl.ok()) {
      for (size_t i = 0; i < wl->size(); ++i) {
        corpus.emplace_back(StrFormat("sales45 %zu", i), wl->statement(i).sql);
      }
    }
  }
  {
    const Database db = benchdata::MakeApbDatabase();
    auto wl = benchdata::MakeApb800Workload(db, 7, 24);
    EXPECT_TRUE(wl.ok()) << wl.status().ToString();
    if (wl.ok()) {
      for (size_t i = 0; i < wl->size(); ++i) {
        corpus.emplace_back(StrFormat("apb %zu", i), wl->statement(i).sql);
      }
    }
  }
  const std::vector<std::string> refresh = {
      "UPDATE orders SET o_orderstatus = 'F' WHERE o_orderkey < 74211",
      "DELETE FROM lineitem WHERE l_orderkey < 31337",
      "INSERT INTO orders VALUES (6000123, 4242, 'O', 1234.25, date '1998-08-01', "
      "'1-URGENT', 'Clerk#000000001', 0, 'refresh')"};
  for (size_t i = 0; i < refresh.size(); ++i) {
    corpus.emplace_back(StrFormat("refresh %zu", i), refresh[i]);
  }
  const std::vector<std::string> corners = {
      "select distinct a as x, t.b, count(*), sum(c) as s, avg(t.d), min(e), max(f) as "
      "m from t, u as v, w z where t.a = v.b and a <> 1 and b != 2.5e3 and c < -3 and d "
      "<= .5 and e > 'it''s' and f >= date '2000-02-29' group by a, t.b order by a desc, "
      "b asc, c",
      "SELECT TOP 10 * FROM t WHERE a BETWEEN -1 AND 2 AND b IN ('x', 3, DATE "
      "'1999-12-31') AND c LIKE '%a_b%' ORDER BY a",
      "SELECT TOP 2.9 a FROM t",
      "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.x = t.a) AND NOT EXISTS "
      "(SELECT COUNT(*) FROM v WHERE v.y = t.b AND v.z IN (SELECT w.k FROM w WHERE w.q "
      "LIKE 'p'));",
      "SELECT a FROM t WHERE a IN (SELECT MAX(b) FROM u)",
      "SELECT a FROM t WHERE a = b AND c = 1e5 AND d = 1E-2 AND e = 7e+1 AND f = 0.",
      "select _x1, X_2 from T_3 where _X1 = x_2",
      "SELECT a\n-- trailing comment\nFROM t -- another\nWHERE a = 1 ;",
      "INSERT INTO t (a, b, c) VALUES (1, 'two', DATE '2001-01-01'), (-4, 5.5, 'x')",
      "INSERT INTO t VALUES (1)",
      "UPDATE t SET a = 1, b = c, d = 'x', e = -2 WHERE f = g AND h BETWEEN 1 AND 2",
      "UPDATE t SET a = DATE '1990-01-01'",
      "DELETE t",
      "DELETE FROM t WHERE a LIKE 'z' AND b IN (1)",
      "SELECT a FROM t WHERE a = 1e999 AND b BETWEEN -1e999 AND 1e300 AND c IN (1e999, "
      "1e-400, 4e-320, 2.2250738585072011e-308)",
      "SELECT a FROM t WHERE a = 00012 AND b = 1.2.3 AND c = 1e AND d = 5e-",
  };
  for (size_t i = 0; i < corners.size(); ++i) {
    corpus.emplace_back(StrFormat("corner %zu", i), corners[i]);
  }
  {
    auto wl = Workload::FromScript("workload.sql", ReadFile(ExamplePath("workload.sql")));
    EXPECT_TRUE(wl.ok()) << wl.status().ToString();
    if (wl.ok()) {
      for (size_t i = 0; i < wl->size(); ++i) {
        corpus.emplace_back(StrFormat("examples workload %zu", i), wl->statement(i).sql);
      }
    }
  }
  for (const char* file : {"trace.txt", "serve/stream.txt"}) {
    const std::vector<std::string> sql = StreamSql(ReadFile(ExamplePath(file)));
    EXPECT_FALSE(sql.empty()) << file;
    for (size_t i = 0; i < sql.size(); ++i) {
      corpus.emplace_back(StrFormat("examples %s %zu", file, i), sql[i]);
    }
  }
  return corpus;
}

/// Malformed inputs for the DML reader. TOP with a count outside int64_t
/// is left out: it has its own test.
const std::vector<std::string>& BadSql() {
  static const std::vector<std::string> kBad = {
      "",
      "   -- only a comment",
      ";",
      "SELECT 'abc FROM t",
      "SELECT a FROM t WHERE b = 'it''s",
      "SELECT a FROM t WHERE a @ 1",
      "SELECT a FROM t WHERE a = 0x1p3",
      "SELECT a FROM t WHERE a ! 1",
      "SELECT \xff FROM t",
      "SELECT a FROM t x y",
      "SELECT a FROM t;;",
      "SELECT a FROM t; SELECT b FROM u",
      "SELECT a AS from FROM t",
      "SELECT a FROM t AS select",
      "SELECT select FROM t",
      "SELECT a FROM t WHERE from = 1",
      "SELECT a FROM t WHERE a = where",
      "UPDATE t SET a = and",
      "SELECT a FROM t WHERE NOT a = 1",
      "SELECT a FROM t WHERE a IN (SELECT b, c FROM u)",
      "SELECT a FROM t WHERE a IN (SELECT * FROM u)",
      "SELECT a FROM t WHERE d = DATE 'x'",
      "SELECT a FROM t WHERE d = DATE '1999-13-01'",
      "SELECT a FROM t WHERE d = DATE 5",
      "SELECT a FROM t WHERE a = - 'a'",
      "SELECT TOP x a FROM t",
      "SELECT TOP a FROM t",
      "SELECT a FROM t GROUP a",
      "SELECT a FROM t ORDER a",
      "SELECT COUNT(a FROM t",
      "SELECT a t",
      "SELECT a. FROM t",
      "SELECT a FROM t WHERE a =",
      "SELECT a FROM t WHERE a = 1 AND",
      "SELECT a FROM t WHERE a BETWEEN 1 2",
      "SELECT a FROM t WHERE a IN 1",
      "SELECT a FROM t WHERE a IN (1, 2",
      "SELECT a FROM t WHERE a LIKE 5",
      "SELECT a FROM t WHERE a + 5",
      "SELECT a FROM t WHERE EXISTS SELECT",
      "SELECT a FROM t WHERE EXISTS (SELECT b FROM u",
      "SELECT a FROM t WHERE a IN (SELECT b FROM u",
      "INSERT orders VALUES (1)",
      "INSERT INTO t (a, b VALUES (1)",
      "INSERT INTO t VALUES 1",
      "INSERT INTO t VALUES (1, 2",
      "INSERT INTO t",
      "UPDATE t a = 1",
      "UPDATE t SET a 1",
      "DELETE FROM WHERE a = 1",
      "DROP TABLE t",
  };
  return kBad;
}

const std::vector<std::string>& BadScripts() {
  static const std::vector<std::string> kBad = {
      "SELECT a FROM t\nGO\nSELECT FROM u\n",
      "SELECT a FROM t;\nSELECT 'x FROM u;\n",
      "SELECT a FROM t\nSELECT b FROM u\n",
      "go\nSELECT a FROM t WHERE a IN (SELECT b, c FROM u);\nGO\n",
  };
  return kBad;
}

const std::vector<std::string>& BadSchemas() {
  static const std::vector<std::string> kBad = {
      "",
      "-- nothing\n;",
      "DROP TABLE t;",
      "CREATE VIEW v;",
      "CREATE TABLE 5 (a INT) ROWS 1;",
      "CREATE TABLE t a INT) ROWS 1;",
      "CREATE TABLE t (a BLOB) ROWS 1;",
      "CREATE TABLE t (a) ROWS 1;",
      "CREATE TABLE t (a CHAR) ROWS 1;",
      "CREATE TABLE t (a CHAR(0)) ROWS 1;",
      "CREATE TABLE t (a CHAR(5) ROWS 1;",
      "CREATE TABLE t (a VARCHAR(x)) ROWS 1;",
      "CREATE TABLE t (a INT DISTINCT 0) ROWS 1;",
      "CREATE TABLE t (a INT DISTINCT) ROWS 1;",
      "CREATE TABLE t (a INT RANGE 5 1) ROWS 1;",
      "CREATE TABLE t (a INT RANGE '1999-01-01' 5) ROWS 1;",
      "CREATE TABLE t (a DATE RANGE 'x' 'y') ROWS 1;",
      "CREATE TABLE t (a INT RANGE - x 1) ROWS 1;",
      "CREATE TABLE t (a INT HISTOGRAM (0.5, -1)) ROWS 1;",
      "CREATE TABLE t (a INT HISTOGRAM 0.5) ROWS 1;",
      "CREATE TABLE t (a INT HISTOGRAM (0.5) ROWS 1;",
      "CREATE TABLE t (a INT;",
      "CREATE TABLE t (a INT) ROWS -5;",
      "CREATE TABLE t (a INT);",
      "CREATE TABLE t (a INT) ROWS x;",
      "CREATE TABLE t (a INT) ROWS 1 CLUSTERED a;",
      "CREATE TABLE t (a INT) ROWS 1 CLUSTERED (a;",
      "CREATE TABLE t (a INT) ROWS 1 MATERIALIZED;",
      "CREATE TABLE t (a INT) ROWS 1 junk;",
      "CREATE TABLE t (a INT) ROWS 1 'x",
      "CREATE TABLE t (a INT) ROWS 1 @",
      "CREATE TABLE t (a INT) ROWS 1; CREATE TABLE t (b INT) ROWS 1;",
      "CREATE TABLE t (a INT) ROWS 1; CREATE INDEX i t (a);",
      "CREATE TABLE t (a INT) ROWS 1; CREATE INDEX i ON u (a);",
      "CREATE TABLE t (a INT) ROWS 1; CREATE INDEX i ON t a;",
      "CREATE TABLE t (a INT) ROWS 1; CREATE INDEX i ON t (a;",
      "CREATE TABLE t (a INT) ROWS 1; CREATE INDEX ON t (a);",
  };
  return kBad;
}

/// Well-formed schemas, rendered through DumpSchema: the examples/data
/// schema, and reserved DML words as DDL identifiers (the DDL accepts any
/// identifier token).
const std::vector<std::string>& GoodSchemas() {
  static const std::vector<std::string> kGood = {
      "CREATE TABLE select (from INT, date DATE RANGE '1990-01-01' '1999-12-31', where "
      "CHAR(3) DISTINCT 4, order DECIMAL HISTOGRAM (0.25, 0.75) RANGE -5 .5) ROWS 1e3 "
      "CLUSTERED (from, where) MATERIALIZED VIEW;\n"
      "CREATE INDEX by ON select (date, order) UNIQUE;\n"
      "create index top on select (where)",
  };
  return kGood;
}

std::string RenderStatus(const Status& st) {
  return StrFormat("%s: %s", StatusCodeName(st.code()), Escape(st.message()).c_str());
}

/// Every corpus statement through ParseSql, the corpus as one script and the
/// GO script through ParseSqlScript, and the good schemas through
/// ParseSchemaScript + DumpSchema.
///
/// Regenerate (only when the front end's output is meant to change):
///   DBLAYOUT_UPDATE_GOLDEN=1 build/tests/dblayout_tests --gtest_filter='ParserTest.*Golden'
TEST(ParserTest, AstMatchesGolden) {
  const auto corpus = Corpus();
  ASSERT_GT(corpus.size(), 200u);
  std::string got;
  std::string script;
  for (const auto& [name, sql] : corpus) {
    got += "== " + name + "\n" + Escape(sql) + "\n";
    auto stmt = ParseSql(sql);
    got += stmt.ok() ? RenderStatement(*stmt) : RenderStatus(stmt.status()) + "\n";
    if (stmt.ok()) script += sql + "\n;\n";
  }
  for (const std::string& text : {script, std::string(kGoScript)}) {
    auto stmts = ParseSqlScript(text);
    got += StrFormat("== script of %zu bytes\n", text.size());
    if (!stmts.ok()) {
      got += RenderStatus(stmts.status()) + "\n";
      continue;
    }
    got += StrFormat("%zu statements\n", stmts->size());
    if (text == kGoScript) {
      for (const SqlStatement& s : *stmts) got += RenderStatement(s);
    }
  }
  for (const std::string& ddl :
       {ReadFile(ExamplePath("schema.sql")), GoodSchemas()[0]}) {
    auto db = ParseSchemaScript("golden", ddl);
    got += "== schema\n" + Escape(ddl) + "\n";
    got += db.ok() ? DumpSchema(*db) : RenderStatus(db.status()) + "\n";
  }
  testutil::ExpectMatchesGolden(got, "parser_ast_golden.txt");
}

TEST(ParserTest, ErrorsMatchGolden) {
  std::string got;
  auto line = [&got](const char* reader, const std::string& input, const Status& st) {
    got += StrFormat("%s %s\n  => %s\n", reader, Quote(input).c_str(),
                     st.ok() ? "OK" : RenderStatus(st).c_str());
  };
  for (const std::string& sql : BadSql()) line("sql", sql, ParseSql(sql).status());
  for (const std::string& script : BadScripts()) {
    line("script", script, ParseSqlScript(script).status());
  }
  for (const std::string& ddl : BadSchemas()) {
    line("schema", ddl, ParseSchemaScript("bad", ddl).status());
  }
  testutil::ExpectMatchesGolden(got, "parser_errors_golden.txt");
}

TEST(ParserTest, TopCountOutsideInt64IsAParseError) {
  for (const char* sql : {"SELECT TOP 1e999 a FROM t", "SELECT TOP 1e300 a FROM t",
                          "SELECT TOP 9223372036854775808 a FROM t"}) {
    auto r = ParseSql(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << sql;
    EXPECT_NE(r.status().message().find("near offset 11"), std::string::npos)
        << r.status().message();
  }
  // Counts below 2^63 still truncate toward zero.
  auto below = ParseSql("SELECT TOP 9223372036854774784 a FROM t");
  ASSERT_TRUE(below.ok()) << below.status().ToString();
  EXPECT_EQ(below->select.top, 9223372036854774784LL);
  auto fraction = ParseSql("SELECT TOP 2.9 a FROM t");
  ASSERT_TRUE(fraction.ok()) << fraction.status().ToString();
  EXPECT_EQ(fraction->select.top, 2);
}

// ---------------------------------------------------------------------------
// Bounded, seeded mutation test: ParseSql, ParseSqlScript,
// ParseSchemaScript and Workload::FromScript / FromScriptLenient must return
// a value or a Status for arbitrary bytes, never crash. Run under the
// sanitizer build, it also checks for undefined behaviour and out-of-bounds
// reads.

/// Fragments spliced into inputs: quotes, comments, brackets, non-finite
/// and overflowing numbers, and keywords that steer the parsers into their
/// rarer branches.
const std::vector<std::string>& Fragments() {
  static const std::vector<std::string> kFragments = {
      "'", "''", "--", "-- x\n", "(", ")", ",", ".", ";", "nan", "inf", "1e999",
      "-1e999", "1e-999", "9223372036854775808", "TOP 1e999 ", "TOP ", "DATE '",
      "DATE 'x'",
      "NOT ", "EXISTS (", "IN (SELECT ", " AND ", "BETWEEN ", "LIKE ", "\nGO\n", "GO",
      "RANGE ", "HISTOGRAM (", "DISTINCT ", "CHAR(", "ROWS ", "CLUSTERED (", "@", "!",
      std::string(1, '\0'), "\xff", "e+", ".5e"};
  return kFragments;
}

std::string Mutate(const std::vector<std::string>& seeds, Rng* rng) {
  std::string s = seeds[rng->Index(seeds.size())];
  const int edits = static_cast<int>(rng->UniformInt(1, 4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = s.empty() ? 0 : rng->Index(s.size() + 1);
    switch (rng->UniformInt(0, 4)) {
      case 0:  // flip a byte
        if (!s.empty()) {
          s[rng->Index(s.size())] = static_cast<char>(rng->UniformInt(0, 255));
        }
        break;
      case 1: {  // insert a fragment
        const auto& fragments = Fragments();
        s.insert(at, fragments[rng->Index(fragments.size())]);
        break;
      }
      case 2:  // delete a span
        s.erase(at, static_cast<size_t>(rng->UniformInt(1, 12)));
        break;
      case 3: {  // splice in a span of another seed
        const std::string& other = seeds[rng->Index(seeds.size())];
        const size_t from = rng->Index(other.size() + 1);
        s.insert(at, other.substr(from, static_cast<size_t>(rng->UniformInt(1, 24))));
        break;
      }
      default:  // truncate
        s.resize(at);
        break;
    }
  }
  return s;
}

/// Feeds `count` mutants of `seeds` made by `mutate` to `read` (true when
/// it returned a value) and checks that both outcomes occur, so the
/// mutants neither all parse nor all fail at the first byte.
template <typename Read, typename Mutator = decltype(&Mutate)>
void FuzzReader(const std::vector<std::string>& seeds, uint64_t seed, int count,
                const Read& read, Mutator mutate = &Mutate) {
  Rng rng(seed);
  int ok = 0;
  for (int i = 0; i < count; ++i) ok += read(mutate(seeds, &rng)) ? 1 : 0;
  EXPECT_GT(ok, count / 200);
  EXPECT_LT(ok, count - count / 200);
}

std::vector<std::string> SqlSeeds() {
  std::vector<std::string> seeds;
  for (const auto& named : Corpus()) seeds.push_back(named.second);
  for (const std::string& bad : BadSql()) seeds.push_back(bad);
  return seeds;
}

TEST(ReaderMutationTest, ParseSqlReturnsStatus) {
  FuzzReader(SqlSeeds(), 101, 5000, [](const std::string& sql) {
    auto r = ParseSql(sql);
    EXPECT_TRUE(r.ok() || r.status().code() == StatusCode::kParseError)
        << r.status().ToString();
    return r.ok();
  });
}

TEST(ReaderMutationTest, ParseSqlScriptReturnsStatus) {
  std::vector<std::string> seeds = {ReadFile(ExamplePath("workload.sql")), kGoScript};
  for (const std::string& bad : BadScripts()) seeds.push_back(bad);
  // Scripts of a few statements each, so one mutant still parses now and then.
  const std::vector<std::string> sql = SqlSeeds();
  for (size_t i = 0; i + 2 < sql.size(); i += 3) {
    seeds.push_back(sql[i] + ";\n" + sql[i + 1] + "\nGO\n" + sql[i + 2] + "\n");
  }
  FuzzReader(seeds, 202, 5000, [](const std::string& script) {
    auto r = ParseSqlScript(script);
    EXPECT_TRUE(r.ok() || r.status().code() == StatusCode::kParseError)
        << r.status().ToString();
    return r.ok();
  });
}

/// Mutate, then one to three insertions of a quote, a ';' or a `--`: the
/// bytes that decide where Workload's script reader ends a statement.
std::string MutateScript(const std::vector<std::string>& seeds, Rng* rng) {
  static const char* const kSplitters[] = {"'", ";", "--"};
  std::string s = Mutate(seeds, rng);
  for (int k = static_cast<int>(rng->UniformInt(1, 3)); k > 0; --k) {
    s.insert(s.empty() ? 0 : rng->Index(s.size() + 1), kSplitters[rng->Index(3)]);
  }
  return s;
}

TEST(ReaderMutationTest, WorkloadFromScriptReturnsStatus) {
  std::vector<std::string> seeds = {ReadFile(ExamplePath("workload.sql")), kGoScript,
                                    "-- weight: 3\nSELECT a FROM t WHERE b = 'x;y';\n"
                                    "-- stream: 2\nSELECT a FROM t -- c; d\n;\n"
                                    "SELECT a FROM t WHERE b = 'multi\nline''s; --'\n"};
  for (const std::string& bad : BadScripts()) seeds.push_back(bad);
  const std::vector<std::string> sql = SqlSeeds();
  for (size_t i = 0; i + 1 < sql.size(); i += 2) {
    seeds.push_back("-- weight: 2\n" + sql[i] + ";\n" + sql[i + 1] + "\nGO\n");
  }
  Rng rng(404);
  int ok = 0;
  constexpr int kMutants = 5000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string script =
        i % 2 == 0 ? Mutate(seeds, &rng) : MutateScript(seeds, &rng);
    auto strict = Workload::FromScript("fuzz.sql", script);
    EXPECT_TRUE(strict.ok() || strict.status().message().rfind("fuzz.sql:", 0) == 0)
        << strict.status().ToString();
    std::vector<Workload::ScriptError> errors;
    const Workload lenient = Workload::FromScriptLenient("fuzz.sql", script, &errors);
    // The two readers walk alike: strict fails exactly when lenient reports
    // a problem, and both keep the same statements until then.
    EXPECT_EQ(strict.ok(), errors.empty());
    if (strict.ok()) {
      ASSERT_EQ(strict->size(), lenient.size());
      for (size_t k = 0; k < lenient.size(); ++k) {
        EXPECT_EQ(strict->statement(k).sql, lenient.statement(k).sql);
      }
    }
    for (const Workload::ScriptError& e : errors) EXPECT_GE(e.line, 1);
    ok += strict.ok() ? 1 : 0;
  }
  EXPECT_GT(ok, kMutants / 200);
  EXPECT_LT(ok, kMutants - kMutants / 200);
}

TEST(ReaderMutationTest, ParseSchemaScriptReturnsStatus) {
  std::vector<std::string> seeds = {ReadFile(ExamplePath("schema.sql")),
                                    GoodSchemas()[0]};
  for (const std::string& bad : BadSchemas()) seeds.push_back(bad);
  // Whole dumps and each of their CREATE statements alone.
  for (const Database& db :
       {benchdata::MakeTpchDatabase(0.1), benchdata::MakeSalesDatabase()}) {
    const std::string dump = DumpSchema(db);
    seeds.push_back(dump);
    for (const std::string& create : Split(dump, ';')) seeds.push_back(create + ";");
  }
  FuzzReader(seeds, 303, 5000, [](const std::string& ddl) {
    auto r = ParseSchemaScript("fuzz", ddl);
    EXPECT_TRUE(r.ok() || !r.status().message().empty()) << r.status().ToString();
    return r.ok();
  });
}

/// Replaces one field of one line with a number the disks reader must
/// range-check or refuse, and truncates the result half of the time.
std::string MutateDiskField(const std::vector<std::string>& seeds, Rng* rng) {
  static const char* const kValues[] = {"1e10", "1e300", "nan", "-0",
                                        "1e999", "inf", "9223372036.854775", "0"};
  std::vector<std::string> lines = Split(seeds[rng->Index(seeds.size())], '\n');
  std::string& line = lines[rng->Index(lines.size())];
  std::vector<std::string> fields = Split(line, ' ');
  fields[rng->Index(fields.size())] = kValues[rng->Index(std::size(kValues))];
  line = Join(fields, " ");
  std::string spec = Join(lines, "\n");
  if (rng->Bernoulli(0.5)) spec.resize(rng->Index(spec.size() + 1));
  return spec;
}

TEST(ReaderMutationTest, DiskFleetFromSpecReturnsStatus) {
  const std::vector<std::string> seeds = {
      ReadFile(ExamplePath("disks.txt")),
      "fast 10 5.0 60 50 none\nsafe 20 9.0 40 30 mirroring\nraid5 30 9.5 35 20 parity\n",
      "# capacity seek read write\nd1 0.5 0 1 1\n\nd2 1e3 12.5 200 180 none\n"};
  Rng rng(505);
  int ok = 0;
  constexpr int kMutants = 5000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string spec =
        i % 2 == 0 ? Mutate(seeds, &rng) : MutateDiskField(seeds, &rng);
    auto fleet = DiskFleet::FromSpec(spec, "fuzz.txt");
    EXPECT_TRUE(fleet.ok() || fleet.status().message().rfind("fuzz.txt", 0) == 0)
        << fleet.status().ToString();
    if (fleet.ok()) {
      for (int j = 0; j < fleet->num_disks(); ++j) {
        EXPECT_GE(fleet->disk(j).capacity_blocks, 0) << spec;
      }
    }
    ok += fleet.ok() ? 1 : 0;
  }
  EXPECT_GT(ok, kMutants / 200);
  EXPECT_LT(ok, kMutants - kMutants / 200);
}

// ---------------------------------------------------------------------------
// The number readers' fuzzers: the trace, fault-plan, layout CSV, checkpoint
// and journal readers, and the numeric fields of DDL and DML, on mutants
// that alternate between Mutate's edits and a number spelling of the reader
// golden planted into a numeric field. Run under the sanitizer build with
// float-cast-overflow, they catch an input number that reaches an integer
// unchecked.

/// Half the time Mutate; otherwise one number of a seed (a digit run with
/// its dots and exponent, not starting inside an identifier) replaced by a
/// spelling of testutil::NumberSpellings().
std::string MutateNumberField(const std::vector<std::string>& seeds, Rng* rng) {
  if (rng->Bernoulli(0.5)) return Mutate(seeds, rng);
  std::string s = seeds[rng->Index(seeds.size())];
  const auto is_digit = [&](size_t i) {
    return i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]));
  };
  std::vector<std::pair<size_t, size_t>> numbers;
  for (size_t i = 0; i < s.size(); ++i) {
    if (!is_digit(i) || (i > 0 && (std::isalnum(static_cast<unsigned char>(s[i - 1])) ||
                                   s[i - 1] == '_'))) {
      continue;
    }
    size_t end = i;
    while (is_digit(end) || (end < s.size() && (s[end] == '.' || s[end] == 'e' ||
                                                s[end] == 'E'))) {
      ++end;
      if ((s[end - 1] == 'e' || s[end - 1] == 'E') && end < s.size() &&
          (s[end] == '-' || s[end] == '+')) {
        ++end;
      }
    }
    numbers.emplace_back(i, end - i);
    i = end;
  }
  if (numbers.empty()) return s;
  const auto [at, length] = numbers[rng->Index(numbers.size())];
  const std::vector<std::string>& spellings = testutil::NumberSpellings();
  s.replace(at, length, spellings[rng->Index(spellings.size())]);
  return s;
}

/// Every mutant either reads or returns a Status with a message.
template <typename T>
bool ReadOrStatus(const Result<T>& r) {
  EXPECT_TRUE(r.ok() || !r.status().message().empty()) << r.status().ToString();
  return r.ok();
}

TEST(ReaderMutationTest, ParseTraceEventsReturnsStatus) {
  const std::vector<std::string> seeds = {
      ReadFile(ExamplePath("trace.txt")), ReadFile(ExamplePath("serve/stream.txt")),
      "0 1 SELECT a FROM t\n1.5 2 SELECT b FROM u;\n# note\n2e3 -3 SELECT c FROM v\n"};
  FuzzReader(seeds, 701, 5000, [](const std::string& text) {
    return ReadOrStatus(ParseTraceEvents(text));
  }, &MutateNumberField);
}

TEST(ReaderMutationTest, FaultPlanFromSpecReturnsStatus) {
  const std::vector<std::string> seeds = {
      ReadFile(ExamplePath("resilience/fault_plan.txt")),
      "D1 fail\nD2 degraded transfer=0.5 seek=2 errors=0.01\n",
      "# slow drive\nD3 degraded seek=1e3\nD4 degraded errors=0.25 transfer=1\n"};
  FuzzReader(seeds, 702, 5000, [](const std::string& text) {
    return ReadOrStatus(FaultPlan::FromSpec(text, "fuzz"));
  }, &MutateNumberField);
}

TEST(ReaderMutationTest, LayoutFromCsvReturnsStatus) {
  const DiskFleet fleet = DiskFleet::Uniform(3);
  const std::vector<std::string> names = {"a", "b", "c"};
  Rng rng(703);
  std::vector<std::string> seeds;
  for (int k = 0; k < 4; ++k) {
    Layout layout(3, 3);
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) layout.set_x(i, j, rng.UniformDouble(0, 1));
    }
    seeds.push_back(layout.ToCsv(names, fleet));
  }
  seeds.push_back(Layout::FullStriping(3, fleet).ToCsv(names, fleet));
  FuzzReader(seeds, 704, 5000, [&](const std::string& text) {
    return ReadOrStatus(Layout::FromCsv(text, names, fleet));
  }, &MutateNumberField);
}

TEST(ReaderMutationTest, ParseCheckpointReturnsStatus) {
  const std::vector<std::string> seeds = {
      ReadFile(std::string(DBLAYOUT_TESTDATA_DIR) + "/checkpoint_edge_golden.json")};
  FuzzReader(seeds, 705, 5000, [](const std::string& text) {
    return ReadOrStatus(ParseCheckpoint(text));
  }, &MutateNumberField);
}

/// Converts every number of `v` to an integer, as the journal readers do.
void ConvertNumbers(const obs::JsonValue& v) {
  if (v.is_number()) (void)v.int_value(INT64_MIN, INT64_MAX);
  for (const obs::JsonValue& e : v.array()) ConvertNumbers(e);
  for (const auto& [key, e] : v.object()) ConvertNumbers(e);
}

TEST(ReaderMutationTest, ParseJsonJournalLinesReturnsStatus) {
  // The journal of a small TPC-H search: one JSON document per line.
  const Database db = benchdata::MakeTpchDatabase(0.01);
  auto wl = benchdata::MakeTpch22Workload(db);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  auto profile = AnalyzeWorkload(db, *wl);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  obs::EventJournal journal;
  SearchOptions options;
  options.journal = &journal;
  ResolvedConstraints rc;
  rc.required_avail.assign(db.Objects().size(), std::nullopt);
  ASSERT_TRUE(TsGreedySearch(db, fleet, options).Run(*profile, rc).ok());
  std::vector<std::string> seeds;
  for (const std::string& line : Split(journal.Serialize(), '\n')) {
    if (!line.empty()) seeds.push_back(line);
  }
  FuzzReader(seeds, 706, 5000, [](const std::string& line) {
    auto v = obs::ParseJson(line);
    if (v.ok()) ConvertNumbers(*v);
    return ReadOrStatus(v);
  }, &MutateNumberField);
}

TEST(ReaderMutationTest, SchemaNumberFieldsReturnStatus) {
  // Each CREATE statement of the dumps: ROWS, DISTINCT, RANGE, CHAR lengths
  // and HISTOGRAM fractions.
  std::vector<std::string> seeds;
  for (const Database& db :
       {benchdata::MakeTpchDatabase(0.1), benchdata::MakeSalesDatabase()}) {
    for (const std::string& create : Split(DumpSchema(db), ';')) {
      seeds.push_back(create + ";");
    }
  }
  FuzzReader(seeds, 707, 5000, [](const std::string& ddl) {
    return ReadOrStatus(ParseSchemaScript("fuzz", ddl));
  }, &MutateNumberField);
}

TEST(ReaderMutationTest, SqlNumberFieldsReturnStatus) {
  std::vector<std::string> seeds = SqlSeeds();
  seeds.push_back("SELECT TOP 5 a FROM t WHERE d < DATE '1995-03-15' AND b > 2.5e3");
  FuzzReader(seeds, 708, 5000, [](const std::string& sql) {
    return ReadOrStatus(ParseSql(sql));
  }, &MutateNumberField);
}

}  // namespace
}  // namespace dblayout
