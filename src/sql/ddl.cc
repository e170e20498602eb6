#include "sql/ddl.h"

#include <algorithm>

#include "common/strutil.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace dblayout {

namespace {

/// DDL identifiers: any identifier token, DML reserved words included.
Status ParseIdent(TokenCursor* c, const char* what, std::string* out) {
  if (c->Peek().kind != Token::Kind::kIdent) return c->Expect(what);
  c->TakeText(out);
  return Status::OK();
}

Result<double> ParseNumber(TokenCursor* c, const char* what) {
  if (c->Peek().kind == Token::Kind::kNumber) return c->Next().number;
  if (c->ConsumePunct('-')) {
    if (c->Peek().kind != Token::Kind::kNumber) return c->Expect(what);
    return -c->Next().number;
  }
  return c->Expect(what);
}

/// A RANGE bound: a number, or a quoted date string.
Result<double> ParseBound(TokenCursor* c, ColumnType type) {
  if (c->Peek().kind == Token::Kind::kString) {
    if (type != ColumnType::kDate) {
      return Status::ParseError("schema: string RANGE bound on a non-DATE column");
    }
    return ParseDateDays(c->Next().text);
  }
  return ParseNumber(c, "RANGE bound");
}

Status ParseColumn(TokenCursor* c, Column* column) {
  Column& col = *column;
  DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "column name", &col.name));
  std::string type;
  DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "column type", &type));
  bool takes_length = false;
  if (type == "int") {
    col.type = ColumnType::kInt;
  } else if (type == "bigint") {
    col.type = ColumnType::kBigInt;
  } else if (type == "double") {
    col.type = ColumnType::kDouble;
  } else if (type == "decimal") {
    col.type = ColumnType::kDecimal;
  } else if (type == "char") {
    col.type = ColumnType::kChar;
    takes_length = true;
  } else if (type == "varchar") {
    col.type = ColumnType::kVarchar;
    takes_length = true;
  } else if (type == "date") {
    col.type = ColumnType::kDate;
  } else {
    return Status::ParseError(StrFormat("schema: unknown type '%s'", type.c_str()));
  }
  if (takes_length) {
    if (!c->ConsumePunct('(')) return c->Expect("'(' after CHAR/VARCHAR");
    DBLAYOUT_ASSIGN_OR_RETURN(double len, ParseNumber(c, "length"));
    if (len < 1 || len > 1 << 20) {
      return Status::ParseError("schema: bad character length");
    }
    col.declared_length = static_cast<int>(len);
    if (!c->ConsumePunct(')')) return c->Expect("')' after length");
  }
  col.distinct_count = 0;  // resolved later against ROWS
  for (;;) {
    if (c->ConsumeKeyword("distinct")) {
      DBLAYOUT_ASSIGN_OR_RETURN(double d, ParseNumber(c, "DISTINCT count"));
      if (d < 1) return Status::ParseError("schema: DISTINCT must be >= 1");
      const std::optional<int64_t> count = ToInt64(d);
      if (!count) return Status::ParseError("schema: DISTINCT must be below 2^63");
      col.distinct_count = *count;
    } else if (c->ConsumeKeyword("range")) {
      DBLAYOUT_ASSIGN_OR_RETURN(col.min_value, ParseBound(c, col.type));
      DBLAYOUT_ASSIGN_OR_RETURN(col.max_value, ParseBound(c, col.type));
      if (col.max_value < col.min_value) {
        return Status::ParseError(
            StrFormat("schema: empty RANGE on column '%s'", col.name.c_str()));
      }
    } else if (c->ConsumeKeyword("histogram")) {
      if (!c->ConsumePunct('(')) return c->Expect("'(' after HISTOGRAM");
      do {
        DBLAYOUT_ASSIGN_OR_RETURN(double f, ParseNumber(c, "histogram fraction"));
        if (f < 0) return Status::ParseError("schema: negative histogram fraction");
        col.histogram.fractions.push_back(f);
      } while (c->ConsumePunct(','));
      if (!c->ConsumePunct(')')) return c->Expect("')' closing HISTOGRAM");
    } else {
      break;
    }
  }
  return Status::OK();
}

Status ParseCreateTable(TokenCursor* c, Database* db) {
  Table table;
  DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "table name", &table.name));
  if (!c->ConsumePunct('(')) return c->Expect("'(' starting column list");
  do {
    DBLAYOUT_RETURN_NOT_OK(ParseColumn(c, &table.columns.emplace_back()));
  } while (c->ConsumePunct(','));
  if (!c->ConsumePunct(')')) return c->Expect("')' closing column list");
  if (!c->ConsumeKeyword("rows")) return c->Expect("ROWS <count>");
  DBLAYOUT_ASSIGN_OR_RETURN(double rows, ParseNumber(c, "row count"));
  if (rows < 0) return Status::ParseError("schema: negative ROWS");
  const std::optional<int64_t> row_count = ToInt64(rows);
  if (!row_count) return Status::ParseError("schema: ROWS must be below 2^63");
  table.row_count = *row_count;
  if (c->ConsumeKeyword("clustered")) {
    if (!c->ConsumePunct('(')) return c->Expect("'(' after CLUSTERED");
    do {
      DBLAYOUT_RETURN_NOT_OK(
          ParseIdent(c, "clustered key column", &table.clustered_key.emplace_back()));
    } while (c->ConsumePunct(','));
    if (!c->ConsumePunct(')')) return c->Expect("')' closing CLUSTERED");
  }
  if (c->ConsumeKeyword("materialized")) {
    if (!c->ConsumeKeyword("view")) return c->Expect("VIEW after MATERIALIZED");
    table.is_materialized_view = true;
  }
  // Default statistics: leading clustered key is unique; other columns get
  // min(rows, 100) distinct values unless declared.
  for (size_t i = 0; i < table.columns.size(); ++i) {
    Column& col = table.columns[i];
    if (col.distinct_count > 0) continue;
    const bool is_leading_key =
        !table.clustered_key.empty() && table.clustered_key[0] == col.name;
    col.distinct_count =
        is_leading_key ? std::max<int64_t>(1, table.row_count)
                       : std::max<int64_t>(1, std::min<int64_t>(table.row_count, 100));
    if (is_leading_key && col.min_value == 0 && col.max_value == 1e9) {
      col.min_value = 1;
      col.max_value = static_cast<double>(std::max<int64_t>(1, table.row_count));
    }
  }
  return db->AddTable(std::move(table));
}

Status ParseCreateIndex(TokenCursor* c, Database* db) {
  Index index;
  DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "index name", &index.name));
  if (!c->ConsumeKeyword("on")) return c->Expect("ON <table>");
  DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "table name", &index.table_name));
  if (!c->ConsumePunct('(')) return c->Expect("'(' starting key list");
  do {
    DBLAYOUT_RETURN_NOT_OK(
        ParseIdent(c, "key column", &index.key_columns.emplace_back()));
  } while (c->ConsumePunct(','));
  if (!c->ConsumePunct(')')) return c->Expect("')' closing key list");
  index.unique = c->ConsumeKeyword("unique");
  return db->AddIndex(std::move(index));
}

}  // namespace

Result<Database> ParseSchemaScript(const std::string& name, const std::string& script) {
  DBLAYOUT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(script));
  TokenCursor c(std::move(tokens), "schema: ");
  Database db(name);
  while (!c.AtEnd()) {
    if (c.ConsumePunct(';')) continue;
    if (!c.ConsumeKeyword("create")) return c.Expect("CREATE");
    if (c.ConsumeKeyword("table")) {
      DBLAYOUT_RETURN_NOT_OK(ParseCreateTable(&c, &db));
    } else if (c.ConsumeKeyword("index")) {
      DBLAYOUT_RETURN_NOT_OK(ParseCreateIndex(&c, &db));
    } else {
      return c.Expect("TABLE or INDEX after CREATE");
    }
    if (!c.ConsumePunct(';') && !c.AtEnd()) return c.Expect("';'");
  }
  if (db.tables().empty()) {
    return Status::InvalidArgument("schema script defines no tables");
  }
  return db;
}

std::string DumpSchema(const Database& db) {
  std::string out;
  for (const Table& t : db.tables()) {
    out += StrFormat("CREATE TABLE %s (\n", t.name.c_str());
    for (size_t i = 0; i < t.columns.size(); ++i) {
      const Column& c = t.columns[i];
      const char* type = c.type == ColumnType::kInt       ? "INT"
                         : c.type == ColumnType::kBigInt  ? "BIGINT"
                         : c.type == ColumnType::kDouble  ? "DOUBLE"
                         : c.type == ColumnType::kDecimal ? "DECIMAL"
                         : c.type == ColumnType::kChar    ? "CHAR"
                         : c.type == ColumnType::kVarchar ? "VARCHAR"
                                                          : "DATE";
      out += StrFormat("  %s %s", c.name.c_str(), type);
      if (c.type == ColumnType::kChar || c.type == ColumnType::kVarchar) {
        out += StrFormat("(%d)", c.declared_length);
      }
      out += StrFormat(" DISTINCT %lld", static_cast<long long>(c.distinct_count));
      if (c.type != ColumnType::kChar && c.type != ColumnType::kVarchar) {
        out += StrFormat(" RANGE %g %g", c.min_value, c.max_value);
      }
      if (!c.histogram.empty()) {
        std::vector<std::string> fs;
        for (double f : c.histogram.fractions) fs.push_back(StrFormat("%g", f));
        out += StrFormat(" HISTOGRAM (%s)", Join(fs, ", ").c_str());
      }
      out += i + 1 < t.columns.size() ? ",\n" : "\n";
    }
    out += StrFormat(") ROWS %lld", static_cast<long long>(t.row_count));
    if (!t.clustered_key.empty()) {
      out += StrFormat(" CLUSTERED (%s)", Join(t.clustered_key, ", ").c_str());
    }
    if (t.is_materialized_view) out += " MATERIALIZED VIEW";
    out += ";\n\n";
  }
  for (const Index& ix : db.indexes()) {
    out += StrFormat("CREATE INDEX %s ON %s (%s)%s;\n", ix.name.c_str(),
                     ix.table_name.c_str(), Join(ix.key_columns, ", ").c_str(),
                     ix.unique ? " UNIQUE" : "");
  }
  return out;
}

}  // namespace dblayout
