#include "sql/parser.h"

#include "common/strutil.h"
#include "sql/lexer.h"

namespace dblayout {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Result<double> ParseDateDays(const std::string& iso_date) {
  // Y-M-D, each field decimal digits read in place; a leading '-' is the
  // year's sign.
  const std::string_view s = iso_date;
  const size_t month_at = s.find('-', 1);
  const size_t day_at = month_at == std::string_view::npos
                            ? std::string_view::npos
                            : s.find('-', month_at + 1);
  std::optional<int> year, month, day;
  if (day_at != std::string_view::npos &&
      s.find_first_not_of("0123456789-") == std::string_view::npos) {
    year = ParseInt<int>(s.substr(0, month_at));
    month = ParseInt<int>(s.substr(month_at + 1, day_at - month_at - 1));
    day = ParseInt<int>(s.substr(day_at + 1));
  }
  if (!year || !month || !day || *month < 1 || *month > 12 || *day < 1 || *day > 31) {
    return Status::ParseError(StrFormat("bad date '%s'", iso_date.c_str()));
  }
  // Howard Hinnant's days-from-civil algorithm, in 64 bits so that no int
  // year overflows.
  const int m = *month;
  const int64_t y = int64_t{*year} - (m <= 2);
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2u) / 5u +
                       static_cast<unsigned>(*day) - 1u;
  const unsigned doe = yoe * 365u + yoe / 4u - yoe / 100u + doy;
  return static_cast<double>(era * 146097 + static_cast<int64_t>(doe) - 719468);
}

namespace {

/// DML identifiers: any identifier token except a reserved word.
Status ParseIdent(TokenCursor* c, const char* what, std::string* out) {
  const Token& t = c->Peek();
  if (t.kind != Token::Kind::kIdent || t.reserved) return c->Expect(what);
  c->TakeText(out);
  return Status::OK();
}

Status ParseColumnRef(TokenCursor* c, ColumnRef* ref) {
  DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "column name", &ref->column));
  if (c->ConsumePunct('.')) {
    ref->qualifier = std::move(ref->column);
    DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "column name after '.'", &ref->column));
  }
  return Status::OK();
}

Status ParseLiteral(TokenCursor* c, Literal* lit) {
  const Token& t = c->Peek();
  if (t.kind == Token::Kind::kNumber) {
    lit->kind = Literal::Kind::kNumber;
    lit->number = t.number;
    c->Next();
    return Status::OK();
  }
  if (t.kind == Token::Kind::kString) {
    lit->kind = Literal::Kind::kString;
    c->TakeText(&lit->text);
    return Status::OK();
  }
  if (c->PeekKeyword("date")) {
    c->Next();
    const Token& s = c->Peek();
    if (s.kind != Token::Kind::kString) return c->Expect("date string");
    DBLAYOUT_ASSIGN_OR_RETURN(lit->number, ParseDateDays(s.text));
    lit->kind = Literal::Kind::kDate;
    c->TakeText(&lit->text);
    return Status::OK();
  }
  if (c->PeekPunct('-')) {  // negative numbers
    c->Next();
    const Token& num = c->Peek();
    if (num.kind != Token::Kind::kNumber) return c->Expect("number after '-'");
    lit->kind = Literal::Kind::kNumber;
    lit->number = -num.number;
    c->Next();
    return Status::OK();
  }
  return c->Expect("literal");
}

Status ParseCompareOp(TokenCursor* c, CompareOp* op) {
  const Token& t = c->Peek();
  if (t.kind != Token::Kind::kPunct) return c->Expect("comparison operator");
  if (t.text == "=") {
    *op = CompareOp::kEq;
  } else if (t.text == "<>" || t.text == "!=") {
    *op = CompareOp::kNe;
  } else if (t.text == "<") {
    *op = CompareOp::kLt;
  } else if (t.text == "<=") {
    *op = CompareOp::kLe;
  } else if (t.text == ">") {
    *op = CompareOp::kGt;
  } else if (t.text == ">=") {
    *op = CompareOp::kGe;
  } else {
    return c->Expect("comparison operator");
  }
  c->Next();
  return Status::OK();
}

Status ParseSelect(TokenCursor* c, SelectStatement* sel);

Status ParsePredicate(TokenCursor* c, Predicate* p) {
  // [NOT] EXISTS (subquery)
  const bool negated = c->PeekKeyword("not");
  if (negated || c->PeekKeyword("exists")) {
    if (negated) {
      c->Next();
      if (!c->PeekKeyword("exists")) return c->Expect("EXISTS after NOT");
    }
    c->Next();  // exists
    if (!c->ConsumePunct('(')) return c->Expect("'(' after EXISTS");
    p->kind = Predicate::Kind::kExists;
    p->negated = negated;
    p->subquery = std::make_shared<SelectStatement>();
    DBLAYOUT_RETURN_NOT_OK(ParseSelect(c, p->subquery.get()));
    if (!c->ConsumePunct(')')) return c->Expect("')' closing EXISTS subquery");
    return Status::OK();
  }
  DBLAYOUT_RETURN_NOT_OK(ParseColumnRef(c, &p->lhs));
  if (c->ConsumeKeyword("between")) {
    p->kind = Predicate::Kind::kBetween;
    DBLAYOUT_RETURN_NOT_OK(ParseLiteral(c, &p->between_lo));
    if (!c->ConsumeKeyword("and")) return c->Expect("AND in BETWEEN");
    return ParseLiteral(c, &p->between_hi);
  }
  if (c->ConsumeKeyword("in")) {
    if (!c->ConsumePunct('(')) return c->Expect("'(' after IN");
    if (c->PeekKeyword("select")) {
      p->kind = Predicate::Kind::kInSubquery;
      p->subquery = std::make_shared<SelectStatement>();
      DBLAYOUT_RETURN_NOT_OK(ParseSelect(c, p->subquery.get()));
      if (!c->ConsumePunct(')')) return c->Expect("')' closing IN subquery");
      if (p->subquery->items.size() != 1 || p->subquery->items[0].star) {
        return Status::ParseError("IN subquery must select exactly one column");
      }
      return Status::OK();
    }
    p->kind = Predicate::Kind::kIn;
    do {
      DBLAYOUT_RETURN_NOT_OK(ParseLiteral(c, &p->in_list.emplace_back()));
    } while (c->ConsumePunct(','));
    if (!c->ConsumePunct(')')) return c->Expect("')' closing IN list");
    return Status::OK();
  }
  if (c->ConsumeKeyword("like")) {
    p->kind = Predicate::Kind::kLike;
    if (c->Peek().kind != Token::Kind::kString) return c->Expect("LIKE pattern string");
    c->TakeText(&p->like_pattern);
    return Status::OK();
  }
  DBLAYOUT_RETURN_NOT_OK(ParseCompareOp(c, &p->op));
  // Column-vs-column (join) or column-vs-literal?
  const Token& rhs = c->Peek();
  if (rhs.kind == Token::Kind::kIdent && !rhs.reserved) {
    p->kind = Predicate::Kind::kJoin;
    return ParseColumnRef(c, &p->rhs_column);
  }
  p->kind = Predicate::Kind::kCompareLiteral;
  return ParseLiteral(c, &p->rhs_literal);
}

Status ParseWhere(TokenCursor* c, std::vector<Predicate>* where) {
  if (!c->ConsumeKeyword("where")) return Status::OK();
  do {
    DBLAYOUT_RETURN_NOT_OK(ParsePredicate(c, &where->emplace_back()));
  } while (c->ConsumeKeyword("and"));
  return Status::OK();
}

AggFunc AggOf(const Token& t) {
  if (!t.reserved) return AggFunc::kNone;
  if (t.text == "count") return AggFunc::kCount;
  if (t.text == "sum") return AggFunc::kSum;
  if (t.text == "avg") return AggFunc::kAvg;
  if (t.text == "min") return AggFunc::kMin;
  if (t.text == "max") return AggFunc::kMax;
  return AggFunc::kNone;
}

Status ParseSelectItem(TokenCursor* c, SelectItem* item) {
  const AggFunc agg = AggOf(c->Peek());
  if (agg != AggFunc::kNone && c->PeekPunct('(', 1)) {
    item->agg = agg;
    c->Next();
    c->Next();  // '('
    if (c->ConsumePunct('*')) {
      item->star = true;
    } else {
      DBLAYOUT_RETURN_NOT_OK(ParseColumnRef(c, &item->column));
    }
    if (!c->ConsumePunct(')')) return c->Expect("')' closing aggregate");
  } else if (c->ConsumePunct('*')) {
    item->star = true;
  } else {
    DBLAYOUT_RETURN_NOT_OK(ParseColumnRef(c, &item->column));
  }
  if (c->ConsumeKeyword("as")) return ParseIdent(c, "alias", &item->alias);
  return Status::OK();
}

Status ParseSelect(TokenCursor* c, SelectStatement* sel) {
  if (!c->ConsumeKeyword("select")) return c->Expect("SELECT");
  if (c->ConsumeKeyword("top")) {
    const Token& n = c->Peek();
    if (n.kind != Token::Kind::kNumber) return c->Expect("number after TOP");
    const std::optional<int64_t> top = ToInt64(n.number);
    if (!top) return c->Expect("TOP count below 2^63");
    sel->top = *top;
    c->Next();
  }
  c->ConsumeKeyword("distinct");  // accepted, treated as a no-op for layout
  do {
    DBLAYOUT_RETURN_NOT_OK(ParseSelectItem(c, &sel->items.emplace_back()));
  } while (c->ConsumePunct(','));
  if (!c->ConsumeKeyword("from")) return c->Expect("FROM");
  do {
    TableRef& ref = sel->from.emplace_back();
    DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "table name", &ref.table));
    if (c->ConsumeKeyword("as") ||
        (c->Peek().kind == Token::Kind::kIdent && !c->Peek().reserved)) {
      DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "table alias", &ref.alias));
    }
  } while (c->ConsumePunct(','));
  DBLAYOUT_RETURN_NOT_OK(ParseWhere(c, &sel->where));
  if (c->ConsumeKeyword("group")) {
    if (!c->ConsumeKeyword("by")) return c->Expect("BY after GROUP");
    do {
      DBLAYOUT_RETURN_NOT_OK(ParseColumnRef(c, &sel->group_by.emplace_back()));
    } while (c->ConsumePunct(','));
  }
  if (c->ConsumeKeyword("order")) {
    if (!c->ConsumeKeyword("by")) return c->Expect("BY after ORDER");
    do {
      OrderItem& item = sel->order_by.emplace_back();
      DBLAYOUT_RETURN_NOT_OK(ParseColumnRef(c, &item.column));
      if (c->ConsumeKeyword("desc")) {
        item.descending = true;
      } else {
        c->ConsumeKeyword("asc");
      }
    } while (c->ConsumePunct(','));
  }
  return Status::OK();
}

Status ParseStatement(TokenCursor* c, SqlStatement* stmt) {
  // Scratch for the parts the AST does not keep: INSERT's column list and
  // values, UPDATE's SET right-hand sides.
  std::string ident;
  Literal literal;
  ColumnRef column;
  if (c->PeekKeyword("select")) {
    stmt->kind = SqlStatement::Kind::kSelect;
    DBLAYOUT_RETURN_NOT_OK(ParseSelect(c, &stmt->select));
  } else if (c->ConsumeKeyword("insert")) {
    stmt->kind = SqlStatement::Kind::kInsert;
    if (!c->ConsumeKeyword("into")) return c->Expect("INTO after INSERT");
    DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "table name", &stmt->insert.table));
    if (c->ConsumePunct('(')) {  // optional column list
      do {
        DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "column name", &ident));
      } while (c->ConsumePunct(','));
      if (!c->ConsumePunct(')')) return c->Expect("')' closing column list");
    }
    if (!c->ConsumeKeyword("values")) return c->Expect("VALUES");
    // One or more parenthesized tuples; each counts as one row.
    int64_t rows = 0;
    do {
      if (!c->ConsumePunct('(')) return c->Expect("'(' starting VALUES tuple");
      do {
        DBLAYOUT_RETURN_NOT_OK(ParseLiteral(c, &literal));
      } while (c->ConsumePunct(','));
      if (!c->ConsumePunct(')')) return c->Expect("')' closing VALUES tuple");
      ++rows;
    } while (c->ConsumePunct(','));
    stmt->insert.num_rows = rows;
  } else if (c->ConsumeKeyword("update")) {
    stmt->kind = SqlStatement::Kind::kUpdate;
    DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "table name", &stmt->update.table));
    if (!c->ConsumeKeyword("set")) return c->Expect("SET");
    do {
      DBLAYOUT_RETURN_NOT_OK(
          ParseIdent(c, "column name", &stmt->update.set_columns.emplace_back()));
      if (!c->ConsumePunct('=')) return c->Expect("'=' in SET");
      // RHS: literal or column (arithmetic not modeled).
      const Token& rhs = c->Peek();
      DBLAYOUT_RETURN_NOT_OK(rhs.kind == Token::Kind::kIdent && !rhs.reserved
                                 ? ParseColumnRef(c, &column)
                                 : ParseLiteral(c, &literal));
    } while (c->ConsumePunct(','));
    DBLAYOUT_RETURN_NOT_OK(ParseWhere(c, &stmt->update.where));
  } else if (c->ConsumeKeyword("delete")) {
    stmt->kind = SqlStatement::Kind::kDelete;
    c->ConsumeKeyword("from");
    DBLAYOUT_RETURN_NOT_OK(ParseIdent(c, "table name", &stmt->del.table));
    DBLAYOUT_RETURN_NOT_OK(ParseWhere(c, &stmt->del.where));
  } else {
    return c->Expect("SELECT, INSERT, UPDATE or DELETE");
  }
  c->ConsumePunct(';');
  return Status::OK();
}

}  // namespace

Result<SqlStatement> ParseSql(const std::string& sql) {
  DBLAYOUT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  TokenCursor c(std::move(tokens), "");
  SqlStatement stmt;
  DBLAYOUT_RETURN_NOT_OK(ParseStatement(&c, &stmt));
  if (!c.AtEnd()) return c.Expect("end of statement");
  return stmt;
}

Result<std::vector<SqlStatement>> ParseSqlScript(const std::string& script) {
  // Normalize GO separators (SQL Server batch delimiters) into ';'.
  std::string normalized;
  for (const std::string& line : Split(script, '\n')) {
    if (ToLower(Trim(line)) == "go") {
      normalized += ";\n";
    } else {
      normalized += line;
      normalized += '\n';
    }
  }
  DBLAYOUT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(normalized));
  TokenCursor c(std::move(tokens), "");
  std::vector<SqlStatement> out;
  while (!c.AtEnd()) {
    if (c.ConsumePunct(';')) continue;
    DBLAYOUT_RETURN_NOT_OK(ParseStatement(&c, &out.emplace_back()));
  }
  return out;
}

}  // namespace dblayout
