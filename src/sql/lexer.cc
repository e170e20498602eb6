#include "sql/lexer.h"

#include <cctype>
#include <cstdlib>
#include <string_view>
#include <unordered_set>

#include "common/strutil.h"

namespace dblayout {

namespace {

bool IsReservedWord(std::string_view word) {
  static const std::unordered_set<std::string_view> kReserved = {
      "select", "from",  "where", "group",  "order", "by",   "and",   "as",
      "insert", "into",  "values", "update", "set",   "delete", "between",
      "in",     "like",  "top",   "count",  "sum",   "avg",  "min",   "max",
      "asc",    "desc",  "date",  "go", "distinct", "or", "not", "having"};
  return kReserved.count(word) > 0;
}

bool IsSinglePunct(char c) {
  switch (c) {
    case '(': case ')': case ',': case '.': case '*': case '=': case '<':
    case '>': case ';': case '+': case '-': case '/': case '%':
      return true;
    default:
      return false;
  }
}

bool IsTwoCharOperator(char c, char d) {
  return (c == '<' && (d == '>' || d == '=')) || (c == '!' && d == '=') ||
         (c == '>' && d == '=');
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  const size_t n = sql.size();
  std::vector<Token> tokens;
  tokens.reserve(n / 4 + 2);  // SQL text averages ~6 bytes per token
  size_t i = 0;
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {  // line comment
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token& t = tokens.emplace_back();
    t.pos = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(sql[j])) || sql[j] == '_')) ++j;
      t.kind = Token::Kind::kIdent;
      t.text.resize(j - i);
      for (size_t k = i; k < j; ++k) {
        t.text[k - i] =
            static_cast<char>(std::tolower(static_cast<unsigned char>(sql[k])));
      }
      t.reserved = IsReservedWord(t.text);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t j = i;
      while (j < n && (std::isdigit(static_cast<unsigned char>(sql[j])) || sql[j] == '.' ||
                       sql[j] == 'e' || sql[j] == 'E' ||
                       ((sql[j] == '+' || sql[j] == '-') && j > i &&
                        (sql[j - 1] == 'e' || sql[j - 1] == 'E')))) {
        ++j;
      }
      t.kind = Token::Kind::kNumber;
      t.text.assign(sql, i, j - i);
      t.number = std::strtod(t.text.c_str(), nullptr);
      i = j;
    } else if (c == '\'') {
      // Copy the runs between escaped quotes ('') straight into the token.
      size_t j = i + 1;
      for (;;) {
        const size_t quote = sql.find('\'', j);
        if (quote == std::string::npos) {
          return Status::ParseError(StrFormat("unterminated string at offset %zu", i));
        }
        t.text.append(sql, j, quote - j);
        if (quote + 1 < n && sql[quote + 1] == '\'') {
          t.text += '\'';
          j = quote + 2;
        } else {
          j = quote + 1;
          break;
        }
      }
      t.kind = Token::Kind::kString;
      i = j;
    } else if (i + 1 < n && IsTwoCharOperator(c, sql[i + 1])) {
      t.kind = Token::Kind::kPunct;
      t.text.assign(sql, i, 2);
      i += 2;
    } else if (IsSinglePunct(c)) {
      t.kind = Token::Kind::kPunct;
      t.text.assign(1, c);
      ++i;
    } else {
      return Status::ParseError(
          StrFormat("unexpected character '%c' at offset %zu", c, i));
    }
  }
  Token& end = tokens.emplace_back();
  end.kind = Token::Kind::kEnd;
  end.pos = n;
  return tokens;
}

Status TokenCursor::Expect(const char* what) const {
  return Status::ParseError(StrFormat("%sexpected %s near offset %zu (got '%s')",
                                      error_prefix_, what, Peek().pos,
                                      Peek().text.c_str()));
}

}  // namespace dblayout
