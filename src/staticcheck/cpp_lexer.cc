#include "staticcheck/cpp_lexer.h"

#include <cctype>

#include "common/strutil.h"

namespace dblayout::staticcheck {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Multi-character punctuation, longest first within each leading char.
/// Three-char tokens checked before two-char ones by the caller.
const char* const kPunct3[] = {"<<=", ">>=", "...", "->*", nullptr};
const char* const kPunct2[] = {"::", "->", "++", "--", "+=", "-=", "*=", "/=",
                               "%=", "==", "!=", "<=", ">=", "&&", "||", "<<",
                               ">>", "&=", "|=", "^=", ".*", nullptr};

/// Parses a suppression marker out of one line comment's text, if present.
/// The marker must be the comment's leading content ("// dblayout-check(rule):
/// why"); a mid-sentence mention of the syntax in prose is not a suppression.
void ParseSuppression(const std::string& comment, int line,
                      std::vector<SuppressionComment>* out) {
  const std::string kTag = "dblayout-check(";
  size_t tag = 0;
  while (tag < comment.size() && (comment[tag] == '/' || comment[tag] == '!')) {
    ++tag;  // doc-comment prefixes: "/// dblayout-check(...)", "//! ..."
  }
  while (tag < comment.size() && (comment[tag] == ' ' || comment[tag] == '\t')) {
    ++tag;
  }
  if (comment.compare(tag, kTag.size(), kTag) != 0) return;
  const size_t rule_begin = tag + kTag.size();
  const size_t rule_end = comment.find(')', rule_begin);
  if (rule_end == std::string::npos) return;
  SuppressionComment s;
  s.rule = Trim(comment.substr(rule_begin, rule_end - rule_begin));
  s.line = line;
  size_t rest = rule_end + 1;
  if (rest < comment.size() && comment[rest] == ':') ++rest;
  s.justification = Trim(comment.substr(rest));
  out->push_back(std::move(s));
}

}  // namespace

LexedSource LexCpp(const std::string& content) {
  LexedSource out;
  const size_t n = content.size();
  size_t i = 0;
  int line = 1;

  auto push = [&](TokKind kind, std::string text, int at) {
    out.tokens.push_back(Tok{kind, std::move(text), at});
  };

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Line comment: harvest suppression markers, skip the rest.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      const size_t begin = i + 2;
      size_t end = begin;
      while (end < n && content[end] != '\n') ++end;
      ParseSuppression(content.substr(begin, end - begin), line, &out.suppressions);
      i = end;
      continue;
    }
    // Block comment: suppression markers are line-comment-only; just skip.
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') ++line;
        ++i;
      }
      i = i + 1 < n ? i + 2 : n;
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && content[i + 1] == '"') {
      const int at = line;
      size_t d = i + 2;
      while (d < n && content[d] != '(' && content[d] != '"' && content[d] != '\n') ++d;
      if (d < n && content[d] == '(') {
        const std::string delim = content.substr(i + 2, d - (i + 2));
        const std::string close = ")" + delim + "\"";
        const size_t body = d + 1;
        size_t end = content.find(close, body);
        if (end == std::string::npos) end = n;
        std::string text = content.substr(body, end - body);
        for (char ch : text) {
          if (ch == '\n') ++line;
        }
        push(TokKind::kString, std::move(text), at);
        i = end == n ? n : end + close.size();
        continue;
      }
      // Not actually a raw string ("R" then a plain literal); fall through to
      // identifier handling for the R.
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const int at = line;
      const char quote = c;
      size_t j = i + 1;
      std::string text;
      while (j < n && content[j] != quote) {
        if (content[j] == '\\' && j + 1 < n) {
          text += content[j];
          text += content[j + 1];
          j += 2;
          continue;
        }
        if (content[j] == '\n') ++line;  // unterminated; keep line counts sane
        text += content[j];
        ++j;
      }
      push(quote == '"' ? TokKind::kString : TokKind::kChar, std::move(text), at);
      i = j < n ? j + 1 : n;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(content[j])) ++j;
      push(TokKind::kIdentifier, content.substr(i, j - i), line);
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(content[i + 1])) != 0)) {
      // pp-number: digits, idents, dots, quotes (digit separators), exponent
      // signs. Close enough for pattern rules.
      size_t j = i + 1;
      while (j < n && (IsIdentChar(content[j]) || content[j] == '.' || content[j] == '\'' ||
                       ((content[j] == '+' || content[j] == '-') &&
                        (content[j - 1] == 'e' || content[j - 1] == 'E' ||
                         content[j - 1] == 'p' || content[j - 1] == 'P')))) {
        ++j;
      }
      push(TokKind::kNumber, content.substr(i, j - i), line);
      i = j;
      continue;
    }
    // Punctuation, maximal munch.
    bool matched = false;
    if (i + 2 < n) {
      const std::string three = content.substr(i, 3);
      for (const char* const* p = kPunct3; *p != nullptr; ++p) {
        if (three == *p) {
          push(TokKind::kPunct, three, line);
          i += 3;
          matched = true;
          break;
        }
      }
    }
    if (!matched && i + 1 < n) {
      const std::string two = content.substr(i, 2);
      for (const char* const* p = kPunct2; *p != nullptr; ++p) {
        if (two == *p) {
          push(TokKind::kPunct, two, line);
          i += 2;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      push(TokKind::kPunct, std::string(1, c), line);
      ++i;
    }
  }
  return out;
}

size_t MatchForward(const std::vector<Tok>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "(" || t == "[" || t == "{") {
      ++depth;
    } else if (t == ")" || t == "]" || t == "}") {
      if (--depth == 0) return i;
    }
  }
  return toks.size();
}

}  // namespace dblayout::staticcheck
