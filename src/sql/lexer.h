// SQL tokenizer and the token cursor both readers (the DML parser and the
// schema DDL parser) walk. Keywords are case-insensitive; identifiers are
// lowercased, so the parsers and binder match them case-insensitively.

#ifndef DBLAYOUT_SQL_LEXER_H_
#define DBLAYOUT_SQL_LEXER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace dblayout {

struct Token {
  enum class Kind { kIdent, kNumber, kString, kPunct, kEnd };
  Kind kind = Kind::kEnd;
  /// kIdent only: one of the DML subset's reserved words (SELECT, FROM, AND,
  /// COUNT, DATE, ...), which cannot name a table, column or alias in DML.
  /// Classified once, when the token is lexed.
  bool reserved = false;
  std::string text;   ///< identifier / punct text (identifiers lowercased)
  double number = 0;  ///< numeric value for kNumber
  size_t pos = 0;     ///< byte offset in the input, for error messages
};

/// Tokenizes `sql`. Recognized punctuation: ( ) , . * = <> != < <= > >= ;
/// + - / %. Strings use single quotes with '' as escape. Errors on
/// unterminated strings or unexpected characters.
Result<std::vector<Token>> Tokenize(const std::string& sql);

/// One-token-lookahead cursor over Tokenize's output. The cursor never
/// moves back, so a consumed token's text can be moved out (TakeText).
class TokenCursor {
 public:
  /// `error_prefix` starts every Expect message ("schema: " for the DDL).
  TokenCursor(std::vector<Token> tokens, const char* error_prefix)
      : tokens_(std::move(tokens)), error_prefix_(error_prefix) {}

  const Token& Peek(size_t ahead = 0) const {
    const size_t k = pos_ + ahead;
    return k < tokens_.size() ? tokens_[k] : tokens_.back();
  }
  /// Consumes the current token (the final kEnd token is never consumed).
  const Token& Next() {
    const Token& t = tokens_[pos_];
    if (pos_ < tokens_.size() - 1) ++pos_;
    return t;
  }
  /// Consumes the current token and moves its text into `out`.
  void TakeText(std::string* out) {
    *out = std::move(tokens_[pos_].text);
    Next();
  }
  bool AtEnd() const { return Peek().kind == Token::Kind::kEnd; }

  bool PeekKeyword(const char* kw) const {
    const Token& t = Peek();
    return t.kind == Token::Kind::kIdent && t.text == kw;
  }
  bool ConsumeKeyword(const char* kw) {
    if (!PeekKeyword(kw)) return false;
    Next();
    return true;
  }
  /// True if the token `ahead` is the one-character punctuation `p`.
  bool PeekPunct(char p, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == Token::Kind::kPunct && t.text.size() == 1 && t.text[0] == p;
  }
  bool ConsumePunct(char p) {
    if (!PeekPunct(p)) return false;
    Next();
    return true;
  }
  /// "expected <what> near offset <pos> (got '<text>')" at the current token.
  Status Expect(const char* what) const;

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const char* error_prefix_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_SQL_LEXER_H_
