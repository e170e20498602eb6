// A minimal C++ token-stream lexer for dblayout's own sources.
//
// dblayout check (src/staticcheck/) analyzes the repository's C++ files for
// determinism and concurrency hazards. It deliberately does not depend on
// libclang: the rules it enforces are lexical/structural patterns (iteration
// over unordered containers, raw rand() calls, default by-reference lambda
// captures handed to the thread pool), so a token stream with line numbers
// is enough — the same spirit as src/sql/lexer.h, but over C++ instead of
// the paper's SQL subset.
//
// The lexer understands comments (and harvests `// dblayout-check(<rule>):
// <justification>` suppression markers from them), string/char literals
// including raw strings, numbers, identifiers, and maximal-munch punctuation
// (so `==` is one token and a lone `=` inside a DCHECK really is an
// assignment). Preprocessor lines are tokenized like ordinary code; rules
// are written so directive tokens do not confuse them.

#ifndef DBLAYOUT_STATICCHECK_CPP_LEXER_H_
#define DBLAYOUT_STATICCHECK_CPP_LEXER_H_

#include <string>
#include <vector>

namespace dblayout::staticcheck {

enum class TokKind {
  kIdentifier,  ///< identifiers and keywords (no keyword table needed)
  kNumber,      ///< integer / floating literals, pp-numbers
  kString,      ///< "..." and R"(...)" (text excludes quotes/delimiters)
  kChar,        ///< '...'
  kPunct,       ///< operators and punctuation, maximal munch
};

struct Tok {
  TokKind kind = TokKind::kPunct;
  std::string text;
  int line = 1;  ///< 1-based line of the token's first character

  bool is(const char* t) const { return text == t; }
  bool ident(const char* t) const { return kind == TokKind::kIdentifier && text == t; }
};

/// One `// dblayout-check(<rule>): <justification>` marker. Suppresses
/// findings of `rule` on its own line and the line directly below (so the
/// marker can sit above the offending statement). An empty justification
/// does not suppress — the runner reports it via invalid-suppression.
struct SuppressionComment {
  std::string rule;
  std::string justification;
  int line = 1;
};

struct LexedSource {
  std::vector<Tok> tokens;
  std::vector<SuppressionComment> suppressions;
};

/// Tokenizes `content`. Never fails: unrecognized bytes become single-char
/// punct tokens, an unterminated literal consumes to end of input.
LexedSource LexCpp(const std::string& content);

/// Index of the token matching the opener at `open` ("(", "[", "{"); tracks
/// all three bracket kinds. Returns toks.size() when unbalanced.
size_t MatchForward(const std::vector<Tok>& toks, size_t open);

}  // namespace dblayout::staticcheck

#endif  // DBLAYOUT_STATICCHECK_CPP_LEXER_H_
