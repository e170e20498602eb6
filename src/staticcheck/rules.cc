// The token-level dblayout check rules: deterministic walks over one file's
// token stream plus the cross-file SymbolIndex. The scope-aware rules
// (unannotated-mutex-field, determinism-taint) live in rules_scoped.cc;
// DESIGN.md §11 maps each rule to the guarantee it protects.

#include <set>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "staticcheck/staticcheck.h"

namespace dblayout::staticcheck {
namespace {

using Toks = std::vector<Tok>;

bool IsMutatingPunct(const Tok& t) {
  return t.is("++") || t.is("--") || t.is("=") || t.is("+=") || t.is("-=") ||
         t.is("*=") || t.is("/=") || t.is("%=") || t.is("&=") || t.is("|=") ||
         t.is("^=") || t.is("<<=") || t.is(">>=");
}

/// One detected range-for whose range expression resolves to an unordered
/// container (by value name, returning function, or indexed element).
struct UnorderedLoop {
  int line = 0;
  std::string symbol;      ///< the unordered name the range hit
  size_t body_begin = 0;   ///< token range of the loop body
  size_t body_end = 0;     ///< exclusive
  bool accumulates = false;
};

/// Finds range-fors over unordered containers and classifies their bodies.
std::vector<UnorderedLoop> FindUnorderedLoops(const SourceFile& file,
                                              const SymbolIndex& index) {
  const Toks& toks = file.lex.tokens;
  std::vector<UnorderedLoop> out;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].ident("for") || !toks[i + 1].is("(")) continue;
    const size_t close = MatchForward(toks, i + 1);
    if (close >= toks.size()) continue;
    // Range-for: a ':' directly inside the parens, before any ';' and not
    // belonging to a '?:' or '::'.
    size_t colon = 0;
    {
      int depth = 0;
      int ternary = 0;
      for (size_t j = i + 2; j < close; ++j) {
        const std::string& t = toks[j].text;
        if (t == "(" || t == "[" || t == "{") {
          ++depth;
        } else if (t == ")" || t == "]" || t == "}") {
          --depth;
        } else if (depth == 0) {
          if (t == ";") break;  // classic for
          if (t == "?") ++ternary;
          if (t == ":") {
            if (ternary > 0) {
              --ternary;
            } else {
              colon = j;
              break;
            }
          }
        }
      }
    }
    if (colon == 0) continue;
    // Does the range expression source from an unordered container?
    std::string symbol;
    for (size_t j = colon + 1; j < close && symbol.empty(); ++j) {
      if (toks[j].kind != TokKind::kIdentifier) continue;
      const std::string& name = toks[j].text;
      const bool call_next = j + 1 < close && toks[j + 1].is("(");
      const bool index_next = j + 1 < close && toks[j + 1].is("[");
      if (index.unordered_values.count(name) > 0) symbol = name;
      if (call_next && index.unordered_functions.count(name) > 0) symbol = name;
      if (index_next && index.unordered_element_values.count(name) > 0) {
        symbol = name;
      }
    }
    if (symbol.empty()) continue;

    UnorderedLoop loop;
    loop.line = toks[i].line;
    loop.symbol = symbol;
    if (close + 1 < toks.size() && toks[close + 1].is("{")) {
      loop.body_begin = close + 2;
      loop.body_end = MatchForward(toks, close + 1);
    } else {
      loop.body_begin = close + 1;
      loop.body_end = loop.body_begin;
      int depth = 0;
      for (size_t j = loop.body_begin; j < toks.size(); ++j) {
        const std::string& t = toks[j].text;
        if (t == "(" || t == "[" || t == "{") ++depth;
        if (t == ")" || t == "]" || t == "}") --depth;
        if (depth == 0 && t == ";") {
          loop.body_end = j;
          break;
        }
      }
    }
    for (size_t j = loop.body_begin; j < loop.body_end && j < toks.size(); ++j) {
      const Tok& t = toks[j];
      if (t.is("+=") || t.is("-=") || t.is("*=") || t.is("/=") || t.is("<<") ||
          t.ident("push_back") || t.ident("emplace_back") || t.ident("insert") ||
          t.ident("append")) {
        loop.accumulates = true;
        break;
      }
    }
    out.push_back(std::move(loop));
  }
  return out;
}

// --- Rules -----------------------------------------------------------------

/// unordered-accumulation: hash-order iteration feeding accumulation or
/// ordered output. Float addition is not associative, so the sum (or the
/// emitted sequence) depends on hash-bucket order — exactly the class of
/// nondeterminism the bit-identical-results guarantee forbids.
class UnorderedAccumulationRule : public CheckRule {
 public:
  const char* id() const override { return "unordered-accumulation"; }
  const char* summary() const override {
    return "iteration over an unordered container must not feed accumulation "
           "or ordered output (hash order changes the result)";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const SourceFile& file, const CheckContext& ctx,
             std::vector<Diagnostic>* out) const override {
    const SymbolIndex& index = ctx.index;
    for (const UnorderedLoop& loop : FindUnorderedLoops(file, index)) {
      if (!loop.accumulates) continue;
      out->push_back(MakeDiag(
          id(), severity(), loop.line,
          StrFormat("range-for over unordered container '%s' accumulates or "
                    "emits output in hash order",
                    loop.symbol.c_str()),
          "iterate a sorted view (e.g. WeightedGraph::SortedNeighbors / "
          "SortedEdges) or accumulate into an order-insensitive structure"));
    }
  }
};

/// unordered-iteration-order: any other hash-order iteration. Weaker than
/// the accumulation form — the body may be genuinely order-independent
/// (per-element checks) — hence a warning that wants a justification.
class UnorderedIterationRule : public CheckRule {
 public:
  const char* id() const override { return "unordered-iteration-order"; }
  const char* summary() const override {
    return "iteration over an unordered container is hash-order dependent; "
           "justify order-independence or iterate a sorted view";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const SourceFile& file, const CheckContext& ctx,
             std::vector<Diagnostic>* out) const override {
    const SymbolIndex& index = ctx.index;
    for (const UnorderedLoop& loop : FindUnorderedLoops(file, index)) {
      if (loop.accumulates) continue;  // reported by unordered-accumulation
      out->push_back(MakeDiag(
          id(), severity(), loop.line,
          StrFormat("range-for over unordered container '%s' visits elements "
                    "in hash order",
                    loop.symbol.c_str()),
          "if every iteration is order-independent, suppress with a "
          "justification; otherwise iterate a sorted view"));
    }
  }
};

/// raw-random: entropy sources outside common/rng.h. All randomness must be
/// seed-threaded through dblayout::Rng so runs are reproducible.
class RawRandomRule : public CheckRule {
 public:
  const char* id() const override { return "raw-random"; }
  const char* summary() const override {
    return "raw entropy (rand, srand, std::random_device, raw engines) is "
           "banned outside common/rng.h; thread an explicit seed through "
           "dblayout::Rng";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const SourceFile& file, const CheckContext&,
             std::vector<Diagnostic>* out) const override {
    static const std::set<std::string> kBanned = {
        "rand",          "srand",          "rand_r",       "drand48",
        "lrand48",       "mrand48",        "random_device", "mt19937",
        "mt19937_64",    "minstd_rand",    "minstd_rand0",
        "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};
    const Toks& toks = file.lex.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier || kBanned.count(toks[i].text) == 0) {
        continue;
      }
      if (i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"))) continue;
      out->push_back(MakeDiag(
          id(), severity(), toks[i].line,
          StrFormat("raw entropy source '%s' bypasses the seeded Rng",
                    toks[i].text.c_str()),
          "use dblayout::Rng with an explicit seed (common/rng.h)"));
    }
  }
};

/// parallel-default-ref-capture: a `[&]` lambda handed to
/// ThreadPool::ParallelFor captures every enclosing local by reference,
/// hiding which shared state the workers touch. Deterministic fan-out
/// requires naming the captures (self-documenting the sharing) or visible
/// synchronization in the body.
class ParallelCaptureRule : public CheckRule {
 public:
  const char* id() const override { return "parallel-default-ref-capture"; }
  const char* summary() const override {
    return "lambdas given to ThreadPool::ParallelFor must name their "
           "captures (no bare [&]) unless the body shows synchronization";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const SourceFile& file, const CheckContext&,
             std::vector<Diagnostic>* out) const override {
    const Toks& toks = file.lex.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!toks[i].ident("ParallelFor") || !toks[i + 1].is("(")) continue;
      const size_t close = MatchForward(toks, i + 1);
      for (size_t j = i + 2; j + 2 < close; ++j) {
        if (!(toks[j].is("[") && toks[j + 1].is("&") && toks[j + 2].is("]"))) {
          continue;
        }
        // Lambda body: first '{' after the intro (past any parameter list).
        size_t brace = j + 3;
        while (brace < toks.size() && !toks[brace].is("{")) {
          if (toks[brace].is("(")) {
            brace = MatchForward(toks, brace);
            if (brace >= toks.size()) break;
          }
          ++brace;
        }
        if (brace >= toks.size()) continue;
        const size_t body_end = MatchForward(toks, brace);
        bool synced = false;
        for (size_t k = brace + 1; k < body_end && k < toks.size(); ++k) {
          const Tok& t = toks[k];
          if (t.kind != TokKind::kIdentifier) continue;
          if (t.text == "mutex" || t.text == "MutexLock" || t.text == "lock_guard" ||
              t.text == "unique_lock" || t.text == "scoped_lock" ||
              t.text == "atomic" || t.text == "load" || t.text == "store" ||
              t.text == "fetch_add" || t.text == "fetch_sub" ||
              (t.text.size() > 3 &&
               t.text.compare(t.text.size() - 3, 3, "_mu") == 0) ||
              t.text == "mu_" || t.text == "mu") {
            synced = true;
            break;
          }
        }
        if (synced) continue;
        out->push_back(MakeDiag(
            id(), severity(), toks[j].line,
            "thread-pool lambda uses a default by-reference capture [&]",
            "name the captured state explicitly ([&costs, &cands, ...]) so "
            "shared mutation is visible, or synchronize in the body"));
      }
    }
  }
};

/// pointer-key-container: std::map/std::set keyed on a pointer iterate in
/// address order, which varies run to run with ASLR and allocation order.
class PointerKeyRule : public CheckRule {
 public:
  const char* id() const override { return "pointer-key-container"; }
  const char* summary() const override {
    return "std::map/std::set keyed on a raw pointer iterates in address "
           "order, which varies run to run";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const SourceFile& file, const CheckContext&,
             std::vector<Diagnostic>* out) const override {
    const Toks& toks = file.lex.tokens;
    for (size_t i = 2; i + 1 < toks.size(); ++i) {
      const std::string& name = toks[i].text;
      if (toks[i].kind != TokKind::kIdentifier ||
          (name != "map" && name != "set" && name != "multimap" &&
           name != "multiset")) {
        continue;
      }
      if (!(toks[i - 1].is("::") && toks[i - 2].ident("std"))) continue;
      if (!toks[i + 1].is("<")) continue;
      // First template argument: up to a ',' or the matching close at depth 1.
      size_t last = 0;
      int depth = 1;
      for (size_t j = i + 2; j < toks.size(); ++j) {
        const std::string& t = toks[j].text;
        if (t == "<" || t == "(") {
          ++depth;
        } else if (t == ">" || t == ")") {
          --depth;
        } else if (t == ">>") {
          depth -= 2;
        }
        if (depth <= 0 || (depth == 1 && t == ",")) break;
        last = j;
      }
      if (last != 0 && toks[last].is("*")) {
        out->push_back(MakeDiag(
            id(), severity(), toks[i].line,
            StrFormat("std::%s keyed on a raw pointer (address-ordered "
                      "iteration)",
                      name.c_str()),
            "key on a stable id (object index, name) or sort an explicit "
            "vector by a deterministic field"));
      }
    }
  }
};

/// dcheck-side-effect: DBLAYOUT_DCHECK* arguments are compiled out in
/// release builds, so a mutation inside one changes behavior between build
/// modes — the checked and unchecked binaries diverge.
class DcheckSideEffectRule : public CheckRule {
 public:
  const char* id() const override { return "dcheck-side-effect"; }
  const char* summary() const override {
    return "DBLAYOUT_DCHECK*/CHECK arguments must be side-effect free "
           "(debug-only evaluation would change release behavior)";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const SourceFile& file, const CheckContext&,
             std::vector<Diagnostic>* out) const override {
    const Toks& toks = file.lex.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier) continue;
      const std::string& name = toks[i].text;
      const bool is_check = name == "DBLAYOUT_CHECK" ||
                            name.rfind("DBLAYOUT_DCHECK", 0) == 0;
      if (!is_check || !toks[i + 1].is("(")) continue;
      // Skip the macro definitions themselves (`#define DBLAYOUT_DCHECK...`).
      if (i >= 2 && toks[i - 1].ident("define") && toks[i - 2].is("#")) continue;
      const size_t close = MatchForward(toks, i + 1);
      for (size_t j = i + 2; j < close && j < toks.size(); ++j) {
        if (IsMutatingPunct(toks[j])) {
          out->push_back(MakeDiag(
              id(), severity(), toks[i].line,
              StrFormat("%s argument contains mutating operator '%s'",
                        name.c_str(), toks[j].text.c_str()),
              "hoist the mutation out of the check; checks may only observe"));
          break;
        }
      }
    }
  }
};

/// raw-thread: all parallelism must flow through the deterministic
/// ThreadPool (fixed worker model, index self-scheduling); ad-hoc threads
/// reintroduce scheduling-dependent results.
class RawThreadRule : public CheckRule {
 public:
  const char* id() const override { return "raw-thread"; }
  const char* summary() const override {
    return "direct std::thread/std::async/pthread use outside "
           "common/thread_pool bypasses the deterministic pool";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const SourceFile& file, const CheckContext&,
             std::vector<Diagnostic>* out) const override {
    const Toks& toks = file.lex.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdentifier) continue;
      const std::string& name = toks[i].text;
      const bool std_qualified =
          i >= 2 && toks[i - 1].is("::") && toks[i - 2].ident("std");
      if (((name == "thread" || name == "jthread" || name == "async") &&
           std_qualified) ||
          name == "pthread_create") {
        out->push_back(MakeDiag(
            id(), severity(), toks[i].line,
            StrFormat("direct thread primitive 'std::%s'", name.c_str()),
            "fan out through ThreadPool::ParallelFor so results stay "
            "thread-count invariant"));
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<CheckRule>> DefaultCheckRules() {
  std::vector<std::unique_ptr<CheckRule>> rules;
  rules.push_back(std::make_unique<UnorderedAccumulationRule>());
  rules.push_back(std::make_unique<UnorderedIterationRule>());
  rules.push_back(std::make_unique<RawRandomRule>());
  rules.push_back(std::make_unique<ParallelCaptureRule>());
  rules.push_back(std::make_unique<PointerKeyRule>());
  rules.push_back(std::make_unique<DcheckSideEffectRule>());
  rules.push_back(std::make_unique<RawThreadRule>());
  for (auto& r : ScopedCheckRules()) rules.push_back(std::move(r));
  return rules;
}

}  // namespace dblayout::staticcheck
