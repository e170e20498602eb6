// The scope-aware dblayout check rule families, built on the ProgramModel
// (scope_parser.h) and TaintAnalysis layers:
//
//   - guarded-by-violation / unannotated-mutex-field: lock discipline over
//     DBLAYOUT_GUARDED_BY / DBLAYOUT_REQUIRES annotations (common/mutex.h);
//   - capture-escape: by-reference captures handed to ThreadPool::Submit
//     that outlive the captured local's scope;
//   - determinism-taint: interprocedural clock/env/entropy reachability
//     from the determinism-critical entry layers.
//
// DESIGN.md §11 maps each rule to the guarantee it protects.

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strutil.h"
#include "staticcheck/staticcheck.h"

namespace dblayout::staticcheck {
namespace {

using Toks = std::vector<Tok>;

size_t MatchForward(const Toks& toks, size_t open) {
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

Diagnostic MakeDiag(const char* rule, LintSeverity severity, int line,
                    std::string message, std::string fix = "") {
  Diagnostic d;
  d.rule_id = rule;
  d.severity = severity;
  d.line = line;
  d.message = std::move(message);
  d.fix_it = std::move(fix);
  return d;
}

bool PathMatchesAny(const std::string& path,
                    const std::vector<std::string>& fragments) {
  for (const std::string& fragment : fragments) {
    if (path.find(fragment) != std::string::npos) return true;
  }
  return false;
}

const std::string& DisplayName(const FunctionDef& fn) {
  return fn.qualified_name.empty() ? fn.name : fn.qualified_name;
}

bool IsLockType(const Tok& t) {
  return t.ident("MutexLock") || t.ident("lock_guard") ||
         t.ident("unique_lock") || t.ident("scoped_lock");
}

// --- guarded-by-violation ---------------------------------------------------

/// Verifies the DBLAYOUT_GUARDED_BY contract: inside every method of a class
/// with annotated fields, each access to an annotated field must occur in a
/// scope that (a) constructed a MutexLock/lock_guard on the named mutex in
/// this or an enclosing block, or (b) belongs to a method declared
/// DBLAYOUT_REQUIRES that mutex. Constructors and destructors are exempt
/// (they run strictly before/after any sharing). Accesses through another
/// object (`other.field`) are skipped — the annotation names *this* object's
/// mutex, and cross-object discipline is the real TSA's job (the clang
/// -Wthread-safety CI leg).
class GuardedByViolationRule : public CheckRule {
 public:
  const char* id() const override { return "guarded-by-violation"; }
  const char* summary() const override {
    return "fields annotated DBLAYOUT_GUARDED_BY(mu) may only be touched in "
           "scopes holding mu (MutexLock in scope or DBLAYOUT_REQUIRES)";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const SourceFile& file, const CheckContext& ctx,
             std::vector<Diagnostic>* out) const override {
    const FileModel* fm = ctx.program.File(file.path);
    if (fm == nullptr) return;
    const Toks& toks = file.lex.tokens;
    for (const FunctionDef& fn : fm->functions) {
      if (fn.class_name.empty()) continue;
      const ClassModel* cls = ctx.program.Class(fn.class_name);
      if (cls == nullptr) continue;
      bool any_guarded = false;
      for (const FieldDecl& f : cls->fields) {
        if (!f.guarded_by.empty()) {
          any_guarded = true;
          break;
        }
      }
      if (!any_guarded) continue;
      // Construction and destruction precede/follow all sharing.
      if (fn.name == fn.class_name || fn.name == "~" + fn.class_name) continue;

      std::set<std::string> held(fn.requires_mutexes.begin(),
                                 fn.requires_mutexes.end());
      auto mr = cls->method_requires.find(fn.name);
      if (mr != cls->method_requires.end()) {
        held.insert(mr->second.begin(), mr->second.end());
      }
      // Mutexes locked per open block; a lock covers its block's remainder
      // including nested blocks (RAII scope).
      std::vector<std::vector<std::string>> frames(1);
      auto holds = [&](const std::string& m) {
        if (held.count(m) > 0) return true;
        for (const auto& frame : frames) {
          for (const std::string& got : frame) {
            if (got == m) return true;
          }
        }
        return false;
      };
      std::set<std::pair<std::string, int>> flagged;
      for (size_t i = fn.body_begin; i < fn.body_end && i < toks.size(); ++i) {
        const Tok& t = toks[i];
        if (t.is("{")) {
          frames.emplace_back();
          continue;
        }
        if (t.is("}")) {
          if (frames.size() > 1) frames.pop_back();
          continue;
        }
        if (t.kind != TokKind::kIdentifier) continue;
        // Lock acquisition: LockType [<...>] var ( ...mutex... )
        if (IsLockType(t)) {
          size_t j = i + 1;
          if (j < fn.body_end && toks[j].is("<")) {
            int depth = 0;
            while (j < fn.body_end) {
              if (toks[j].is("<")) {
                ++depth;
              } else if (toks[j].is(">")) {
                if (--depth == 0) {
                  ++j;
                  break;
                }
              } else if (toks[j].text == ">>") {
                depth -= 2;
                if (depth <= 0) {
                  ++j;
                  break;
                }
              }
              ++j;
            }
          }
          if (j < fn.body_end && toks[j].kind == TokKind::kIdentifier) ++j;
          if (j < fn.body_end && toks[j].is("(")) {
            const size_t close = MatchForward(toks, j);
            std::string mutex_name;
            for (size_t k = j + 1; k < close && k < toks.size(); ++k) {
              if (toks[k].kind == TokKind::kIdentifier &&
                  !toks[k].ident("std") && !toks[k].ident("adopt_lock") &&
                  !toks[k].ident("defer_lock")) {
                mutex_name = toks[k].text;
              }
            }
            if (!mutex_name.empty()) frames.back().push_back(mutex_name);
            i = close;
          }
          continue;
        }
        const FieldDecl* fd = cls->FindField(t.text);
        if (fd == nullptr || fd->guarded_by.empty()) continue;
        if (i > 0) {
          const Tok& prev = toks[i - 1];
          const bool through_this =
              i >= 2 && toks[i - 2].ident("this") && prev.is("->");
          if ((prev.is(".") || prev.is("->")) && !through_this) continue;
          if (prev.is("::")) continue;  // SomeClass::field — not an access
        }
        if (holds(fd->guarded_by)) continue;
        if (!flagged.insert({t.text, t.line}).second) continue;
        out->push_back(MakeDiag(
            id(), severity(), t.line,
            StrFormat("field '%s' of '%s' is DBLAYOUT_GUARDED_BY(%s) but '%s' "
                      "touches it without holding '%s'",
                      t.text.c_str(), fn.class_name.c_str(),
                      fd->guarded_by.c_str(), DisplayName(fn).c_str(),
                      fd->guarded_by.c_str()),
            "take `MutexLock lock(<mutex>);` in an enclosing scope, or mark "
            "the method DBLAYOUT_REQUIRES(<mutex>) and lock at every caller"));
      }
    }
  }
};

// --- unannotated-mutex-field ------------------------------------------------

/// A class that declares its own mutex has opted into the lock-discipline
/// contract: every other mutable field must either carry
/// DBLAYOUT_GUARDED_BY(...) or be self-synchronizing (atomic, a mutex or
/// condvar itself, or const). Unannotated fields are where the next data
/// race hides — annotate them or justify inline why they need no lock.
class UnannotatedMutexFieldRule : public CheckRule {
 public:
  const char* id() const override { return "unannotated-mutex-field"; }
  const char* summary() const override {
    return "every mutable field of a mutex-holding class needs "
           "DBLAYOUT_GUARDED_BY (or to be atomic/const/a sync primitive)";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const SourceFile& file, const CheckContext& ctx,
             std::vector<Diagnostic>* out) const override {
    const FileModel* fm = ctx.program.File(file.path);
    if (fm == nullptr) return;
    for (const ClassModel& cls : fm->classes) {
      if (!cls.has_mutex_member()) continue;
      for (const FieldDecl& f : cls.fields) {
        if (f.is_mutex || f.is_condvar || f.is_atomic || f.is_const) continue;
        if (!f.guarded_by.empty()) continue;
        out->push_back(MakeDiag(
            id(), severity(), f.line,
            StrFormat("field '%s' of mutex-holding class '%s' has no "
                      "DBLAYOUT_GUARDED_BY annotation",
                      f.name.c_str(), cls.name.c_str()),
            "annotate `DBLAYOUT_GUARDED_BY(<mutex>)`, make the field "
            "atomic/const, or suppress with the reason it is unshared"));
      }
    }
  }
};

// --- capture-escape ---------------------------------------------------------

/// True when a `Wait` call token appears in toks[(begin, end)).
bool HasWaitCall(const Toks& toks, size_t begin, size_t end) {
  for (size_t k = begin; k + 1 < end && k + 1 < toks.size(); ++k) {
    if (toks[k].ident("Wait") && toks[k + 1].is("(")) return true;
  }
  return false;
}

/// ThreadPool::Submit detaches the task from the submitting scope: it runs
/// whenever a worker frees up, bounded only by a later Wait(). A lambda that
/// captures a local by reference therefore races the local's destruction
/// unless a Wait() call is sequenced before the local's scope ends.
/// ParallelFor needs no such rule — it blocks until the batch drains, so
/// captures cannot outlive the call.
class CaptureEscapeRule : public CheckRule {
 public:
  const char* id() const override { return "capture-escape"; }
  const char* summary() const override {
    return "a lambda Submit()ed to the ThreadPool must not capture locals by "
           "reference unless Wait() runs before their scope ends";
  }
  LintSeverity severity() const override { return LintSeverity::kError; }
  void Check(const SourceFile& file, const CheckContext& ctx,
             std::vector<Diagnostic>* out) const override {
    const FileModel* fm = ctx.program.File(file.path);
    if (fm == nullptr) return;
    const Toks& toks = file.lex.tokens;
    for (const FunctionDef& fn : fm->functions) {
      for (size_t i = fn.body_begin; i + 1 < fn.body_end && i + 1 < toks.size();
           ++i) {
        if (!toks[i].ident("Submit") || !toks[i + 1].is("(")) continue;
        const size_t call_close = MatchForward(toks, i + 1);
        if (call_close >= toks.size()) continue;
        // Lambda introducers among the arguments: '[' right after '(' or ','.
        for (size_t j = i + 2; j < call_close; ++j) {
          if (!toks[j].is("[")) continue;
          if (!(toks[j - 1].is("(") || toks[j - 1].is(","))) continue;
          const size_t intro_close = MatchForward(toks, j);
          if (intro_close >= call_close) break;
          // Walk the capture list: elements at depth 0, comma-separated.
          size_t k = j + 1;
          while (k < intro_close) {
            if (toks[k].is("&") &&
                (k + 1 == intro_close || toks[k + 1].is(","))) {
              // Default by-reference capture [&]: every enclosing local is
              // at risk; require a Wait() later in this function.
              if (!HasWaitCall(toks, call_close, fn.body_end)) {
                out->push_back(MakeDiag(
                    id(), severity(), toks[k].line,
                    StrFormat("lambda with default by-reference capture [&] "
                              "Submit()ed in '%s' with no Wait() before the "
                              "function returns",
                              DisplayName(fn).c_str()),
                    "capture by value, or call pool.Wait() before the "
                    "captured locals go out of scope"));
              }
              ++k;
            } else if (toks[k].is("&") && k + 1 < intro_close &&
                       toks[k + 1].kind == TokKind::kIdentifier) {
              const std::string& name = toks[k + 1].text;
              const TokRange scope = FindLocalDeclScope(toks, fn, i, name);
              // Parameters, members and globals have function-or-longer
              // lifetime; only block-scoped locals can die under the task.
              if (scope.valid() &&
                  !HasWaitCall(toks, call_close,
                               std::min(scope.end, fn.body_end))) {
                out->push_back(MakeDiag(
                    id(), severity(), toks[k].line,
                    StrFormat("lambda Submit()ed in '%s' captures local '%s' "
                              "by reference but no Wait() runs before the "
                              "local's scope ends",
                              DisplayName(fn).c_str(), name.c_str()),
                    "capture by value, widen the local's scope past the "
                    "Wait(), or call pool.Wait() inside the scope"));
              }
              k += 2;
            } else {
              // Skip this element (value capture, init-capture, this, ...).
              int depth = 0;
              while (k < intro_close) {
                const std::string& t = toks[k].text;
                if (t == "(" || t == "[" || t == "{") ++depth;
                if (t == ")" || t == "]" || t == "}") --depth;
                if (depth == 0 && t == ",") break;
                ++k;
              }
            }
            if (k < intro_close && toks[k].is(",")) ++k;
          }
          j = intro_close;
        }
      }
    }
  }
};

// --- determinism-taint ------------------------------------------------------

/// Interprocedural nondeterminism gate. Direct clock/env/entropy reads in an
/// entry-layer file (src/layout/, src/graph/, src/resilience/) are reported
/// at the read; calls from entry-layer functions into *carrier* functions the
/// taint pass marked (transitively reaching such a read through files that
/// are neither allowlisted nor entry-layer) are reported at the call with the
/// full call path. Replaces the v1 per-site wall-clock/env-read rules: a
/// clock read in the obs layer is infrastructure, the same read reachable
/// from the cost model is a reproducibility bug.
class DeterminismTaintRule : public CheckRule {
 public:
  const char* id() const override { return "determinism-taint"; }
  const char* summary() const override {
    return "cost-model/search/partition entry points must not reach "
           "clock/env/entropy reads, directly or through callees";
  }
  LintSeverity severity() const override { return LintSeverity::kWarning; }
  void Check(const SourceFile& file, const CheckContext& ctx,
             std::vector<Diagnostic>* out) const override {
    if (!PathMatchesAny(file.path, ctx.options.taint_entry_prefixes)) return;
    const FileModel* fm = ctx.program.File(file.path);
    if (fm == nullptr) return;
    for (const FunctionDef& fn : fm->functions) {
      for (const TaintSource& ts : fn.taints) {
        out->push_back(MakeDiag(
            id(), severity(), ts.line,
            StrFormat("nondeterministic input '%s' read in '%s'",
                      ts.what.c_str(), DisplayName(fn).c_str()),
            "inject the value (deadline, seed, setting) through parameters, "
            "or suppress with the reason the dependence is contractual"));
      }
      std::set<std::string> reported;  // one finding per callee per function
      for (const CallSite& c : fn.calls) {
        if (reported.count(c.callee) > 0) continue;
        const TaintedFunction* hit = nullptr;
        for (size_t ti : ResolveCall(ctx.program, c)) {
          hit = ctx.taint.Find(ti);
          if (hit != nullptr) break;
        }
        if (hit == nullptr) continue;
        reported.insert(c.callee);
        std::string path;
        for (const std::string& step : hit->path) {
          if (!path.empty()) path += " -> ";
          path += step;
        }
        out->push_back(MakeDiag(
            id(), severity(), c.line,
            StrFormat("call to '%s' from '%s' reaches nondeterministic input "
                      "'%s' (call path: %s)",
                      c.callee.c_str(), DisplayName(fn).c_str(),
                      hit->source.c_str(), path.c_str()),
            "make the callee take the value as a parameter, or move the read "
            "behind the obs layer"));
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<CheckRule>> ScopedCheckRules() {
  std::vector<std::unique_ptr<CheckRule>> rules;
  rules.push_back(std::make_unique<GuardedByViolationRule>());
  rules.push_back(std::make_unique<UnannotatedMutexFieldRule>());
  rules.push_back(std::make_unique<CaptureEscapeRule>());
  rules.push_back(std::make_unique<DeterminismTaintRule>());
  return rules;
}

}  // namespace dblayout::staticcheck
