// A lightweight declaration/scope parser over cpp_lexer token streams.
//
// dblayout check v1 walked flat token streams; that is enough for per-line
// patterns but cannot answer the questions the annotation-completeness and
// interprocedural-taint rules ask: "which class declares this field, and is
// it annotated?", "which function body does this token live in?", "who
// calls whom?". This parser answers them with a single forward scan per
// file — no libclang, no preprocessor, no type system — producing:
//
//   - FunctionDef: every function definition (free, inline member, and
//     out-of-line `Class::Name(...)`), with its body token range, its call
//     sites, and any nondeterminism sources (clock/env/entropy reads) in the
//     body;
//   - ClassModel: every class/struct, with its fields (name, guarded_by
//     annotation, mutex/atomic/const classification);
//   - a per-file FileModel and a cross-file ProgramModel whose call graph
//     links call sites to defined functions, qualified names first.
//
// The parser is deliberately forgiving: C++ it cannot classify falls back to
// "block scope" / "not a declaration", which biases every downstream rule
// toward silence, not noise. Rules that need the opposite bias (the v1
// container rules) keep their own flat-token walks.

#ifndef DBLAYOUT_STATICCHECK_SCOPE_PARSER_H_
#define DBLAYOUT_STATICCHECK_SCOPE_PARSER_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "staticcheck/cpp_lexer.h"

namespace dblayout::staticcheck {

struct SourceFile;  // staticcheck.h

/// One call site inside a function body. `callee` is the rightmost name
/// ("Run"); `qualified` includes one level of :: qualification when present
/// ("CheckRunner::Run") and equals `callee` otherwise. Member calls through
/// `.`/`->` record the method name only.
struct CallSite {
  std::string callee;
  std::string qualified;
  size_t tok = 0;  ///< token index of the callee name
  int line = 1;
};

/// One read of a nondeterministic input (wall clock, environment, raw
/// entropy) directly in a function body.
struct TaintSource {
  std::string what;  ///< e.g. "std::chrono::steady_clock::now()"
  int line = 1;
};

/// One function definition with a body.
struct FunctionDef {
  std::string name;            ///< rightmost name ("Run", "~ThreadPool")
  std::string qualified_name;  ///< "Class::Name" when the class is known
  std::string class_name;      ///< enclosing or out-of-line class, or ""
  int line = 1;                ///< line of the function name
  size_t body_begin = 0;       ///< first token index inside the '{'
  size_t body_end = 0;         ///< index of the matching '}' (exclusive end)
  std::vector<CallSite> calls;
  std::vector<TaintSource> taints;
};

/// One data member harvested at class depth.
struct FieldDecl {
  std::string name;
  std::string guarded_by;  ///< mutex named by DBLAYOUT_GUARDED_BY, or ""
  bool is_mutex = false;   ///< declared as Mutex / std::mutex
  bool is_condvar = false;
  bool is_atomic = false;  ///< std::atomic<...>: has its own ordering story
  bool is_const = false;   ///< const-qualified: immutable after construction
  int line = 1;
};

struct ClassModel {
  std::string name;
  int line = 1;
  std::vector<FieldDecl> fields;

  bool has_mutex_member() const {
    for (const FieldDecl& f : fields) {
      if (f.is_mutex) return true;
    }
    return false;
  }
};

struct FileModel {
  std::vector<FunctionDef> functions;
  std::vector<ClassModel> classes;
};

/// Parses one lexed file. Deterministic; tolerant of anything (worst case:
/// fewer functions/classes recognized).
FileModel BuildFileModel(const LexedSource& lex);

/// Cross-file model: per-file FileModels plus a function index for
/// interprocedural rules.
struct ProgramModel {
  /// file path -> its model, in AddSource order.
  std::map<std::string, FileModel> files;
  /// "Class::Name" and bare "Name" -> indices into `functions`, sorted.
  /// Bare names that several classes define map to every definition: taint
  /// propagation follows all of them (over-approximation, the right bias).
  std::map<std::string, std::vector<size_t>> functions_by_name;
  /// Every function definition with its defining file, in path order.
  struct DefinedFunction {
    std::string file;
    const FunctionDef* def = nullptr;
  };
  std::vector<DefinedFunction> functions;

  const FileModel* File(const std::string& path) const {
    auto it = files.find(path);
    return it == files.end() ? nullptr : &it->second;
  }
};

ProgramModel BuildProgramModel(
    const std::vector<SourceFile>& files);

}  // namespace dblayout::staticcheck

#endif  // DBLAYOUT_STATICCHECK_SCOPE_PARSER_H_
