#include "staticcheck/scope_parser.h"

#include <utility>

#include "staticcheck/staticcheck.h"

namespace dblayout::staticcheck {

namespace {

using Toks = std::vector<Tok>;

/// Token index just past the `>` matching the `<` at `open`; `>>` closes two
/// levels. Returns open + 1 when this is not a template argument list.
size_t SkipTemplateArgs(const Toks& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return i + 1;
    } else if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (t == ";" || t == "{" || t == "}") {
      break;
    }
  }
  return open + 1;
}

bool IsControlKeyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "new" ||
         s == "delete" || s == "throw" || s == "alignof" || s == "decltype" ||
         s == "alignas" || s == "assert" || s == "defined";
}

/// Identifiers that may directly precede a call expression without making it
/// a declaration (`return Foo(x)` is a call; `Type foo(x)` is not).
bool MayPrecedeCall(const std::string& s) {
  return s == "return" || s == "else" || s == "do" || s == "co_return" ||
         s == "case" || s == "co_await" || s == "co_yield";
}

bool IsTypeishPrev(const Tok& t) {
  if (t.kind == TokKind::kIdentifier) {
    return !IsControlKeyword(t.text) && t.text != "goto" && t.text != "else" &&
           t.text != "do" && t.text != "case";
  }
  return t.is(">") || t.is("*") || t.is("&") || t.is("&&");
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// --- Brace classification prepass ------------------------------------------

struct BraceInfo {
  enum Kind { kClass, kEnum, kNamespace, kFunction } kind = kClass;
  std::string name;        ///< class/function name
  std::string class_name;  ///< function only: out-of-line qualifier
  int line = 1;
};

/// Result of parsing a function header starting at the name token `i`
/// (toks[i + 1] must be "("). `body` is the token index of the body's '{',
/// or SIZE_MAX for a declaration (`;`, `= default`, pure-virtual).
struct FunctionHeader {
  bool valid = false;
  bool has_body = false;
  size_t body = 0;
  std::string name;
  std::string class_name;
  int line = 1;
};

FunctionHeader ParseFunctionHeader(const Toks& toks, size_t i) {
  FunctionHeader h;
  h.name = toks[i].text;
  h.line = toks[i].line;
  if (IsControlKeyword(h.name) || MayPrecedeCall(h.name)) return h;
  size_t chain = i;
  if (i >= 1 && toks[i - 1].is("~")) {
    h.name = "~" + h.name;
    chain = i - 1;
  }
  if (chain >= 2 && toks[chain - 1].is("::") &&
      toks[chain - 2].kind == TokKind::kIdentifier) {
    h.class_name = toks[chain - 2].text;
  }
  const size_t close = MatchForward(toks, i + 1);
  if (close >= toks.size()) return h;

  size_t j = close + 1;
  while (j < toks.size()) {
    const Tok& t = toks[j];
    if (t.ident("const") || t.ident("override") || t.ident("final") ||
        t.ident("mutable") || t.ident("try") || t.is("&") || t.is("&&")) {
      ++j;
      continue;
    }
    if (t.ident("noexcept")) {
      ++j;
      if (j < toks.size() && toks[j].is("(")) j = MatchForward(toks, j) + 1;
      continue;
    }
    if (t.kind == TokKind::kIdentifier && StartsWith(t.text, "DBLAYOUT_")) {
      if (j + 1 < toks.size() && toks[j + 1].is("(")) {
        j = MatchForward(toks, j + 1) + 1;  // annotation macro
      } else {
        ++j;  // parenless annotation (DBLAYOUT_NO_THREAD_SAFETY_ANALYSIS)
      }
      continue;
    }
    if (t.is("->")) {  // trailing return type
      ++j;
      while (j < toks.size() && !toks[j].is("{") && !toks[j].is(";")) {
        if (toks[j].is("<")) {
          j = SkipTemplateArgs(toks, j);
        } else if (toks[j].is("(") || toks[j].is("[")) {
          j = MatchForward(toks, j) + 1;
        } else {
          ++j;
        }
      }
      continue;
    }
    if (t.is(":")) {  // member initializer list
      size_t k = j + 1;
      while (k < toks.size()) {
        if (toks[k].is("(") || toks[k].is("[")) {
          k = MatchForward(toks, k) + 1;
          continue;
        }
        if (toks[k].is("{")) {
          // An initializer brace follows a name/template (`a_{1}`); the body
          // brace follows ')' / '}' of the previous initializer.
          if (k > 0 && (toks[k - 1].kind == TokKind::kIdentifier ||
                        toks[k - 1].is(">"))) {
            k = MatchForward(toks, k) + 1;
            continue;
          }
          h.valid = h.has_body = true;
          h.body = k;
          return h;
        }
        if (toks[k].is(";") || toks[k].is("}")) return h;
        ++k;
      }
      return h;
    }
    if (t.is("{")) {
      h.valid = h.has_body = true;
      h.body = j;
      return h;
    }
    if (t.is(";") || t.is("=")) {
      h.valid = true;  // declaration only
      return h;
    }
    return h;  // part of an expression
  }
  return h;
}

/// Classifies every '{' opened by a class/enum/namespace head or a function
/// header. Unclassified braces are plain blocks.
std::map<size_t, BraceInfo> ClassifyBraces(const Toks& toks) {
  std::map<size_t, BraceInfo> braces;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& tok = toks[i];
    if (tok.kind != TokKind::kIdentifier) continue;
    if ((tok.text == "class" || tok.text == "struct" || tok.text == "union") &&
        !(i > 0 && toks[i - 1].ident("enum"))) {
      std::string name;
      size_t j = i + 1;
      while (j < toks.size()) {
        const Tok& t = toks[j];
        if (t.kind == TokKind::kIdentifier) {
          if (t.text == "final") {
            ++j;
          } else if (j + 1 < toks.size() && toks[j + 1].is("(")) {
            j = MatchForward(toks, j + 1) + 1;  // attribute macro
          } else {
            name = t.text;
            ++j;
          }
          continue;
        }
        if (t.is("<")) {
          j = SkipTemplateArgs(toks, j);
          continue;
        }
        if (t.is("[")) {
          j = MatchForward(toks, j) + 1;
          continue;
        }
        if (t.is(":")) {  // base clause: first '{' at bracket depth 0 opens it
          size_t k = j + 1;
          int depth = 0;
          while (k < toks.size()) {
            const std::string& u = toks[k].text;
            if (u == "(" || u == "[") {
              ++depth;
            } else if (u == ")" || u == "]") {
              --depth;
            } else if (u == "{" && depth == 0) {
              braces[k] = BraceInfo{BraceInfo::kClass, name, "", tok.line};
              break;
            } else if (u == ";" || u == "}") {
              break;
            }
            ++k;
          }
          break;
        }
        if (t.is("{")) {
          braces[j] = BraceInfo{BraceInfo::kClass, name, "", tok.line};
          break;
        }
        break;  // ';' forward declaration, template parameter, etc.
      }
      continue;
    }
    if (tok.text == "enum") {
      size_t j = i + 1;
      while (j < toks.size() &&
             (toks[j].kind == TokKind::kIdentifier || toks[j].is(":") ||
              toks[j].is("::"))) {
        ++j;
      }
      if (j < toks.size() && toks[j].is("{")) {
        braces[j] = BraceInfo{BraceInfo::kEnum, "", "", tok.line};
      }
      continue;
    }
    if (tok.text == "namespace") {
      size_t j = i + 1;
      while (j < toks.size() &&
             (toks[j].kind == TokKind::kIdentifier || toks[j].is("::"))) {
        ++j;
      }
      if (j < toks.size() && toks[j].is("{")) {
        braces[j] = BraceInfo{BraceInfo::kNamespace, "", "", tok.line};
      }
      continue;
    }
    if (i + 1 < toks.size() && toks[i + 1].is("(")) {
      const FunctionHeader h = ParseFunctionHeader(toks, i);
      if (h.valid && h.has_body && braces.count(h.body) == 0) {
        braces[h.body] =
            BraceInfo{BraceInfo::kFunction, h.name, h.class_name, h.line};
      }
    }
  }
  return braces;
}

// --- Class body harvest ------------------------------------------------------

bool IsFieldTerminator(const Toks& toks, size_t i) {
  if (i >= toks.size()) return false;
  return toks[i].is(";") || toks[i].is("=") || toks[i].is("{") ||
         toks[i].ident("DBLAYOUT_GUARDED_BY") ||
         toks[i].ident("DBLAYOUT_PT_GUARDED_BY");
}

void UpsertField(ClassModel* model, FieldDecl field) {
  for (FieldDecl& f : model->fields) {
    if (f.name == field.name) {
      if (f.guarded_by.empty()) f.guarded_by = field.guarded_by;
      return;
    }
  }
  model->fields.push_back(std::move(field));
}

/// Classifies the declaration ending at the name token `name_idx` by walking
/// back to the previous statement boundary. Returns false for non-field
/// statements (static/using/friend/nested-type heads).
bool ClassifyFieldDecl(const Toks& toks, size_t begin, size_t name_idx,
                       FieldDecl* field) {
  bool saw_star = false;
  for (size_t k = name_idx; k-- > begin;) {
    const Tok& t = toks[k];
    if (t.is(";") || t.is("{") || t.is("}") || t.is(":")) break;
    if (t.is("*")) saw_star = true;
    if (t.kind != TokKind::kIdentifier) continue;
    const std::string& s = t.text;
    if (s == "static" || s == "constexpr" || s == "using" || s == "typedef" ||
        s == "friend" || s == "enum" || s == "class" || s == "struct" ||
        s == "union" || s == "template" || s == "operator" ||
        s == "namespace") {
      return false;
    }
    if (s == "Mutex" || s == "mutex") field->is_mutex = true;
    if (s == "CondVar" || s == "condition_variable") field->is_condvar = true;
    if (s == "atomic") field->is_atomic = true;
    if (s == "const") field->is_const = true;
  }
  if (saw_star) field->is_const = false;  // const pointee, mutable pointer
  return true;
}

void HarvestClassBody(const Toks& toks, size_t begin, size_t end,
                      ClassModel* model) {
  size_t i = begin;
  while (i < end && i < toks.size()) {
    const Tok& t = toks[i];
    if (t.is("{")) {  // nested scope (method body, nested type, initializer)
      i = MatchForward(toks, i) + 1;
      continue;
    }
    if (t.kind == TokKind::kIdentifier) {
      const bool has_parens = i + 1 < end && toks[i + 1].is("(");
      if ((t.text == "DBLAYOUT_GUARDED_BY" ||
           t.text == "DBLAYOUT_PT_GUARDED_BY") &&
          has_parens) {
        const size_t close = MatchForward(toks, i + 1);
        std::string mutex;
        for (size_t k = i + 2; k < close && k < toks.size(); ++k) {
          if (toks[k].kind == TokKind::kIdentifier) mutex = toks[k].text;
        }
        if (i > begin && toks[i - 1].kind == TokKind::kIdentifier &&
            !mutex.empty()) {
          FieldDecl field;
          field.name = toks[i - 1].text;
          field.guarded_by = mutex;
          field.line = toks[i - 1].line;
          ClassifyFieldDecl(toks, begin, i - 1, &field);
          UpsertField(model, std::move(field));
        }
        i = close + 1;
        continue;
      }
      if (!has_parens && IsFieldTerminator(toks, i + 1) && i > begin &&
          IsTypeishPrev(toks[i - 1]) && t.text != "operator") {
        FieldDecl field;
        field.name = t.text;
        field.line = t.line;
        if (ClassifyFieldDecl(toks, begin, i, &field)) {
          UpsertField(model, std::move(field));
        }
      }
      ++i;
      continue;
    }
    if (t.is("(")) {  // parameter lists, default arguments, macro args
      i = MatchForward(toks, i) + 1;
      continue;
    }
    ++i;
  }
}

// --- Call sites and taint sources -------------------------------------------

bool IsClockType(const std::string& s) {
  return s == "steady_clock" || s == "system_clock" ||
         s == "high_resolution_clock";
}

bool IsWallClockCall(const std::string& s) {
  return s == "gettimeofday" || s == "clock_gettime" || s == "ftime" ||
         s == "localtime" || s == "gmtime";
}

bool IsEnvCall(const std::string& s) {
  return s == "getenv" || s == "secure_getenv" || s == "setenv" ||
         s == "putenv" || s == "unsetenv";
}

bool IsEntropyCall(const std::string& s) {
  return s == "rand" || s == "srand" || s == "rand_r" || s == "drand48" ||
         s == "lrand48" || s == "mrand48" || s == "random_device";
}

void CollectCallsAndTaints(const Toks& toks, FunctionDef* fn) {
  for (size_t i = fn->body_begin; i < fn->body_end && i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool member = i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"));

    if (IsClockType(t.text) && i + 2 < toks.size() && toks[i + 1].is("::") &&
        toks[i + 2].ident("now")) {
      fn->taints.push_back(
          TaintSource{"std::chrono::" + t.text + "::now()", t.line});
      i += 2;
      continue;
    }
    const bool call_next = i + 1 < fn->body_end && toks[i + 1].is("(");
    if (!call_next) continue;
    if (!member) {
      if (IsWallClockCall(t.text)) {
        fn->taints.push_back(TaintSource{t.text + "()", t.line});
        continue;
      }
      if (t.text == "time" && i + 2 < toks.size() &&
          (toks[i + 2].is(")") || toks[i + 2].ident("nullptr") ||
           toks[i + 2].ident("NULL") || toks[i + 2].text == "0")) {
        fn->taints.push_back(TaintSource{"time()", t.line});
        continue;
      }
      if (IsEnvCall(t.text)) {
        fn->taints.push_back(TaintSource{t.text + "()", t.line});
        continue;
      }
      if (IsEntropyCall(t.text)) {
        fn->taints.push_back(TaintSource{t.text + "()", t.line});
        continue;
      }
    }
    if (IsControlKeyword(t.text)) continue;
    if (i >= 1 && toks[i - 1].is("~")) continue;  // destructor call
    if (!member && i >= 1 && toks[i - 1].kind == TokKind::kIdentifier &&
        !MayPrecedeCall(toks[i - 1].text)) {
      continue;  // `Type name(...)`: a declaration, not a call
    }
    CallSite call;
    call.callee = t.text;
    call.qualified = t.text;
    call.tok = i;
    call.line = t.line;
    if (!member && i >= 2 && toks[i - 1].is("::") &&
        toks[i - 2].kind == TokKind::kIdentifier) {
      call.qualified = toks[i - 2].text + "::" + t.text;
    }
    fn->calls.push_back(std::move(call));
  }
}

}  // namespace

FileModel BuildFileModel(const LexedSource& lex) {
  const Toks& toks = lex.tokens;
  const std::map<size_t, BraceInfo> braces = ClassifyBraces(toks);

  FileModel model;
  struct OpenScope {
    BraceInfo::Kind kind;
    size_t index = 0;    ///< into model.functions / model.classes
    size_t open = 0;
    bool tracked = false;  ///< function or class (has a model entry)
  };
  std::vector<OpenScope> stack;
  std::vector<std::pair<size_t, size_t>> class_ranges;  // class idx -> [open, close)

  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].is("{")) {
      OpenScope scope;
      scope.open = i;
      auto it = braces.find(i);
      if (it == braces.end()) {
        scope.kind = BraceInfo::kNamespace;  // block/namespace: transparent
        stack.push_back(scope);
        continue;
      }
      const BraceInfo& info = it->second;
      scope.kind = info.kind;
      if (info.kind == BraceInfo::kFunction) {
        FunctionDef fn;
        fn.name = info.name;
        fn.class_name = info.class_name;
        if (fn.class_name.empty()) {
          // Inline member definition: the innermost enclosing class names it.
          for (size_t s = stack.size(); s-- > 0;) {
            if (stack[s].kind == BraceInfo::kClass && stack[s].tracked) {
              fn.class_name = model.classes[stack[s].index].name;
              break;
            }
          }
        }
        fn.qualified_name = fn.class_name.empty()
                                ? fn.name
                                : fn.class_name + "::" + fn.name;
        fn.line = info.line;
        fn.body_begin = i + 1;
        scope.index = model.functions.size();
        scope.tracked = true;
        model.functions.push_back(std::move(fn));
      } else if (info.kind == BraceInfo::kClass && !info.name.empty()) {
        ClassModel cls;
        cls.name = info.name;
        cls.line = info.line;
        scope.index = model.classes.size();
        scope.tracked = true;
        model.classes.push_back(std::move(cls));
        class_ranges.emplace_back(scope.index, 0);  // close patched on pop
        class_ranges.back().second = i;             // stash open temporarily
      }
      stack.push_back(scope);
      continue;
    }
    if (toks[i].is("}")) {
      if (stack.empty()) continue;
      const OpenScope scope = stack.back();
      stack.pop_back();
      if (scope.kind == BraceInfo::kFunction && scope.tracked) {
        model.functions[scope.index].body_end = i;
      } else if (scope.kind == BraceInfo::kClass && scope.tracked) {
        for (auto& [idx, open] : class_ranges) {
          if (idx == scope.index && open == scope.open) {
            HarvestClassBody(toks, scope.open + 1, i,
                             &model.classes[scope.index]);
            break;
          }
        }
      }
    }
  }
  // Unterminated scopes (unbalanced input): close at end of file.
  for (size_t s = stack.size(); s-- > 0;) {
    const OpenScope& scope = stack[s];
    if (scope.kind == BraceInfo::kFunction && scope.tracked &&
        model.functions[scope.index].body_end == 0) {
      model.functions[scope.index].body_end = toks.size();
    }
  }

  for (FunctionDef& fn : model.functions) {
    CollectCallsAndTaints(toks, &fn);
  }
  return model;
}

ProgramModel BuildProgramModel(const std::vector<SourceFile>& files) {
  ProgramModel program;
  for (const SourceFile& f : files) {
    program.files.emplace(f.path, BuildFileModel(f.lex));
  }
  // files_ is pre-sorted by AddPath; iterate the map (path order) so the
  // function table and name index are independent of insertion order.
  for (const auto& [path, model] : program.files) {
    for (const FunctionDef& fn : model.functions) {
      const size_t idx = program.functions.size();
      program.functions.push_back(ProgramModel::DefinedFunction{path, &fn});
      program.functions_by_name[fn.name].push_back(idx);
      if (fn.qualified_name != fn.name) {
        program.functions_by_name[fn.qualified_name].push_back(idx);
      }
    }
  }
  return program;
}

}  // namespace dblayout::staticcheck
