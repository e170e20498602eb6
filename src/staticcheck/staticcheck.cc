#include "staticcheck/staticcheck.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/strutil.h"
#include "common/thread_pool.h"

namespace dblayout::staticcheck {

namespace {

bool IsUnorderedKeyword(const Tok& t) {
  return t.kind == TokKind::kIdentifier &&
         (t.text == "unordered_map" || t.text == "unordered_set" ||
          t.text == "unordered_multimap" || t.text == "unordered_multiset");
}

bool IsOrderedSequenceKeyword(const Tok& t) {
  return t.kind == TokKind::kIdentifier &&
         (t.text == "vector" || t.text == "array" || t.text == "deque");
}

/// Finds the token index just past the `>` matching the `<` at `open`
/// (tokens[open] must be "<"). `>>` closes two levels. Returns open + 1 and
/// sets *nested when the run of '>' overshoots — i.e. this template was
/// itself nested inside another's argument list — or when input ends.
size_t MatchTemplateClose(const std::vector<Tok>& toks, size_t open, bool* nested) {
  *nested = false;
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return i + 1;
    } else if (t == ">>") {
      depth -= 2;
      if (depth == 0) return i + 1;
      if (depth < 0) {
        *nested = true;
        return i + 1;
      }
    } else if (t == ";" || t == "{" || t == "}") {
      // Not a template argument list after all (comparison operator).
      break;
    }
    if (depth == 0) break;
  }
  *nested = true;
  return open + 1;
}

/// After a type's closing `>`, skips cv/ref/pointer declarator tokens.
size_t SkipDeclaratorNoise(const std::vector<Tok>& toks, size_t i) {
  while (i < toks.size() &&
         (toks[i].is("&") || toks[i].is("*") || toks[i].is("&&") ||
          toks[i].ident("const") || toks[i].ident("noexcept"))) {
    ++i;
  }
  return i;
}

bool LooksLikeValueTerminator(const Tok& t) {
  return t.is(";") || t.is("=") || t.is("{") || t.is(",") || t.is(")") ||
         t.is(":");
}

void HarvestFile(const SourceFile& f, SymbolIndex* index) {
  const std::vector<Tok>& toks = f.lex.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    // unordered_map<...> [&*const] NAME ( | ; | = | { | , | )
    if (IsUnorderedKeyword(toks[i]) && toks[i + 1].is("<")) {
      bool nested = false;
      size_t after = MatchTemplateClose(toks, i + 1, &nested);
      if (nested) continue;  // inner type of an enclosing template
      after = SkipDeclaratorNoise(toks, after);
      if (after + 1 < toks.size() && toks[after].kind == TokKind::kIdentifier) {
        const std::string& name = toks[after].text;
        if (toks[after + 1].is("(")) {
          index->unordered_functions.insert(name);
        } else if (LooksLikeValueTerminator(toks[after + 1])) {
          index->unordered_values.insert(name);
        }
      }
      continue;
    }
    // vector<...unordered_...> NAME: ordered container of unordered elements.
    if (IsOrderedSequenceKeyword(toks[i]) && toks[i + 1].is("<")) {
      bool nested = false;
      const size_t close = MatchTemplateClose(toks, i + 1, &nested);
      if (nested) continue;
      bool has_unordered = false;
      for (size_t j = i + 2; j < close; ++j) {
        if (IsUnorderedKeyword(toks[j])) {
          has_unordered = true;
          break;
        }
      }
      if (!has_unordered) continue;
      size_t after = SkipDeclaratorNoise(toks, close);
      if (after + 1 < toks.size() && toks[after].kind == TokKind::kIdentifier &&
          !toks[after + 1].is("(")) {
        if (LooksLikeValueTerminator(toks[after + 1])) {
          index->unordered_element_values.insert(toks[after].text);
        }
      }
    }
  }
}

}  // namespace

bool PathMatchesAny(const std::string& path,
                    const std::vector<std::string>& fragments) {
  for (const std::string& fragment : fragments) {
    if (path.find(fragment) != std::string::npos) return true;
  }
  return false;
}

Diagnostic MakeDiag(const char* rule, LintSeverity severity, int line,
                    std::string message, std::string fix) {
  Diagnostic d;
  d.rule_id = rule;
  d.severity = severity;
  d.line = line;
  d.message = std::move(message);
  d.fix_it = std::move(fix);
  return d;
}

CheckOptions::CheckOptions() {
  // Sanctioned homes for otherwise-banned constructs. Kept deliberately
  // narrow; anything else needs an inline justification.
  allow_paths["raw-random"] = {"src/common/rng.h"};
  allow_paths["raw-thread"] = {"src/common/thread_pool."};

  // Files whose clock/env/entropy reads are infrastructure, not hidden
  // inputs: the seeded Rng, the obs timing layer, bench/tool harnesses, and
  // dblayout check's own --verbose timing.
  taint_source_allow = {"src/common/rng.h", "src/obs/", "src/staticcheck/",
                        "bench/", "tools/", "tests/"};
  // The determinism-critical layers the paper's §5 reproduction depends on:
  // cost model + search + advisor (layout), partitioning (graph), and the
  // failure-costing built on them (resilience).
  taint_entry_prefixes = {"src/layout/", "src/graph/", "src/resilience/"};
}

SymbolIndex HarvestSymbols(const std::vector<SourceFile>& files) {
  SymbolIndex index;
  for (const SourceFile& f : files) HarvestFile(f, &index);
  return index;
}

std::vector<size_t> ResolveCall(const ProgramModel& program,
                                const CallSite& c) {
  if (c.qualified != c.callee) {
    auto it = program.functions_by_name.find(c.qualified);
    if (it != program.functions_by_name.end()) return it->second;
    return {};
  }
  auto it = program.functions_by_name.find(c.callee);
  if (it != program.functions_by_name.end()) return it->second;
  return {};
}

TaintAnalysis ComputeTaint(const ProgramModel& program,
                           const std::vector<std::string>& source_allow,
                           const std::vector<std::string>& entry_prefixes) {
  TaintAnalysis ta;
  // Carriers: functions that may hold and propagate taint. Entry-layer
  // functions report locally; allowlisted files are sanctioned.
  std::vector<bool> carrier(program.functions.size(), false);
  std::deque<size_t> frontier;
  for (size_t i = 0; i < program.functions.size(); ++i) {
    const auto& df = program.functions[i];
    if (PathMatchesAny(df.file, source_allow) ||
        PathMatchesAny(df.file, entry_prefixes)) {
      continue;
    }
    carrier[i] = true;
    if (!df.def->taints.empty()) {
      ta.tainted[i] =
          TaintedFunction{df.def->taints[0].what, {df.def->qualified_name}};
      frontier.push_back(i);
    }
  }
  // Reverse edges: callee -> carrier callers, in deterministic index order.
  std::map<size_t, std::vector<size_t>> callers;
  for (size_t ci = 0; ci < program.functions.size(); ++ci) {
    if (!carrier[ci]) continue;
    for (const CallSite& c : program.functions[ci].def->calls) {
      for (size_t ti : ResolveCall(program, c)) {
        callers[ti].push_back(ci);
      }
    }
  }
  // BFS from the direct sources: paths are shortest, ties broken by the
  // deterministic seeding/adjacency order above.
  while (!frontier.empty()) {
    const size_t idx = frontier.front();
    frontier.pop_front();
    auto it = callers.find(idx);
    if (it == callers.end()) continue;
    for (size_t caller : it->second) {
      if (ta.tainted.count(caller) > 0) continue;
      TaintedFunction tf;
      tf.source = ta.tainted[idx].source;
      tf.path.push_back(program.functions[caller].def->qualified_name);
      tf.path.insert(tf.path.end(), ta.tainted[idx].path.begin(),
                     ta.tainted[idx].path.end());
      ta.tainted[caller] = std::move(tf);
      frontier.push_back(caller);
    }
  }
  return ta;
}

CheckRunner::CheckRunner(CheckOptions options)
    : options_(std::move(options)), rules_(DefaultCheckRules()) {}

void CheckRunner::AddRule(std::unique_ptr<CheckRule> rule) {
  rules_.push_back(std::move(rule));
}

void CheckRunner::AddSource(std::string path, const std::string& content) {
  files_.push_back(SourceFile{std::move(path), LexCpp(content)});
}

namespace {

bool HasCheckedExtension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

Result<std::string> ReadFileToString(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrFormat("cannot read %s", p.string().c_str()));
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

Status CheckRunner::AddPath(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  if (fs::is_directory(p, ec)) {
    // Record files relative to the directory's parent so reports read
    // "src/..." / "bench/..." wherever the checkout lives.
    const fs::path base = fs::absolute(p, ec).lexically_normal();
    std::vector<fs::path> found;
    for (auto it = fs::recursive_directory_iterator(p, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (it->is_regular_file(ec) && HasCheckedExtension(it->path())) {
        found.push_back(it->path());
      }
    }
    std::vector<std::pair<std::string, fs::path>> named;
    named.reserve(found.size());
    for (const fs::path& f : found) {
      const fs::path rel =
          fs::absolute(f, ec).lexically_normal().lexically_relative(base);
      named.emplace_back((base.filename() / rel).generic_string(), f);
    }
    std::sort(named.begin(), named.end());
    for (const auto& [display, file] : named) {
      DBLAYOUT_ASSIGN_OR_RETURN(const std::string content, ReadFileToString(file));
      AddSource(display, content);
    }
    return Status::OK();
  }
  if (fs::is_regular_file(p, ec)) {
    DBLAYOUT_ASSIGN_OR_RETURN(const std::string content, ReadFileToString(p));
    AddSource(p.generic_string(), content);
    return Status::OK();
  }
  return Status::NotFound(StrFormat("no such file or directory: %s", path.c_str()));
}

Status CheckRunner::LoadBaseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("cannot read baseline %s", path.c_str()));
  }
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    baseline_.insert(t);
  }
  return Status::OK();
}

std::string CheckRunner::BaselineKey(const Diagnostic& d) {
  return d.rule_id + "|" + d.file + "|" + d.message;
}

std::string CheckRunner::RenderBaseline(const LintReport& report) {
  std::string out =
      "# dblayout_check baseline: one `rule|file|message` per line.\n"
      "# Entries absorb matching findings; prefer fixing or an inline\n"
      "# `// dblayout-check(<rule>): <justification>` with a reason.\n";
  std::vector<std::string> keys;
  keys.reserve(report.diagnostics.size());
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule_id == "stale-baseline") continue;
    keys.push_back(BaselineKey(d));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const std::string& k : keys) out += k + "\n";
  return out;
}

LintReport CheckRunner::Run(CheckStats* stats) const {
  const SymbolIndex index = HarvestSymbols(files_);
  const ProgramModel program = BuildProgramModel(files_);
  const TaintAnalysis taint = ComputeTaint(program, options_.taint_source_allow,
                                           options_.taint_entry_prefixes);
  const CheckContext ctx{index, program, taint, options_};

  std::set<std::string> rule_ids;
  for (const auto& rule : rules_) rule_ids.insert(rule->id());

  LintReport report;
  for (const auto& rule : rules_) {
    report.rules.push_back(
        LintRuleInfo{rule->id(), rule->summary(), rule->severity()});
  }
  report.rules.push_back(LintRuleInfo{
      "invalid-suppression",
      "suppression markers must name a known rule, carry a justification, "
      "and match a finding",
      LintSeverity::kError});
  report.rules.push_back(LintRuleInfo{
      "stale-baseline",
      "baseline entries must still match a finding; prune with "
      "--prune-baseline",
      LintSeverity::kError});

  // Per-file analysis is independent and side-effect free: each worker
  // writes only its own slot, and slots merge in file order below, so the
  // report is byte-identical at any job count.
  struct FileResult {
    std::vector<Diagnostic> diags;
    std::vector<std::string> matched_baseline;
    size_t suppressed = 0;
    size_t baselined = 0;
    double millis = 0;
  };
  std::vector<FileResult> results(files_.size());

  auto analyze = [&](size_t fi) {
    const auto t0 = std::chrono::steady_clock::now();
    const SourceFile& f = files_[fi];
    FileResult& r = results[fi];
    // `used` marks per suppression whether any finding matched it.
    std::vector<bool> used(f.lex.suppressions.size(), false);

    auto absorb = [&](Diagnostic d) {
      const std::string key = BaselineKey(d);
      if (baseline_.count(key) > 0) {
        ++r.baselined;
        r.matched_baseline.push_back(key);
        return;
      }
      r.diags.push_back(std::move(d));
    };

    for (const auto& rule : rules_) {
      // Allowlisted paths: the rule is intentionally silent here.
      const auto allow = options_.allow_paths.find(rule->id());
      if (allow != options_.allow_paths.end() &&
          PathMatchesAny(f.path, allow->second)) {
        continue;
      }
      std::vector<Diagnostic> found;
      rule->Check(f, ctx, &found);
      for (Diagnostic& d : found) {
        d.file = f.path;
        // Inline suppression: same line or the line above, justified.
        bool suppressed = false;
        for (size_t si = 0; si < f.lex.suppressions.size(); ++si) {
          const SuppressionComment& s = f.lex.suppressions[si];
          if (s.rule != d.rule_id) continue;
          if (d.line != s.line && d.line != s.line + 1) continue;
          used[si] = true;  // marker matched, even if unjustified
          if (!s.justification.empty()) suppressed = true;
        }
        if (suppressed) {
          ++r.suppressed;
          continue;
        }
        absorb(std::move(d));
      }
    }
    // Marker hygiene: unknown rule, missing justification, or stale.
    for (size_t si = 0; si < f.lex.suppressions.size(); ++si) {
      const SuppressionComment& s = f.lex.suppressions[si];
      Diagnostic d;
      d.rule_id = "invalid-suppression";
      d.severity = LintSeverity::kError;
      d.file = f.path;
      d.line = s.line;
      if (rule_ids.count(s.rule) == 0) {
        d.message = StrFormat("suppression names unknown rule '%s'", s.rule.c_str());
      } else if (s.justification.empty()) {
        d.message = StrFormat(
            "suppression of '%s' has no justification (write "
            "`// dblayout-check(%s): <why this is safe>`)",
            s.rule.c_str(), s.rule.c_str());
      } else if (!used[si]) {
        d.message = StrFormat(
            "suppression of '%s' matches no finding on line %d or %d (stale marker?)",
            s.rule.c_str(), s.line, s.line + 1);
      } else {
        continue;
      }
      absorb(std::move(d));
    }
    r.millis = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  };

  ThreadPool::Shared().ParallelFor(
      static_cast<int64_t>(files_.size()), options_.jobs,
      [&analyze](int64_t i, int) { analyze(static_cast<size_t>(i)); });

  CheckStats local;
  local.files = files_.size();
  std::set<std::string> matched;
  for (size_t fi = 0; fi < files_.size(); ++fi) {
    FileResult& r = results[fi];
    for (Diagnostic& d : r.diags) report.diagnostics.push_back(std::move(d));
    local.suppressed += r.suppressed;
    local.baselined += r.baselined;
    matched.insert(r.matched_baseline.begin(), r.matched_baseline.end());
    local.timings.push_back(CheckStats::FileTiming{files_[fi].path, r.millis});
  }
  // A baseline may only shrink: entries that absorbed nothing are errors.
  for (const std::string& key : baseline_) {
    if (matched.count(key) > 0) continue;
    local.stale_baseline.push_back(key);
    Diagnostic d;
    d.rule_id = "stale-baseline";
    d.severity = LintSeverity::kError;
    d.file = "baseline";
    d.line = 0;
    d.message = StrFormat(
        "baseline entry matches no finding (prune with --prune-baseline): %s",
        key.c_str());
    report.diagnostics.push_back(std::move(d));
  }

  std::sort(report.rules.begin(), report.rules.end(),
            [](const LintRuleInfo& a, const LintRuleInfo& b) { return a.id < b.id; });
  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.severity != b.severity) return a.severity > b.severity;
                     if (a.rule_id != b.rule_id) return a.rule_id < b.rule_id;
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.message < b.message;
                   });
  if (stats != nullptr) *stats = local;
  return report;
}

}  // namespace dblayout::staticcheck
