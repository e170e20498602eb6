// dblayout check: determinism & concurrency static analysis over dblayout's
// own sources (src/ and bench/).
//
// The repo's headline guarantee is that evaluator/search results are
// bit-identical to the Section 5 cost oracle at any thread count. That
// guarantee is enforced dynamically (DCHECK parity audits, TSan CI); this
// module enforces it *statically*, at the source level, so the classes of
// change that silently break determinism — hash-order iteration feeding
// ordered output or float accumulation, raw entropy reads, shared state
// without a named owner, hidden by-reference sharing in a fan-out — are
// caught at review time, before any benchmark notices. (Whether annotated
// state is accessed under its lock is proven by the compiler: Clang's
// -Wthread-safety in the clang-thread-safety CI leg.)
//
// Architecture mirrors src/lint/ (rule registry + runner + shared
// Diagnostic/renderers), but the input is our token-lexed C++ files
// (cpp_lexer.h). Three analysis layers feed the rules through a CheckContext:
//   1. SymbolIndex — flat cross-file name harvest of unordered containers,
//      the v1 layer;
//   2. ProgramModel (scope_parser.h) — per-function bodies, class fields
//      with DBLAYOUT_GUARDED_BY annotations, and a call graph;
//   3. TaintAnalysis — interprocedural clock/env/entropy reachability over
//      that call graph.
// Files are analyzed independently, in parallel on the shared ThreadPool
// under --jobs; finding order is invariant to the job count because results
// merge in file order before the final stable sort.
//
// False positives are silenced inline with
//     // dblayout-check(<rule>): <justification>
// on the finding's line or the line above; an empty justification does not
// suppress. A checked-in baseline file (tools/staticcheck_baseline.txt)
// can additionally absorb findings by (rule, file, message) so the ctest
// gate stays zero-finding while a fix is staged; baseline entries that no
// longer match any finding are themselves reported as errors (stale-baseline)
// so the file can only shrink.

#ifndef DBLAYOUT_STATICCHECK_STATICCHECK_H_
#define DBLAYOUT_STATICCHECK_STATICCHECK_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "lint/lint.h"
#include "staticcheck/cpp_lexer.h"
#include "staticcheck/scope_parser.h"

namespace dblayout::staticcheck {

/// One lexed source file. `path` is the repo-relative display path
/// ("src/layout/search.cc"); rules match allowlists against it.
struct SourceFile {
  std::string path;
  LexedSource lex;
};

/// Cross-file symbol knowledge harvested before rules run. Purely lexical:
/// a name is "unordered" if any declaration in the tree says so, which is
/// the right bias for a determinism gate (rules err toward reporting, and
/// per-site suppressions carry the justification).
struct SymbolIndex {
  /// Functions whose declared return type is an unordered container
  /// (e.g. WeightedGraph::Neighbors).
  std::set<std::string> unordered_functions;
  /// Variables / members declared as unordered containers.
  std::set<std::string> unordered_values;
  /// Variables / members declared as *ordered* containers of unordered
  /// elements (e.g. std::vector<std::unordered_map<...>> adj_): iterating
  /// the container is fine, iterating an indexed element is not.
  std::set<std::string> unordered_element_values;
};

/// One function the interprocedural taint pass marked as transitively
/// reading a nondeterministic input.
struct TaintedFunction {
  std::string source;             ///< e.g. "std::chrono::steady_clock::now()"
  std::vector<std::string> path;  ///< qualified names, this function first
};

/// Result of propagating clock/env/entropy taint backwards over the call
/// graph. Only *carrier* functions appear: functions defined in files that
/// match neither the source allowlist (obs/bench/tools own their timing) nor
/// the entry prefixes (entry-layer sources are reported at their own line,
/// and reporting every transitive caller inside the entry layer again would
/// drown the one actionable finding).
struct TaintAnalysis {
  /// index into ProgramModel::functions -> taint evidence.
  std::map<size_t, TaintedFunction> tainted;

  const TaintedFunction* Find(size_t idx) const {
    auto it = tainted.find(idx);
    return it == tainted.end() ? nullptr : &it->second;
  }
};

struct CheckOptions;  // below

/// Defined-function indices a call site may land on: the qualified name
/// ("Class::Name") when it resolves, otherwise every definition sharing the
/// bare name (over-approximation — the right bias for a reachability gate).
std::vector<size_t> ResolveCall(const ProgramModel& program, const CallSite& c);

TaintAnalysis ComputeTaint(const ProgramModel& program,
                           const std::vector<std::string>& source_allow,
                           const std::vector<std::string>& entry_prefixes);

/// True when `path` contains any of `fragments` (allowlists, layer prefixes).
bool PathMatchesAny(const std::string& path,
                    const std::vector<std::string>& fragments);

/// A finding of `rule` at `line`; the runner fills in the file.
Diagnostic MakeDiag(const char* rule, LintSeverity severity, int line,
                    std::string message, std::string fix = "");

/// Everything a rule may consult beyond the file it is checking.
struct CheckContext {
  const SymbolIndex& index;
  const ProgramModel& program;
  const TaintAnalysis& taint;
  const CheckOptions& options;
};

struct CheckOptions {
  /// rule id -> path substrings where the rule is intentionally silent
  /// (e.g. raw-random inside common/rng.h, the sanctioned entropy home).
  /// Filled with the defaults documented in the README rule table.
  std::map<std::string, std::vector<std::string>> allow_paths;

  /// Files whose direct clock/env/entropy reads are *not* taint sources:
  /// the seeded Rng, the obs timing layer, bench/tool infrastructure, and
  /// dblayout check's own --verbose timing.
  std::vector<std::string> taint_source_allow;
  /// Files whose functions are determinism-critical entry points: taint
  /// reachable from here is a finding. The paper's cost-model/search/
  /// partition reproduction plus the resilience layer built on it.
  std::vector<std::string> taint_entry_prefixes;

  /// Parallelism of the per-file analysis on the shared ThreadPool (1 = on
  /// the calling thread; capped at the pool's workers + 1). The report is
  /// byte-identical at any value.
  int jobs = 1;

  CheckOptions();
};

/// One source-level rule, mirroring lint::LintRule.
class CheckRule {
 public:
  virtual ~CheckRule() = default;
  virtual const char* id() const = 0;
  virtual const char* summary() const = 0;
  virtual LintSeverity severity() const = 0;
  /// Appends findings (with file/line set) to `out`. Must be deterministic
  /// and must not mutate anything reachable from `ctx` (rules run
  /// concurrently across files under --jobs).
  virtual void Check(const SourceFile& file, const CheckContext& ctx,
                     std::vector<Diagnostic>* out) const = 0;
};

/// The built-in determinism/concurrency rule set: the token-level rules
/// (rules.cc) plus the scope-aware rules (rules_scoped.cc). The README
/// lists each rule with the guarantee it protects.
std::vector<std::unique_ptr<CheckRule>> DefaultCheckRules();

/// The scope-aware rules alone (unannotated-mutex-field,
/// determinism-taint).
std::vector<std::unique_ptr<CheckRule>> ScopedCheckRules();

/// Harvests the SymbolIndex from every file (exposed for tests).
SymbolIndex HarvestSymbols(const std::vector<SourceFile>& files);

/// Side counts of what the run filtered out, plus per-file analysis time
/// (the one intentionally nondeterministic output; --verbose only).
struct CheckStats {
  size_t files = 0;
  size_t suppressed = 0;  ///< findings silenced by valid inline markers
  size_t baselined = 0;   ///< findings absorbed by the baseline file
  /// Baseline entries that matched nothing this run (also reported as
  /// stale-baseline errors; --prune-baseline drops them).
  std::vector<std::string> stale_baseline;
  struct FileTiming {
    std::string path;
    double millis = 0;
  };
  std::vector<FileTiming> timings;  ///< file order, filled when timed
};

class CheckRunner {
 public:
  explicit CheckRunner(CheckOptions options = {});

  void AddRule(std::unique_ptr<CheckRule> rule);

  /// Registers an in-memory file (tests) or one read from disk.
  void AddSource(std::string path, const std::string& content);
  /// Adds a file (by extension .h/.cc/.cpp) or recursively walks a
  /// directory. Files under a directory argument are recorded relative to
  /// the directory's parent, so a run over /abs/path/src reports
  /// "src/layout/search.cc" regardless of checkout location.
  Status AddPath(const std::string& path);

  /// Loads baseline entries (one BaselineKey per line; '#' comments and
  /// blank lines ignored).
  Status LoadBaseline(const std::string& path);

  /// Harvests symbols, builds the program model and taint analysis, runs
  /// every rule over every file (in parallel when options.jobs > 1),
  /// applies allowlists, inline suppressions, and the baseline, reports
  /// invalid/stale suppression markers and stale baseline entries, and
  /// returns the deterministic report.
  LintReport Run(CheckStats* stats = nullptr) const;

  /// Stable identity of a finding for baseline matching: "rule|file|message"
  /// (line numbers excluded so unrelated edits do not churn the baseline).
  static std::string BaselineKey(const Diagnostic& d);

  /// Renders a report as baseline file content. Meta-findings about the
  /// baseline itself (stale-baseline) are excluded — a baseline must not
  /// absorb its own staleness.
  static std::string RenderBaseline(const LintReport& report);

  const std::vector<SourceFile>& files() const { return files_; }
  const std::set<std::string>& baseline() const { return baseline_; }

 private:
  CheckOptions options_;
  std::vector<std::unique_ptr<CheckRule>> rules_;
  std::vector<SourceFile> files_;
  std::set<std::string> baseline_;
};

}  // namespace dblayout::staticcheck

#endif  // DBLAYOUT_STATICCHECK_STATICCHECK_H_
