// Workload representation (Section 2.2): a set of SQL DML statements, each
// with an optional weight denoting its importance (e.g. multiplicity).

#ifndef DBLAYOUT_WORKLOAD_WORKLOAD_H_
#define DBLAYOUT_WORKLOAD_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"

namespace dblayout {

struct WorkloadStatement {
  std::string sql;
  double weight = 1.0;
  /// Concurrency stream tag (extension beyond the paper's set-of-statements
  /// model, which it lists as ongoing work). Statements with stream <= 0 are
  /// treated as running in isolation; statements with different positive
  /// stream ids are assumed to execute concurrently with one another, and
  /// statements sharing a stream id run serially in workload order.
  int stream = 0;
  SqlStatement parsed;
};

class Workload {
 public:
  explicit Workload(std::string name = "workload") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Parses and appends one statement. Fails on SQL the subset cannot parse.
  Status Add(const std::string& sql, double weight = 1.0, int stream = 0);

  /// Parses a workload script: statements separated by ';' or GO lines.
  /// A ';' inside a quoted literal or a `--` comment ends no statement; a GO
  /// line ends one even inside a literal (the statement then fails as
  /// unterminated, its error naming the line the literal opened on). Line
  /// comments of the form `-- weight: <w>` and `-- stream: <n>`
  /// immediately before a statement set that statement's weight / stream.
  /// Parse failures carry `name:line:` context (pass the file path as
  /// `name` when loading from a file).
  static Result<Workload> FromScript(const std::string& name, const std::string& script);

  /// One statement (or weight/stream directive) of a script that could not
  /// be parsed; produced by FromScriptLenient.
  struct ScriptError {
    std::string text;  ///< the offending statement or directive line
    int line = 0;      ///< 1-based script line where the statement starts
    Status status;
  };

  /// Like FromScript, but statements (and weight/stream directives) that
  /// fail to parse are collected into `errors` (when non-null) instead of
  /// failing the whole script. Used by the lint subsystem, which reports
  /// unparsable statements as diagnostics rather than refusing the workload.
  static Workload FromScriptLenient(const std::string& name, const std::string& script,
                                    std::vector<ScriptError>* errors);

  /// True if any statement carries a positive stream tag.
  bool HasConcurrencyStreams() const;

  size_t size() const { return statements_.size(); }
  bool empty() const { return statements_.empty(); }
  const WorkloadStatement& statement(size_t i) const { return statements_[i]; }
  const std::vector<WorkloadStatement>& statements() const { return statements_; }

  double TotalWeight() const;

 private:
  std::string name_;
  std::vector<WorkloadStatement> statements_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_WORKLOAD_WORKLOAD_H_
