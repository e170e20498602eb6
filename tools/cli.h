// Shared plumbing of the `dblayout` subcommands (see dblayout.cc): one flag
// parser, one file reader and writer, the input loaders, the run_start /
// run_end journal envelope, and the telemetry flush that a run takes on
// success and on SIGINT/SIGTERM alike.
//
// Exit codes, the same for every subcommand: 0 ok; 1 the run failed on
// well-formed inputs (or found lint/check findings, or a --compare
// regression); 2 unusable flags or inputs; 130 interrupted by a signal,
// with the telemetry flushed.

#ifndef DBLAYOUT_TOOLS_CLI_H_
#define DBLAYOUT_TOOLS_CLI_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "lint/lint.h"
#include "obs/journal.h"
#include "storage/disk.h"

namespace dblayout::cli {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFailed = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInterrupted = 130;

using Args = std::vector<std::string>;

/// One row of a subcommand's flag table. The target's type picks the
/// argument shape:
///   bool*                      a switch, which takes no value
///   std::string*               one value
///   int*, uint64_t*, double*   one value that must parse completely
///   std::vector<std::string>*  `operands` values per use; each use appends
/// A valued flag takes `--flag value` or `--flag=value`; with `=`, the rest
/// of a multi-operand flag's values follow as separate arguments.
struct Flag {
  const char* name;
  std::variant<bool*, std::string*, int*, uint64_t*, double*,
               std::vector<std::string>*>
      target;
  int operands = 1;
  /// Makes the value optional (`--tpch [SCALE]`): set when the flag
  /// appears; the value comes from `=` or from a next argument that does
  /// not start with '-'.
  bool* present = nullptr;
};

/// Parses `args` against `flags`. Arguments that do not start with '-' are
/// appended to `*positional`, or are an error when it is null. Every error
/// names the offending argument.
Status ParseFlags(const Args& args, const std::vector<Flag>& flags,
                  std::vector<std::string>* positional = nullptr);

/// Prints the message of `error`, then "usage: dblayout <usage>"; returns 2.
int Usage(const Status& error, const char* usage);

/// Prints "<what>: <status>" to stderr and returns `code`.
int Fail(const std::string& what, const Status& st, int code = kExitFailed);

Result<std::string> ReadFile(const std::string& path);
Status WriteFile(const std::string& path, const std::string& content);

/// Lint and check --format: text, json or sarif.
Status CheckFormat(const std::string& format);
/// Renders lint or check findings in `format`; `text_tool` names the text
/// summary line, `tool` the JSON and SARIF producer.
std::string RenderFindings(const LintReport& report, const std::string& format,
                           const std::string& text_tool, const std::string& tool);

/// Reads and parses a CREATE TABLE / CREATE INDEX script.
Result<Database> LoadSchema(const std::string& path);
/// Reads and parses a drive list (one drive per line, see DiskFleet).
Result<DiskFleet> LoadFleet(const std::string& path);
std::vector<std::string> ObjectNames(const Database& db);

/// A run's telemetry sinks and their one flush path.
struct Telemetry {
  std::string trace_out, metrics_out, journal_out;
  std::unique_ptr<obs::EventJournal> journal;

  /// Installs the SIGINT/SIGTERM handlers (a signal sets the shutdown flag
  /// that long stages poll, and the run unwinds into Flush), then turns the
  /// metrics registry on when metrics, a trace or `progress` are asked for,
  /// stamped with the run's seed and threads, and the tracer for a trace.
  void Start(uint64_t seed, int threads, bool progress = false) const;

  /// Opens `journal` with the run_start envelope: the schema version,
  /// `tool`, seed and threads, then `inputs`, then the database and fleet
  /// sizes and the build. Line 1 is the only journal line allowed to differ
  /// between equivalent runs.
  void StartJournal(const char* tool, uint64_t seed, int threads,
                    const obs::JournalFields& inputs, const Database& db,
                    const DiskFleet& fleet, obs::JournalOptions options = {});

  /// Writes the trace, the metrics, and the journal closed by a run_end
  /// event (`status` ok or interrupted, then `run_end`), each one asked for.
  /// Returns 1 if a write fails, else 130 when interrupted, else 0.
  int Flush(bool interrupted, const obs::JournalFields& run_end) const;
};

int RunAdvise(const Args& args);
int RunLint(const Args& args);
int RunServe(const Args& args);
int RunReport(const Args& args);
int RunCheck(const Args& args);

}  // namespace dblayout::cli

#endif  // DBLAYOUT_TOOLS_CLI_H_
