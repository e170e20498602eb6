// `dblayout check`: the determinism & concurrency static-analysis gate over
// dblayout's own sources (see src/staticcheck/).
//
//   check [options] <file-or-dir>...
//
//   --format text|json|sarif   output format (default text)
//   --baseline FILE            absorb findings listed in FILE
//   --write-baseline FILE      write the current findings as a new baseline
//   --fail-on note|warn|error  exit 1 at/above this severity (default note:
//                              the gate requires a completely clean tree)
//   --list-rules               print the rule table and exit
//   --stats                    print files/suppressed/baselined counts
//   --jobs N                   analyze files with parallelism N on the
//                              shared thread pool (default 1; capped at its
//                              size); the report is byte-identical at any N
//   --verbose                  print per-file analysis time to stderr
//   --prune-baseline           rewrite the --baseline file without entries
//                              that no longer match any finding

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "cli.h"
#include "staticcheck/staticcheck.h"

namespace dblayout::cli {
namespace {

using staticcheck::CheckOptions;
using staticcheck::CheckRunner;
using staticcheck::CheckStats;

constexpr const char* kCheckUsage =
    "check [--format text|json|sarif] [--baseline FILE]\n"
    "          [--write-baseline FILE] [--prune-baseline]\n"
    "          [--fail-on SEV] [--jobs N] [--verbose] [--stats]\n"
    "          [--list-rules] <file-or-dir>...\n";

}  // namespace

int RunCheck(const Args& args) {
  std::vector<std::string> paths;
  std::string format = "text", baseline, write_baseline, fail_on = "note";
  bool list_rules = false, stats_out = false, verbose = false,
       prune_baseline = false;
  CheckOptions options;
  Status st = ParseFlags(args,
                         {{"--format", &format},
                          {"--baseline", &baseline},
                          {"--write-baseline", &write_baseline},
                          {"--fail-on", &fail_on},
                          {"--jobs", &options.jobs},
                          {"--verbose", &verbose},
                          {"--prune-baseline", &prune_baseline},
                          {"--list-rules", &list_rules},
                          {"--stats", &stats_out}},
                         &paths);
  const auto threshold = ParseLintSeverity(fail_on);
  if (st.ok()) st = threshold.status();
  if (st.ok() && options.jobs < 1) {
    st = Status::InvalidArgument("--jobs requires a positive integer");
  }
  if (st.ok()) st = CheckFormat(format);
  if (st.ok() && prune_baseline && baseline.empty()) {
    st = Status::InvalidArgument("--prune-baseline requires --baseline FILE");
  }
  if (st.ok() && paths.empty() && !list_rules) {
    st = Status::InvalidArgument("no file or directory to check");
  }
  if (!st.ok()) return Usage(st, kCheckUsage);

  if (list_rules) {
    for (const LintRuleInfo& r : CheckRunner().Run().rules) {
      std::printf("%-28s %-7s %s\n", r.id.c_str(), LintSeverityName(r.severity),
                  r.summary.c_str());
    }
    return kExitOk;
  }
  CheckRunner runner(options);
  for (const std::string& p : paths) {
    if (Status added = runner.AddPath(p); !added.ok()) {
      return Fail("check", added, kExitUsage);
    }
  }
  if (!baseline.empty()) {
    if (Status loaded = runner.LoadBaseline(baseline); !loaded.ok()) {
      return Fail("check", loaded, kExitUsage);
    }
  }

  CheckStats stats;
  const LintReport report = runner.Run(&stats);

  if (prune_baseline) {
    const std::set<std::string> stale(stats.stale_baseline.begin(),
                                      stats.stale_baseline.end());
    std::string pruned = CheckRunner::RenderBaseline(LintReport());  // header
    size_t kept = 0;
    for (const std::string& key : runner.baseline()) {
      if (stale.count(key) > 0) continue;
      pruned += key + "\n";
      ++kept;
    }
    if (Status written = WriteFile(baseline, pruned); !written.ok()) {
      return Fail("prune-baseline", written, kExitUsage);
    }
    std::fprintf(stderr, "pruned %zu stale baseline entr%s from %s (%zu kept)\n",
                 stale.size(), stale.size() == 1 ? "y" : "ies",
                 baseline.c_str(), kept);
  }
  if (verbose) {
    for (const CheckStats::FileTiming& t : stats.timings) {
      std::fprintf(stderr, "%8.2f ms  %s\n", t.millis, t.path.c_str());
    }
  }

  if (!write_baseline.empty()) {
    if (Status written =
            WriteFile(write_baseline, CheckRunner::RenderBaseline(report));
        !written.ok()) {
      return Fail("write-baseline", written, kExitUsage);
    }
    std::fprintf(stderr, "wrote %zu baseline entr%s to %s\n",
                 report.diagnostics.size(),
                 report.diagnostics.size() == 1 ? "y" : "ies",
                 write_baseline.c_str());
  }

  std::fputs(RenderFindings(report, format, "dblayout-check", "dblayout-check")
                 .c_str(),
             stdout);
  if (stats_out) {
    std::fprintf(stderr, "checked %zu files; %zu suppressed, %zu baselined\n",
                 stats.files, stats.suppressed, stats.baselined);
  }
  return report.CountAtLeast(*threshold) > 0 ? kExitFailed : kExitOk;
}

}  // namespace dblayout::cli
