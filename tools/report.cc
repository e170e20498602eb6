// `dblayout report`: run reports over `advise --journal-out` journals, plus
// A/B regression comparison over two BENCH_*.json files.
//
//   report --journal FILE [--top N]
//       Renders a run report from a JSONL decision journal: the run
//       envelope, the acceptance funnel by move kind, the cost trajectory,
//       the per-phase wall-clock breakdown (wall-clock journals only), and
//       the top-k hot statements/objects/drives when the journal carries
//       attribution events (`advise --report --journal-out`).
//   report --compare BASE.json CAND.json [--threshold-pct P]
//       Compares two bench record files case by case over their shared
//       lower-is-better numeric fields (keys ending in _ms/_s or containing
//       "cost"). A candidate value exceeding base * (1 + P/100) is a
//       regression. P defaults to 5.
//
// Exits 1 when --compare finds a regression, 2 on unusable inputs
// (unreadable files, malformed JSON, unsupported schema version).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/strutil.h"
#include "obs/journal.h"
#include "obs/json.h"

namespace dblayout::cli {
namespace {

using obs::JsonValue;

constexpr const char* kReportUsage =
    "report --journal FILE [--top N]\n"
    "       dblayout report --compare BASE.json CAND.json [--threshold-pct P]\n";

/// Per-move-kind funnel counters accumulated over the journal.
struct MoveFunnel {
  int64_t considered = 0;  ///< decision events (candidates that were scored)
  int64_t accepted = 0;
  int64_t rejected_capacity = 0;   ///< pre-check rejects, never scored
  int64_t rejected_movement = 0;
};

/// An integer field the report reads, with its accepted range.
struct IntField {
  const char* key;
  int64_t min = std::numeric_limits<int64_t>::min();
  int64_t max = std::numeric_limits<int64_t>::max();
};

/// The integer fields the report reads from each event kind. Each is
/// checked when its line is read, so Int never meets a malformed one.
std::vector<IntField> IntFields(const std::string& type) {
  if (type == "run_start") {
    return {{"v"}, {"seed"}, {"threads"}, {"objects"}, {"drives"}};
  }
  if (type == "run_end") return {{"iterations"}, {"evals"}};
  // The iteration count is the largest iter + 1.
  if (type == "iter_end") return {{"iter", 0, std::numeric_limits<int>::max()}};
  if (type == "drive") return {{"queue_depth_max"}};
  return {};
}

/// Integer field `key` of an event IntFields checked; 0 when absent.
int64_t Int(const JsonValue& ev, const char* key) { return ev.IntOr(key, 0).value_or(0); }

std::string Pct(double num, double den) {
  return den > 0 ? StrFormat("%.1f%%", 100.0 * num / den) : std::string("-");
}

/// `report --journal`: one pass over the JSONL lines, then render.
int RunJournalReport(const std::string& path, int top_k) {
  auto text = ReadFile(path);
  if (!text.ok()) return Fail("journal", text.status(), kExitUsage);

  std::map<std::string, MoveFunnel> funnel;  // ordered for stable output
  std::vector<std::pair<std::string, double>> phases;  // (name, ms or -1)
  // Trajectory: cost after the initial bind and after every accepted move.
  std::vector<double> trajectory;
  int64_t events = 0, evals = 0, iterations = 0;
  double eval_ns_total = 0;
  int64_t eval_ns_count = 0;
  JsonValue run_start, run_end;
  bool saw_run_start = false, saw_run_end = false;
  // Attribution tables (present when the journal was written with --report).
  double attributed_total_ms = -1;
  std::vector<std::pair<std::string, JsonValue>> statements, objects, drives;

  std::istringstream lines(text.value());
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto parsed = obs::ParseJson(line);
    if (!parsed.ok()) {
      return Fail(StrFormat("journal line %d", lineno), parsed.status(),
                  kExitUsage);
    }
    const JsonValue& ev = parsed.value();
    const std::string type = ev.StringOr("ev", "");
    for (const IntField& field : IntFields(type)) {
      if (Result<int64_t> v = ev.IntOr(field.key, 0, field.min, field.max); !v.ok()) {
        return Fail(StrFormat("journal line %d", lineno), v.status(), kExitUsage);
      }
    }
    ++events;
    if (type == "run_start") {
      const int64_t v = Int(ev, "v");
      if (v > obs::kJournalSchemaVersion) {
        return Fail(
            "journal",
            Status::InvalidArgument(StrFormat(
                "schema version %lld postdates this tool (max %d); rebuild "
                "dblayout",
                static_cast<long long>(v), obs::kJournalSchemaVersion)),
            kExitUsage);
      }
      run_start = ev;
      saw_run_start = true;
    } else if (type == "run_end") {
      run_end = ev;
      saw_run_end = true;
    } else if (type == "bind") {
      if (trajectory.empty()) trajectory.push_back(ev.NumberOr("cost", 0));
    } else if (type == "phase") {
      phases.emplace_back(ev.StringOr("name", "?"), ev.NumberOr("ms", -1));
    } else if (type == "reject") {
      MoveFunnel& f = funnel[ev.StringOr("move", "?")];
      if (ev.StringOr("reason", "") == "capacity") {
        ++f.rejected_capacity;
      } else {
        ++f.rejected_movement;
      }
    } else if (type == "eval") {
      ++evals;
      if (const JsonValue* ns = ev.Find("eval_ns");
          ns != nullptr && ns->is_number()) {
        eval_ns_total += ns->number_value();
        ++eval_ns_count;
      }
    } else if (type == "decision") {
      MoveFunnel& f = funnel[ev.StringOr("move", "?")];
      ++f.considered;
      if (ev.BoolOr("accepted", false)) {
        ++f.accepted;
        trajectory.push_back(ev.NumberOr("cost", 0));
      }
    } else if (type == "iter_end") {
      iterations = std::max(iterations, Int(ev, "iter") + 1);
    } else if (type == "attribution") {
      attributed_total_ms = ev.NumberOr("total_ms", -1);
    } else if (type == "statement") {
      statements.emplace_back("", ev);
    } else if (type == "object") {
      objects.emplace_back("", ev);
    } else if (type == "drive") {
      drives.emplace_back("", ev);
    }
  }
  if (!saw_run_start) {
    return Fail("journal",
                Status::InvalidArgument("no run_start envelope (not a journal?)"),
                kExitUsage);
  }

  std::printf("run report: %s (%lld events)\n", path.c_str(),
              static_cast<long long>(events));
  std::printf(
      "  tool %s, schema v%lld, seed %lld, threads %lld\n",
      run_start.StringOr("tool", "?").c_str(),
      static_cast<long long>(Int(run_start, "v")),
      static_cast<long long>(Int(run_start, "seed")),
      static_cast<long long>(Int(run_start, "threads")));
  std::printf("  build %s (%s, %s)\n",
              run_start.StringOr("git_sha", "unknown").c_str(),
              run_start.StringOr("compiler", "?").c_str(),
              run_start.StringOr("build_type", "?").c_str());
  std::printf("  workload %s: %lld objects on %lld drives\n",
              run_start.StringOr("workload", "?").c_str(),
              static_cast<long long>(Int(run_start, "objects")),
              static_cast<long long>(Int(run_start, "drives")));

  std::printf("\nacceptance funnel (%lld iterations, %lld candidate evals):\n",
              static_cast<long long>(iterations), static_cast<long long>(evals));
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"move", "pre-rejected", "scored", "accepted", "accept%"});
  for (const auto& [move, f] : funnel) {
    rows.push_back(
        {move,
         StrFormat("%lld", static_cast<long long>(f.rejected_capacity +
                                                  f.rejected_movement)),
         StrFormat("%lld", static_cast<long long>(f.considered)),
         StrFormat("%lld", static_cast<long long>(f.accepted)),
         Pct(static_cast<double>(f.accepted),
             static_cast<double>(f.considered))});
  }
  std::fputs(RenderTable(rows).c_str(), stdout);
  if (eval_ns_count > 0) {
    std::printf("mean candidate eval: %.0f ns over %lld timed evals\n",
                eval_ns_total / static_cast<double>(eval_ns_count),
                static_cast<long long>(eval_ns_count));
  }

  if (!trajectory.empty()) {
    const double first = trajectory.front();
    const double last = trajectory.back();
    std::printf("\ncost trajectory: %.0f ms -> %.0f ms over %zu accepted "
                "moves (%s improvement)\n",
                first, last, trajectory.size() - 1,
                Pct(first - last, first).c_str());
  }

  std::printf("\nphase wall-clock breakdown:\n");
  if (phases.empty()) {
    std::printf("  (no phase events in this journal)\n");
  } else {
    double total = 0;
    bool timed = false;
    for (const auto& [name, ms] : phases) {
      if (ms >= 0) {
        total += ms;
        timed = true;
      }
    }
    for (const auto& [name, ms] : phases) {
      if (ms >= 0) {
        std::printf("  %-10s %10.2f ms  %s\n", name.c_str(), ms,
                    Pct(ms, total).c_str());
      } else {
        // Logical-clock journals record the phase sequence but not
        // durations; re-run with --journal-wall-clock for timings.
        std::printf("  %-10s        n/a\n", name.c_str());
      }
    }
    if (timed) std::printf("  %-10s %10.2f ms\n", "total", total);
  }

  if (attributed_total_ms >= 0) {
    std::printf("\ncost attribution (total %.0f ms):\n", attributed_total_ms);
    rows.assign(1, {"top statements", "weight", "cost(ms)", "share"});
    int shown = 0;
    for (const auto& [unused, s] : statements) {
      if (shown++ >= top_k) break;
      rows.push_back({s.StringOr("sql", "?"),
                      StrFormat("%.0f", s.NumberOr("weight", 0)),
                      StrFormat("%.1f", s.NumberOr("cost_ms", 0)),
                      Pct(s.NumberOr("share", 0), 1.0)});
    }
    std::fputs(RenderTable(rows).c_str(), stdout);
    rows.assign(1, {"drive", "bound(ms)", "busy(ms)", "util", "queue-depth"});
    for (const auto& [unused, d] : drives) {
      rows.push_back({d.StringOr("name", "?"),
                      StrFormat("%.1f", d.NumberOr("bound_ms", 0)),
                      StrFormat("%.1f", d.NumberOr("busy_ms", 0)),
                      Pct(d.NumberOr("utilization", 0), 1.0),
                      StrFormat("%.1f/%lld", d.NumberOr("queue_depth_mean", 0),
                                static_cast<long long>(
                                    Int(d, "queue_depth_max")))});
    }
    std::fputs(RenderTable(rows).c_str(), stdout);
  }

  if (saw_run_end) {
    std::printf("\nrun_end: status %s, cost %.0f ms, improvement %.1f%%, "
                "%lld iterations, %lld evals%s\n",
                run_end.StringOr("status", "?").c_str(),
                run_end.NumberOr("cost", 0),
                run_end.NumberOr("improvement_pct", 0),
                static_cast<long long>(Int(run_end, "iterations")),
                static_cast<long long>(Int(run_end, "evals")),
                run_end.BoolOr("timed_out", false) ? " (TIMED OUT)" : "");
  } else {
    std::printf("\nWARNING: no run_end envelope — truncated journal?\n");
  }
  return 0;
}

/// Lower-is-better regression fields of a bench record: wall-clock and cost
/// metrics. Counters like evals or iterations are informational, not gates.
bool LowerIsBetter(const std::string& key) {
  auto ends_with = [&key](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return key.size() >= n && key.compare(key.size() - n, n, suffix) == 0;
  };
  return ends_with("_ms") || ends_with("_s") ||
         key.find("cost") != std::string::npos;
}

/// Loads {"bench":..., "records":[...]} and indexes the records by "case".
Result<std::map<std::string, JsonValue>> LoadBenchRecords(
    const std::string& path) {
  DBLAYOUT_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  DBLAYOUT_ASSIGN_OR_RETURN(JsonValue doc, obs::ParseJson(text));
  const JsonValue* records = doc.Find("records");
  if (records == nullptr || !records->is_array()) {
    return Status::InvalidArgument("'" + path +
                                   "' has no \"records\" array (not a "
                                   "BENCH_*.json file?)");
  }
  std::map<std::string, JsonValue> by_case;
  for (const JsonValue& rec : records->array()) {
    by_case.emplace(rec.StringOr("case", "?"), rec);
  }
  return by_case;
}

/// `report --compare`: exit 1 when any shared lower-is-better
/// metric of any shared case regresses beyond the threshold.
int RunCompare(const std::string& base_path, const std::string& cand_path,
               double threshold_pct) {
  auto base = LoadBenchRecords(base_path);
  if (!base.ok()) return Fail("base", base.status(), kExitUsage);
  auto cand = LoadBenchRecords(cand_path);
  if (!cand.ok()) return Fail("candidate", cand.status(), kExitUsage);

  int64_t compared = 0, regressions = 0, improvements = 0;
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"case", "metric", "base", "candidate", "delta", "verdict"});
  for (const auto& [case_name, base_rec] : base.value()) {
    const auto it = cand.value().find(case_name);
    if (it == cand.value().end()) {
      std::fprintf(stderr, "note: case '%s' missing from candidate; skipped\n",
                   case_name.c_str());
      continue;
    }
    for (const auto& [key, base_val] : base_rec.object()) {
      if (!base_val.is_number() || !LowerIsBetter(key)) continue;
      const JsonValue* cand_val = it->second.Find(key);
      if (cand_val == nullptr || !cand_val->is_number()) continue;
      const double b = base_val.number_value();
      const double c = cand_val->number_value();
      ++compared;
      const bool regressed = b >= 0 && c > b * (1.0 + threshold_pct / 100.0);
      const bool improved = b > 0 && c < b * (1.0 - threshold_pct / 100.0);
      if (regressed) ++regressions;
      if (improved) ++improvements;
      if (regressed || improved) {
        rows.push_back({case_name, key, StrFormat("%.4g", b),
                        StrFormat("%.4g", c), Pct(c - b, b),
                        regressed ? "REGRESSED" : "improved"});
      }
    }
  }
  if (rows.size() > 1) std::fputs(RenderTable(rows).c_str(), stdout);
  std::printf("compared %lld metrics at ±%.1f%%: %lld regressed, %lld "
              "improved\n",
              static_cast<long long>(compared), threshold_pct,
              static_cast<long long>(regressions),
              static_cast<long long>(improvements));
  return regressions > 0 ? 1 : 0;
}

}  // namespace

int RunReport(const Args& args) {
  std::string journal_path;
  std::vector<std::string> compare;
  double threshold_pct = 5.0;
  int top_k = 10;
  Status st = ParseFlags(args, {{"--journal", &journal_path},
                                {"--compare", &compare, 2},
                                {"--threshold-pct", &threshold_pct},
                                {"--top", &top_k}});
  if (st.ok() && journal_path.empty() == compare.empty()) {
    st = Status::InvalidArgument("give one of --journal and --compare");
  }
  if (!st.ok()) return Usage(st, kReportUsage);
  if (!journal_path.empty()) return RunJournalReport(journal_path, top_k);
  return RunCompare(compare[0], compare[1], threshold_pct);
}

}  // namespace dblayout::cli
