#include "cli.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/strutil.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/shutdown.h"
#include "sql/ddl.h"

namespace dblayout::cli {
namespace {

/// Numbers must parse completely: "4x", "" or "abc" are errors, never a
/// silent prefix or zero, and an integer must fit its flag.
template <typename T>
Status ParseNumber(const std::string& flag, const std::string& text, T* out) {
  std::optional<T> v;
  if constexpr (std::is_same_v<T, double>) {
    v = ParseDouble(text);
  } else {
    v = ParseInt<T>(text);
  }
  if (!v) {
    return Status::InvalidArgument(StrFormat(
        "%s expects %s, got '%s'", flag.c_str(),
        std::is_same_v<T, double> ? "a number"
        : std::is_unsigned_v<T>   ? "a non-negative integer"
                                  : "an integer",
        text.c_str()));
  }
  *out = *v;
  return Status::OK();
}

}  // namespace

Status ParseFlags(const Args& args, const std::vector<Flag>& flags,
                  std::vector<std::string>* positional) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      if (positional == nullptr) {
        return Status::InvalidArgument("unexpected argument '" + arg + "'");
      }
      positional->push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (name == f.name) flag = &f;
    }
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
    if (bool* const* on = std::get_if<bool*>(&flag->target)) {
      if (eq != std::string::npos) {
        return Status::InvalidArgument(name + " takes no value");
      }
      **on = true;
      continue;
    }
    std::vector<std::string> values;
    if (eq != std::string::npos) values.push_back(arg.substr(eq + 1));
    if (flag->present != nullptr) {
      *flag->present = true;
      if (values.empty() && i + 1 < args.size() &&
          args[i + 1].rfind('-', 0) != 0) {
        values.push_back(args[++i]);
      }
      if (values.empty()) continue;
    }
    while (static_cast<int>(values.size()) < flag->operands) {
      if (i + 1 == args.size()) {
        return Status::InvalidArgument(
            flag->operands == 1
                ? name + " needs a value"
                : StrFormat("%s needs %d values", name.c_str(), flag->operands));
      }
      values.push_back(args[++i]);
    }
    const Status st = std::visit(
        [&](auto* target) {
          using T = std::remove_pointer_t<decltype(target)>;
          if constexpr (std::is_same_v<T, std::vector<std::string>>) {
            target->insert(target->end(), values.begin(), values.end());
          } else if constexpr (std::is_same_v<T, std::string>) {
            *target = values[0];
          } else if constexpr (!std::is_same_v<T, bool>) {  // switches: above
            return ParseNumber(name, values[0], target);
          }
          return Status::OK();
        },
        flag->target);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

int Usage(const Status& error, const char* usage) {
  std::fprintf(stderr, "%s\nusage: dblayout %s", error.message().c_str(), usage);
  return kExitUsage;
}

int Fail(const std::string& what, const Status& st, int code) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), st.ToString().c_str());
  return code;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  if (!out) return Status::Internal("cannot write file '" + path + "'");
  return Status::OK();
}

Status CheckFormat(const std::string& format) {
  if (format == "text" || format == "json" || format == "sarif") {
    return Status::OK();
  }
  return Status::InvalidArgument("unknown --format '" + format +
                                 "' (expected text, json, or sarif)");
}

std::string RenderFindings(const LintReport& report, const std::string& format,
                           const std::string& text_tool, const std::string& tool) {
  if (format == "json") return RenderLintJson(report, tool);
  if (format == "sarif") return RenderLintSarif(report, tool);
  return RenderLintText(report, text_tool);
}

Result<Database> LoadSchema(const std::string& path) {
  DBLAYOUT_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseSchemaScript("database", text);
}

Result<DiskFleet> LoadFleet(const std::string& path) {
  DBLAYOUT_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return DiskFleet::FromSpec(text, path);
}

std::vector<std::string> ObjectNames(const Database& db) {
  std::vector<std::string> names;
  for (const auto& o : db.Objects()) names.push_back(o.name);
  return names;
}

void Telemetry::Start(uint64_t seed, int threads, bool progress) const {
  InstallShutdownHandlers();
  if (!metrics_out.empty() || !trace_out.empty() || progress) {
    obs::SetEnabled(true);
    obs::StampRunMetadata(seed, threads);
  }
  if (!trace_out.empty()) {
    obs::Tracer::Global().SetEnabled(true);
    obs::Tracer::Global().SetMetadata(
        "seed", StrFormat("%llu", static_cast<unsigned long long>(seed)));
  }
}

void Telemetry::StartJournal(const char* tool, uint64_t seed, int threads,
                             const obs::JournalFields& inputs,
                             const Database& db, const DiskFleet& fleet,
                             obs::JournalOptions options) {
  journal = std::make_unique<obs::EventJournal>(options);
  const obs::BuildInfo& build = obs::GetBuildInfo();
  obs::JournalFields fields = {
      {"v", obs::JsonInt(obs::kJournalSchemaVersion)},
      {"tool", obs::JsonString(tool)},
      {"seed", obs::JsonInt(static_cast<int64_t>(seed))},
      {"threads", obs::JsonInt(threads)}};
  fields.insert(fields.end(), inputs.begin(), inputs.end());
  fields.insert(
      fields.end(),
      {{"objects", obs::JsonInt(static_cast<int64_t>(db.Objects().size()))},
       {"drives", obs::JsonInt(fleet.num_disks())},
       {"git_sha", obs::JsonString(build.git_sha)},
       {"compiler", obs::JsonString(build.compiler)},
       {"build_type", obs::JsonString(build.build_type)},
       {"build_flags", obs::JsonString(build.flags)}});
  journal->Append("run_start", fields);
}

int Telemetry::Flush(bool interrupted, const obs::JournalFields& run_end) const {
  if (!trace_out.empty()) {
    const obs::Tracer& tracer = obs::Tracer::Global();
    if (Status st = WriteFile(trace_out, tracer.ToChromeJson()); !st.ok()) {
      return Fail("trace-out", st);
    }
    std::printf("\n%s\ntrace written to %s (load in chrome://tracing or Perfetto)\n",
                tracer.Summary().c_str(), trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (Status st = WriteFile(metrics_out,
                              obs::MetricsRegistry::Global().RenderPrometheus());
        !st.ok()) {
      return Fail("metrics-out", st);
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (journal != nullptr) {
    obs::JournalFields fields = {
        {"status", obs::JsonString(interrupted ? "interrupted" : "ok")}};
    fields.insert(fields.end(), run_end.begin(), run_end.end());
    journal->Append("run_end", fields);
    if (!journal_out.empty()) {
      if (Status st = journal->WriteFile(journal_out); !st.ok()) {
        return Fail("journal-out", st);
      }
      std::printf("journal written to %s (%lld events)\n", journal_out.c_str(),
                  static_cast<long long>(journal->event_count()));
    }
  }
  return interrupted ? kExitInterrupted : kExitOk;
}

}  // namespace dblayout::cli
