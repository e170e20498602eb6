// dblayout: the database layout advisor's one command-line tool.
//
//   dblayout <subcommand> [flags]
//
// Each subcommand prints its own usage on a flag error; cli.h lists the
// exit codes they share.

#include <cstdio>
#include <string>

#include "cli.h"

namespace {

struct Subcommand {
  const char* name;
  int (*run)(const dblayout::cli::Args& args);
  const char* summary;
};

constexpr Subcommand kSubcommands[] = {
    {"advise", dblayout::cli::RunAdvise,
     "recommend a layout for a workload, a database and drives"},
    {"lint", dblayout::cli::RunLint,
     "check those inputs, and optionally a layout, for known pathologies"},
    {"serve", dblayout::cli::RunServe,
     "advise continuously over a statement stream, behind guardrails"},
    {"report", dblayout::cli::RunReport,
     "render an advise journal, or compare two bench records"},
    {"check", dblayout::cli::RunCheck,
     "run the determinism and concurrency checks over C++ sources"},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    for (const Subcommand& sub : kSubcommands) {
      if (std::string(argv[1]) == sub.name) {
        return sub.run(dblayout::cli::Args(argv + 2, argv + argc));
      }
    }
    std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
  }
  std::fprintf(stderr, "usage: dblayout <subcommand> [flags]\n\nsubcommands:\n");
  for (const Subcommand& sub : kSubcommands) {
    std::fprintf(stderr, "  %-8s %s\n", sub.name, sub.summary);
  }
  return dblayout::cli::kExitUsage;
}
