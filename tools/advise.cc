// `dblayout advise`, the layout advisor of Fig. 3, and `dblayout lint`,
// the layout linter, over the same inputs:
//
//   schema.sql    CREATE TABLE / CREATE INDEX script (see src/sql/ddl.h)
//   workload.sql  SQL DML statements separated by ';' or GO, with optional
//                 `-- weight: <w>` comments
//   trace.txt     a profiler trace (`timestamp_ms session_id sql` lines),
//                 instead of a workload
//   disks.txt     one drive per line:
//                 name capacity_gb seek_ms read_mb_s write_mb_s [avail]
//
// advise --max-move F assumes the current layout is full striping. Its
// --resilience-report, --fault-plan and --evacuate analyse the layout this
// run ships: the --evaluate layout when given, else the recommendation.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benchdata/tpch.h"
#include "cli.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "engine/execution_sim.h"
#include "layout/advisor.h"
#include "layout/filegroup_script.h"
#include "lint/lint.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "resilience/degraded.h"
#include "resilience/evacuate.h"
#include "service/shutdown.h"
#include "sql/ddl.h"
#include "workload/analyzer.h"
#include "workload/trace.h"

namespace dblayout::cli {
namespace {

constexpr const char* kAdviseUsage =
    "advise --schema FILE (--workload FILE | --trace FILE) --disks FILE\n"
    "          [--co-locate A,B]... [--avail OBJ=LEVEL]...\n"
    "          [--max-move FRACTION] [--greedy-k K]\n"
    "          [--explain] [--simulate] [--dump-schema] [--emit-script]\n"
    "          [--concurrency] [--save-layout FILE] [--evaluate FILE]\n"
    "          [--metrics-out FILE] [--trace-out FILE] [--progress]\n"
    "          [--journal-out FILE] [--journal-wall-clock] [--report]\n"
    "          [--fault-plan FILE] [--resilience-report]\n"
    "          [--evacuate DRIVE] [--time-budget-ms MS]\n"
    "          [--threads N] [--seed N] [--tpch [SCALE]]\n";

constexpr const char* kLintUsage =
    "lint --schema FILE (--workload FILE | --trace FILE) --disks FILE\n"
    "          [--co-locate A,B]... [--avail OBJ=LEVEL]...\n"
    "          [--max-move FRACTION] [--concurrency] [--evaluate FILE]\n"
    "          [--format text|json|sarif] [--fail-on note|warn|error]\n";

/// The inputs and constraints that advise and lint share.
struct Inputs {
  std::string schema, workload, trace, disks, evaluate;
  bool concurrency = false;
  std::vector<std::string> co_locate, avail;
  double max_move = -1;  ///< movement budget from full striping; < 0: none
  Constraints constraints;
  Layout current;  ///< full striping, when max_move >= 0

  std::vector<Flag> Flags() {
    return {{"--schema", &schema},         {"--workload", &workload},
            {"--trace", &trace},           {"--concurrency", &concurrency},
            {"--disks", &disks},           {"--evaluate", &evaluate},
            {"--co-locate", &co_locate},   {"--avail", &avail},
            {"--max-move", &max_move}};
  }

  /// Requires --schema, --disks and one of --workload and --trace (only
  /// --disks when the database and workload are `generated`), and resolves
  /// --co-locate and --avail into `constraints`.
  Status Resolve(bool generated) {
    if (generated) {
      if (!schema.empty() || !workload.empty() || !trace.empty()) {
        return Status::InvalidArgument(
            "--tpch replaces --schema/--workload/--trace");
      }
      if (disks.empty()) return Status::InvalidArgument("--disks is required");
    } else if (schema.empty() || disks.empty() ||
               workload.empty() == trace.empty()) {
      return Status::InvalidArgument(
          "--schema, --disks and one of --workload and --trace are required");
    }
    for (const std::string& v : co_locate) {
      const std::vector<std::string> parts = Split(v, ',');
      if (parts.size() != 2) {
        return Status::InvalidArgument("--co-locate expects OBJ1,OBJ2");
      }
      constraints.co_located.emplace_back(parts[0], parts[1]);
    }
    for (const std::string& v : avail) {
      const std::vector<std::string> parts = Split(v, '=');
      if (parts.size() != 2) {
        return Status::InvalidArgument("--avail expects OBJ=LEVEL");
      }
      const std::string level = ToLower(parts[1]);
      if (level != "none" && level != "parity" && level != "mirroring") {
        return Status::InvalidArgument("unknown availability '" + parts[1] + "'");
      }
      constraints.avail_requirements.emplace_back(
          parts[0], level == "none"     ? Availability::kNone
                    : level == "parity" ? Availability::kParity
                                        : Availability::kMirroring);
    }
    return Status::OK();
  }

  /// Reads the --trace file; with --concurrency its sessions become
  /// concurrent streams.
  Result<Workload> LoadTrace(const std::string& name) const {
    DBLAYOUT_ASSIGN_OR_RETURN(std::string text, ReadFile(trace));
    TraceOptions topt;
    topt.sessions_as_streams = concurrency;
    return WorkloadFromTrace(name, text, topt);
  }

  /// Bounds the movement from full striping, when --max-move asks for it.
  void ApplyMovementBudget(const Database& db, const DiskFleet& fleet) {
    if (max_move < 0) return;
    current = Layout::FullStriping(static_cast<int>(db.Objects().size()), fleet);
    constraints.current_layout = &current;
    constraints.max_movement_fraction = max_move;
  }
};

Result<Layout> LoadLayout(const std::string& path, const Database& db,
                          const DiskFleet& fleet) {
  DBLAYOUT_ASSIGN_OR_RETURN(std::string csv, ReadFile(path));
  return Layout::FromCsv(csv, ObjectNames(db), fleet);
}

/// The lint rules, plus the workload-progress rule, over `input`.
Result<LintReport> RunLintRules(const OptimizerOptions& optimizer,
                                const LintInput& input) {
  LintOptions lint_options;
  lint_options.optimizer = optimizer;
  LintRunner runner(lint_options);
  runner.AddRule(MakeWorkloadProgressRule());
  return runner.Run(input);
}

std::vector<WeightedPlan> Plans(const WorkloadProfile& profile) {
  std::vector<WeightedPlan> plans;
  for (const auto& s : profile.statements) {
    plans.push_back(WeightedPlan{s.plan.get(), s.weight});
  }
  return plans;
}

}  // namespace

/// Loads everything leniently, runs the lint rules and renders them; exits
/// 0 (clean below --fail-on), 1 (findings at or above it) or 2 (unusable
/// inputs).
int RunLint(const Args& args) {
  Inputs in;
  std::string format = "text", fail_on = "error";
  std::vector<Flag> flags = in.Flags();
  flags.insert(flags.end(), {{"--format", &format}, {"--fail-on", &fail_on}});
  Status st = ParseFlags(args, flags);
  const auto threshold = ParseLintSeverity(fail_on);
  if (st.ok()) st = in.Resolve(false);
  if (st.ok()) st = CheckFormat(format);
  if (st.ok()) st = threshold.status();
  if (!st.ok()) return Usage(st, kLintUsage);

  auto db = LoadSchema(in.schema);
  if (!db.ok()) return Fail("lint: schema", db.status(), kExitUsage);

  std::vector<Workload::ScriptError> script_errors;
  Result<Workload> wl = Status::Internal("unset");
  if (!in.trace.empty()) {
    wl = in.LoadTrace("trace");
    if (!wl.ok()) return Fail("lint: trace", wl.status(), kExitUsage);
  } else {
    auto workload_text = ReadFile(in.workload);
    if (!workload_text.ok()) {
      return Fail("lint: workload", workload_text.status(), kExitUsage);
    }
    wl = Workload::FromScriptLenient("workload", workload_text.value(),
                                     &script_errors);
  }

  auto fleet = LoadFleet(in.disks);
  if (!fleet.ok()) return Fail("lint: disks", fleet.status(), kExitUsage);
  in.ApplyMovementBudget(db.value(), fleet.value());

  LintInput input;
  input.db = &db.value();
  input.workload = &wl.value();
  input.script_errors = &script_errors;
  input.fleet = &fleet.value();
  input.constraints = &in.constraints;
  std::optional<Layout> layout;
  if (!in.evaluate.empty()) {
    auto parsed = LoadLayout(in.evaluate, db.value(), fleet.value());
    if (!parsed.ok()) return Fail("lint: layout", parsed.status(), kExitUsage);
    layout = std::move(parsed.value());
    input.layout = &*layout;
    input.layout_label = in.evaluate;
  }
  const auto report = RunLintRules(OptimizerOptions(), input);
  if (!report.ok()) return Fail("lint: run", report.status(), kExitUsage);
  std::fputs(RenderFindings(report.value(), format, "lint", "dblayout-lint").c_str(),
             stdout);
  return report->CountAtLeast(threshold.value()) > 0 ? kExitFailed : kExitOk;
}

int RunAdvise(const Args& args) {
  Inputs in;
  AdvisorOptions options;
  Telemetry tel;
  bool explain = false, simulate = false, dump_schema = false,
       emit_script = false, journal_wall_clock = false, report = false,
       progress = false, tpch = false, resilience_report = false;
  std::string save_layout_path, fault_plan_path, evacuate_drive;
  uint64_t seed = 0;
  double tpch_scale = 1.0;
  SearchOptions& search = options.search;
  std::vector<Flag> flags = in.Flags();
  flags.insert(
      flags.end(),
      {{"--greedy-k", &search.greedy_k},
       {"--explain", &explain},
       {"--simulate", &simulate},
       {"--dump-schema", &dump_schema},
       {"--emit-script", &emit_script},
       {"--save-layout", &save_layout_path},
       {"--metrics-out", &tel.metrics_out},
       {"--trace-out", &tel.trace_out},
       {"--journal-out", &tel.journal_out},
       {"--journal-wall-clock", &journal_wall_clock},
       {"--report", &report},
       {"--progress", &progress},
       {"--fault-plan", &fault_plan_path},
       {"--resilience-report", &resilience_report},
       {"--evacuate", &evacuate_drive},
       {"--time-budget-ms", &search.time_budget_ms},
       // Candidate-scoring threads: results are bit-identical at any value
       // (see SearchOptions::num_threads), so this is a wall-clock knob.
       {"--threads", &search.num_threads},
       {"--seed", &seed},
       // Optional scale operand (e.g. `--tpch 0.1`); 1.0 is the paper's
       // TPCH1G testbed.
       {"--tpch", &tpch_scale, 1, &tpch}});
  Status st = ParseFlags(args, flags);
  if (st.ok()) st = in.Resolve(tpch);
  if (st.ok() && tpch && !(tpch_scale > 0 && benchdata::TpchScaleFits(tpch_scale))) {
    st = Status::InvalidArgument(StrFormat(
        "--tpch scale must be positive and give tables below 2^63 rows, got %g",
        tpch_scale));
  }
  if (!st.ok()) return Usage(st, kAdviseUsage);

  // Graceful SIGINT/SIGTERM: the search polls the shutdown flag at its
  // deadline checks and returns best-so-far; the optional stages below are
  // skipped and the telemetry still flushes (run_end status "interrupted",
  // exit 130).
  SetGlobalSeed(seed);
  tel.Start(seed, search.num_threads, progress);
  search.cancel_requested = ShutdownFlag();
  const std::string schema_label =
      tpch ? StrFormat("tpch sf=%g", tpch_scale) : in.schema;
  const std::string workload_label =
      tpch ? "tpch-22" : (!in.trace.empty() ? in.trace : in.workload);
  if (!tel.trace_out.empty()) {
    obs::Tracer::Global().SetMetadata("schema", schema_label);
    obs::Tracer::Global().SetMetadata("workload", workload_label);
  }
  if (progress) {
    search.progress_hook = [](const SearchProgress& p) {
      std::fprintf(stderr,
                   "progress: %s iteration %d: best cost %.0f ms "
                   "(%lld layouts evaluated, last move: %s)\n",
                   p.phase, p.iteration, p.best_cost,
                   static_cast<long long>(p.layouts_evaluated), p.accepted_move);
    };
  }

  // Unusable *inputs* (unreadable or malformed files) exit 2, like usage
  // errors, so scripts can tell "your input is broken" (2) apart from "the
  // advisor failed on well-formed inputs" (1). Every input is read before
  // the search, so a broken one fails fast.
  std::optional<FaultPlan> fault_plan;
  if (!fault_plan_path.empty()) {
    auto plan_text = ReadFile(fault_plan_path);
    if (!plan_text.ok()) return Fail("fault-plan", plan_text.status(), kExitUsage);
    auto plan = FaultPlan::FromSpec(plan_text.value(), fault_plan_path);
    if (!plan.ok()) return Fail("fault-plan", plan.status(), kExitUsage);
    fault_plan = std::move(plan.value());
  }
  Result<Database> db = tpch ? benchdata::MakeTpchDatabase(tpch_scale)
                             : LoadSchema(in.schema);
  if (!db.ok()) return Fail("schema", db.status(), kExitUsage);
  if (dump_schema) std::printf("%s\n", DumpSchema(db.value()).c_str());
  std::printf("%s\n", db->ToString().c_str());

  Result<Workload> wl = Status::Internal("unset");
  if (tpch) {
    wl = benchdata::MakeTpch22Workload(db.value(), seed != 0 ? seed : 1);
    if (!wl.ok()) return Fail("workload", wl.status());
  } else if (!in.trace.empty()) {
    wl = in.LoadTrace(in.trace);
    if (!wl.ok()) return Fail("trace", wl.status(), kExitUsage);
    options.model_concurrency = in.concurrency;
  } else {
    auto workload_text = ReadFile(in.workload);
    if (!workload_text.ok()) {
      return Fail("workload", workload_text.status(), kExitUsage);
    }
    wl = Workload::FromScript(in.workload, workload_text.value());
    if (!wl.ok()) return Fail("workload", wl.status(), kExitUsage);
    options.model_concurrency = in.concurrency && wl->HasConcurrencyStreams();
  }
  std::printf("workload: %zu statements, total weight %.0f\n\n", wl->size(),
              wl->TotalWeight());

  auto fleet = LoadFleet(in.disks);
  if (!fleet.ok()) return Fail("disks", fleet.status(), kExitUsage);
  std::printf("drives:\n%s\n", fleet->ToString().c_str());
  std::optional<Layout> manual;
  if (!in.evaluate.empty()) {
    auto parsed = LoadLayout(in.evaluate, db.value(), fleet.value());
    if (!parsed.ok()) return Fail("evaluate", parsed.status(), kExitUsage);
    if (Status st = parsed->Validate(db->ObjectSizes(), fleet.value()); !st.ok()) {
      return Fail("evaluate: invalid layout", st, kExitUsage);
    }
    manual = std::move(parsed.value());
  }

  // Decision journal: this run owns the run_start/run_end envelope; the
  // advisor, search and evaluator emit the events in between (see
  // SearchOptions::journal). Every line after the first is byte-identical
  // across --threads values unless --journal-wall-clock trades that for
  // real timings.
  if (!tel.journal_out.empty() || report) {
    obs::JournalOptions jopts;
    jopts.wall_clock = journal_wall_clock;
    tel.StartJournal("dblayout advise", seed, search.num_threads,
                     {{"schema", obs::JsonString(schema_label)},
                      {"workload", obs::JsonString(workload_label)}},
                     db.value(), fleet.value(), jopts);
    search.journal = tel.journal.get();
  }
  in.ApplyMovementBudget(db.value(), fleet.value());
  options.constraints = in.constraints;

  auto profile = AnalyzeWorkload(db.value(), wl.value(), options.optimizer);
  if (!profile.ok()) return Fail("analyze", profile.status());
  if (explain) {
    for (const auto& s : profile->statements) {
      std::printf("-- %s\n%s\n", s.sql.c_str(), ExplainPlan(*s.plan).c_str());
    }
    std::printf("%s\n",
                AccessGraphToString(BuildAccessGraph(profile.value()), db.value())
                    .c_str());
  }

  // Automatic lint pass before the advisor search: findings go to stderr so
  // they are visible next to the recommendation without perturbing stdout
  // parsers. Hard infeasibilities additionally fail the advisor below.
  {
    LintInput input;
    input.db = &db.value();
    input.workload = &wl.value();
    input.fleet = &fleet.value();
    input.constraints = &options.constraints;
    const auto pre = RunLintRules(options.optimizer, input);
    if (pre.ok() && !pre->diagnostics.empty()) {
      std::fprintf(stderr, "%s", RenderLintText(pre.value()).c_str());
    }
  }

  LayoutAdvisor advisor(db.value(), fleet.value(), options);
  auto rec = advisor.RecommendFromProfile(profile.value());
  if (!rec.ok()) return Fail("advisor", rec.status());
  std::printf("%s\n", advisor.Report(rec.value()).c_str());

  // Interrupted mid-search: the recommendation above is the search's
  // best-so-far valid layout. Skip the optional analysis stages and fall
  // through to the telemetry flush so nothing already computed is lost.
  const bool interrupted = ShutdownRequested();
  if (interrupted) {
    std::fprintf(stderr,
                 "interrupted: best-so-far recommendation reported; skipping "
                 "optional stages, flushing telemetry\n");
  }

  const std::vector<std::string> object_names = ObjectNames(db.value());
  if (report && !interrupted) {
    // Exact cost attribution of the recommended layout: per-statement/
    // object/drive shares of the advisor's estimated cost, plus drive-heat
    // and queue-depth samples from the simulators. If queue sampling cannot
    // materialize the layout, fall back to the pure decomposition.
    obs::AttributionOptions aopts;
    aopts.seed = seed != 0 ? seed : 1;
    auto attr = obs::AttributeCost(profile.value(), rec->layout, fleet.value(),
                                   db->ObjectSizes(), object_names, aopts);
    if (!attr.ok()) {
      aopts.sample_queues = false;
      attr = obs::AttributeCost(profile.value(), rec->layout, fleet.value(),
                                db->ObjectSizes(), object_names, aopts);
    }
    if (!attr.ok()) return Fail("report", attr.status());
    std::printf("%s\n", obs::RenderAttributionText(attr.value()).c_str());
    if (tel.journal != nullptr) {
      obs::AppendAttributionEvents(attr.value(), tel.journal.get());
    }
  }

  if (!save_layout_path.empty()) {
    if (Status st = WriteFile(save_layout_path,
                              rec->layout.ToCsv(object_names, fleet.value()));
        !st.ok()) {
      return Fail("save-layout", st);
    }
    std::printf("recommended layout written to %s\n\n", save_layout_path.c_str());
  }
  if (manual) {
    const CostModel cm(fleet.value());
    std::printf("evaluated layout %s: estimated cost %.0f ms "
                "(recommended %.0f ms, full striping %.0f ms)\n\n",
                in.evaluate.c_str(), cm.WorkloadCost(profile.value(), *manual),
                rec->estimated_cost_ms, rec->full_striping_cost_ms);
  }

  // Resilience analyses run against the layout being shipped: the manually
  // evaluated one when --evaluate is given, else the recommendation.
  const Layout& subject = manual ? *manual : rec->layout;
  const char* subject_label = manual ? in.evaluate.c_str() : "recommended";

  if (resilience_report && !interrupted) {
    ResilienceOptions ropts;
    ropts.num_threads = search.num_threads;
    auto resilience = EvaluateResilience(db.value(), fleet.value(),
                                         profile.value(), subject, ropts);
    if (!resilience.ok()) return Fail("resilience-report", resilience.status());
    rec->resilience = std::make_shared<const ResilienceReport>(resilience.value());
    std::printf("resilience of %s layout:\n%s\n", subject_label,
                RenderResilienceReport(resilience.value()).c_str());
  }

  if (fault_plan && !interrupted) {
    auto impact = EvaluateFaultPlanCost(db.value(), fleet.value(), profile.value(),
                                        subject, *fault_plan);
    if (!impact.ok()) return Fail("fault-plan", impact.status());
    std::printf("fault plan %s against %s layout:\n"
                "  healthy workload cost %.0f ms, degraded %.0f ms (+%.1f%%)\n",
                fault_plan_path.c_str(), subject_label, impact->healthy_cost_ms,
                impact->degraded_cost_ms,
                impact->healthy_cost_ms > 0
                    ? 100.0 * (impact->degraded_cost_ms - impact->healthy_cost_ms) /
                          impact->healthy_cost_ms
                    : 0.0);
    if (impact->lost_object_names.empty()) {
      std::printf("  no objects lost (every failed drive is redundant)\n\n");
    } else {
      std::printf("  LOST objects (failed non-redundant drives): %s\n\n",
                  Join(impact->lost_object_names, ", ").c_str());
    }
    if (simulate) {
      // Replay the workload on the degraded fleet, with the plan's worst
      // transient-error rate driving retry-with-backoff in the simulators.
      ExecutionOptions degraded_opts;
      degraded_opts.io.retry.transient_error_rate = impact->resolved.max_transient_rate;
      degraded_opts.queue.retry.transient_error_rate =
          impact->resolved.max_transient_rate;
      ExecutionSimulator degraded_sim(db.value(), impact->resolved.degraded_fleet,
                                      degraded_opts);
      auto t_degraded = degraded_sim.ExecutePlans(Plans(profile.value()), subject);
      if (!t_degraded.ok()) return Fail("fault-plan simulate", t_degraded.status());
      std::printf("  simulated degraded execution: %.0f ms\n\n", t_degraded.value());
    }
  }

  if (!evacuate_drive.empty() && !interrupted) {
    EvacuationOptions evac_options;
    evac_options.max_movement_fraction = in.max_move;
    evac_options.search = search;
    auto plan = PlanEvacuation(db.value(), fleet.value(), profile.value(), subject,
                               evacuate_drive, evac_options);
    if (!plan.ok()) return Fail("evacuate", plan.status());
    std::printf("%s\n", RenderEvacuationPlan(plan.value(), fleet.value()).c_str());
    // Independent validation of the emitted plan (also greppable by CI).
    Status valid = plan->target.Validate(db->ObjectSizes(), fleet.value());
    if (valid.ok()) {
      for (int i = 0; i < plan->target.num_objects(); ++i) {
        if (plan->target.x(i, plan->failed_drive) > 0) {
          valid = Status::Internal(StrFormat(
              "object %d still has blocks on the evacuated drive", i));
          break;
        }
      }
    }
    if (valid.ok() && plan->movement_budget_blocks >= 0 &&
        plan->moved_blocks > plan->movement_budget_blocks * (1 + 1e-9)) {
      valid = Status::Internal("movement exceeds the budget");
    }
    if (!valid.ok()) return Fail("evacuate: plan failed validation", valid);
    std::printf("evacuation plan validates: drive %s empty, %.0f blocks moved\n\n",
                plan->failed_drive_name.c_str(), plan->moved_blocks);
  }
  if (emit_script) {
    std::printf("%s\n",
                GenerateFilegroupScript(rec->layout, db.value(), fleet.value())
                    .c_str());
  }

  if (simulate && !interrupted) {
    ExecutionSimulator sim(db.value(), fleet.value());
    const std::vector<WeightedPlan> plans = Plans(profile.value());
    auto t_rec = sim.ExecutePlans(plans, rec->layout);
    auto t_fs = sim.ExecutePlans(plans, rec->full_striping);
    if (!t_rec.ok()) return Fail("simulate", t_rec.status());
    if (!t_fs.ok()) return Fail("simulate", t_fs.status());
    std::printf("simulated execution: recommended %.0f ms vs full striping %.0f ms "
                "(%.1f%% improvement)\n",
                t_rec.value(), t_fs.value(),
                100.0 * (t_fs.value() - t_rec.value()) / t_fs.value());
  }

  return tel.Flush(
      interrupted,
      {{"cost", obs::JsonDouble(rec->estimated_cost_ms)},
       {"full_striping_cost", obs::JsonDouble(rec->full_striping_cost_ms)},
       {"improvement_pct", obs::JsonDouble(rec->ImprovementVsFullStripingPct())},
       {"iterations", obs::JsonInt(rec->greedy_iterations)},
       {"evals", obs::JsonInt(rec->layouts_evaluated)},
       {"timed_out", obs::JsonBool(rec->timed_out)}});
}

}  // namespace dblayout::cli
