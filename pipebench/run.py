#!/usr/bin/env python3
"""Pipeline benchmark runner.

Builds bench_pipeline from this checkout (Release, into $CARGO_TARGET_DIR or
.bench_build at the checkout root), then runs one workload or all of them:

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py [--seed N] [--seconds S] [--trace 0|1]

With --workload the program's own output is passed through: its last line
is the result object {"correct", "attempted", "failed", "metrics"}.

Without --workload every workload runs (with --trace 1, once untraced and
once traced). Every metric is printed with its unit and sample count,
BENCH_pipeline.json is written to the current directory in the record format
`dblayout_report --compare` reads, and the exit code is 1 when a correctness
check or a call fails or a metric BENCHMARK.json declares is missing. The
workloads and metrics are the ones BENCHMARK.json names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds bench_pipeline; returns its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "bench_pipeline", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("pipebench: building bench_pipeline failed")
    return os.path.join(out, "bench_pipeline")


def command(binary, workload, seed, seconds, trace):
    work_dir = os.path.join(build_dir(), "runs")
    os.makedirs(work_dir, exist_ok=True)
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", work_dir]


def run_all(binary, args):
    declared = {0: [m["name"] for m in SPEC["end_to_end"]],
                1: [m["name"] for m in SPEC["per_layer"]]}
    problems = []
    records = []
    rows = [("workload", "metric", "value", "unit", "samples")]
    for workload in WORKLOADS:
        record = {"case": workload}
        for trace in ([0, 1] if args.trace else [0]):
            proc = subprocess.run(command(binary, workload, args.seed,
                                          args.seconds, trace),
                                  stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload}: exit code {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            detail = next(json.loads(l[len("RECORD "):]) for l in lines
                          if l.startswith("RECORD "))
            for name, m in detail["metrics"].items():
                rows.append((workload, name, f"{m['value']:.6g}", m["unit"],
                             str(m["samples"])))
                record[name] = m["value"]
                record.setdefault("samples", {})[name] = m["samples"]
            if trace:
                record["layers"] = detail["layers"]
            if not result["correct"]:
                problems.append(f"{workload}: failed checks "
                                f"{detail['failed_checks']}")
            if result["failed"]:
                problems.append(f"{workload}: {result['failed']} of "
                                f"{result['attempted']} calls failed")
            missing = [n for n in declared[trace] if n not in result["metrics"]]
            if missing:
                problems.append(f"{workload}: missing metrics {missing}")
        records.append(record)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    with open("BENCH_pipeline.json", "w") as f:
        json.dump({"bench": "pipeline", "seed": args.seed,
                   "seconds": args.seconds, "records": records}, f, indent=1)
        f.write("\n")
    print("bench records written to BENCH_pipeline.json")
    for p in problems:
        print("FAIL:", p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    binary = build()
    if args.workload is None:
        return run_all(binary, args)
    return subprocess.run(command(binary, args.workload, args.seed,
                                  args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
