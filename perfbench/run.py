#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload interactive --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (which builds the library from ../src) into
.bench_build/, then runs the ngb_perfbench program with every NGB_*
variable removed, so it measures the library's default configuration:

- set-up runs: SETUP_RUNS - 1 extra processes that only set up, so
  setup_s is the median of SETUP_RUNS cold starts;
- the untraced run, which gives the end-to-end metrics;
- with --trace 1, a traced run as well, which gives the per-layer
  metrics and the tracing overhead against the untraced run
  (trace.overhead.<metric>_pct); its spans go to
  .bench_build/traces/<workload>-seed<seed>.trace.json.

Metric names and units come from BENCHMARK.json. The last stdout line
is the result: {"correct", "attempted", "failed", "metrics"}. Exits
non-zero, printing no result, when the build or any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "ngb_perfbench")
SETUP_RUNS = 3
# All runs after the build must end within this many seconds.
DEADLINE_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ngb_perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)


def run_once(env, args, deadline):
    """Run the program once; its last stdout line is a JSON result."""
    proc = subprocess.run([BINARY] + args, env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError("ngb_perfbench %s exited with %d"
                           % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if opt.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("unknown workload " + opt.workload)
    build()

    deadline = time.monotonic() + DEADLINE_S
    env = {k: v for k, v in os.environ.items() if not k.startswith("NGB_")}
    base = ["--workload", opt.workload, "--seed", str(opt.seed),
            "--seconds", str(opt.seconds)]
    setups = [values(run_once(env, base + ["--setup-only"], deadline))
              ["setup_s"] for _ in range(SETUP_RUNS - 1)]
    runs = [run_once(env, base + ["--trace", "0"], deadline)]
    untraced = values(runs[0])
    setups.append(untraced["setup_s"])
    untraced["setup_s"] = statistics.median(setups)

    print("end-to-end (untraced):")
    for m in spec["end_to_end"]:
        n = len(setups) if m["name"] == "setup_s" else runs[0]["samples"]
        print("  %-34s %14.6g %-9s (n=%d)"
              % (m["name"], untraced[m["name"]], m["unit"], n))
    measured = untraced
    if opt.trace:
        os.makedirs(TRACES, exist_ok=True)
        path = os.path.join(TRACES, "%s-seed%d.trace.json"
                            % (opt.workload, opt.seed))
        runs.append(run_once(env, base + ["--trace", "1",
                                          "--trace-out", path], deadline))
        measured = values(runs[1])
        for m in spec["end_to_end"]:
            base_value = untraced[m["name"]]
            measured["trace.overhead.%s_pct" % m["name"]] = (
                100.0 * (measured[m["name"]] - base_value) / base_value
                if base_value else 0.0)

    listed = spec["per_layer"] if opt.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in measured:
            raise SystemExit("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": measured[m["name"]],
                              "unit": m["unit"]}
    if opt.trace:
        print("per-layer (traced):")
        for m in listed:
            print("  %-34s %14.6g %s"
                  % (m["name"], measured[m["name"]], m["unit"]))

    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as e:
        log("perfbench:", e)
        sys.exit(1)
