#!/usr/bin/env python3
"""Step ledger runner: builds bench_step from the sources in this checkout,
runs workloads, checks their outputs and prints every metric with its unit.

  # one run; the last stdout line is the result JSON
  python3 stepbench/run_benchmark.py --workload paper-d2 --seed 1 --seconds 25 --trace 0
  # every workload, untraced then traced
  python3 stepbench/run_benchmark.py
  # two untraced sets of 3 seeds each, per-set medians compared per bound
  python3 stepbench/run_benchmark.py --repeat 2
  # smoke check (3-step windows), as the package's ctest runs it
  python3 stepbench/run_benchmark.py --smoke

Builds go to .bench_build/stepbench, results to .bench_build/results: per
run <workload>.<untraced|traced>.json, plus <workload>.spans.json for traced
runs. The command exits non-zero on any failed step or run, digest mismatch
or audit violation.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "stepbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170
SEEDS_PER_SET = 3  # --repeat: runs per workload behind each set's median


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def usable_cpus():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds bench_step; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("stepbench: no solver sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, usable_cpus()))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "bench_step")


def run_bench(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one bench_step process and returns its raw result."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", RESULTS_DIR]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    mode = "traced" if trace else "untraced"
    with open(os.path.join(RESULTS_DIR, "%s.%s.raw.json" % (workload, mode))) as f:
        return json.load(f)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check(raw, spec, trace):
    """Returns (result line, problems) for one raw bench_step result."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    problems = list(raw["errors"])
    if raw["host"]["fleet_slots"] > usable_cpus():
        problems.append("fleet slots %d exceed the %d usable CPUs"
                        % (raw["host"]["fleet_slots"], usable_cpus()))
    out = {}
    for m in metrics:
        if m["name"] not in raw["metrics"]:
            problems.append("metric %s missing" % m["name"])
            continue
        out[m["name"]] = {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
    line = {"correct": not problems and raw["failed"] == 0,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": out}
    return line, problems


def report(raw, spec, trace):
    """Prints the run's metrics, writes its results file, returns the line."""
    line, problems = check(raw, spec, trace)
    mode = "traced" if trace else "untraced"
    print("%s (%s, seed %d): %d attempted, %d failed, digest %s, "
          "final_particles %d" % (raw["workload"], mode, raw["seed"],
                                  raw["attempted"], raw["failed"],
                                  raw["digest"], raw["final_particles"]))
    for name, m in line["metrics"].items():
        print("  %-44s %16.6g %-6s (n=%d)" % (name, m["value"], m["unit"],
                                             raw["samples"].get(name, 0)))
    for name, v in raw["calibration"].items():
        print("  %-44s %16.6g" % (name, v))
    for p in problems:
        print("  PROBLEM: %s" % p)
    fingerprint = dict(raw["host"], nproc=usable_cpus(), cpu_model=cpu_model(),
                       system=platform.platform())
    results = dict(raw, host=fingerprint, correct=line["correct"],
                   problems=problems,
                   units={k: m["unit"] for k, m in line["metrics"].items()})
    with open(os.path.join(RESULTS_DIR, "%s.%s.json" % (raw["workload"], mode)),
              "w") as f:
        json.dump(results, f, indent=2)
    return line


def smoke(binary, spec):
    """Every workload runs a 3-step window untraced and traced: every metric
    BENCHMARK.json names is reported and the two digests agree."""
    ok = True
    for w in spec["workloads"]:
        lines, digests = [], []
        for trace in (0, 1):
            raw = run_bench(binary, w["name"], 42, 1, trace, smoke=True)
            lines.append(report(raw, spec, trace))
            digests.append(raw["digest"])
        if digests[0] != digests[1]:
            print("  PROBLEM: traced digest %s != untraced %s" % tuple(digests[::-1]))
            ok = False
        ok = ok and all(l["correct"] for l in lines)
    print("smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def repeat(binary, spec, workloads, seed, seconds, sets):
    """Runs `sets` untraced sets, each of SEEDS_PER_SET runs per workload
    (seeds seed, seed + 1, ...), and compares each metric's per-set median
    across the sets."""
    values = {}
    ok = True
    for s in range(sets):
        runs = {}
        for w in workloads:
            for k in range(SEEDS_PER_SET):
                line = report(run_bench(binary, w, seed + k, seconds, 0), spec, 0)
                ok = ok and line["correct"]
                for name, m in line["metrics"].items():
                    runs.setdefault((w, name), []).append(m["value"])
        for key, vals in runs.items():
            values.setdefault(key, []).append(statistics.median(vals))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("%-12s %-14s %14s %14s %8s %s" % ("workload", "metric", "set 1",
                                            "set %d" % sets, "bound", ""))
    for (w, name), vals in values.items():
        worst = max(abs(v / vals[0] - 1.0) if vals[0] else 0.0 for v in vals)
        agree = worst <= bounds[name]
        ok = ok and agree
        print("%-12s %-14s %14.6g %14.6g %7.0f%% %s" % (
            w, name, vals[0], vals[-1], 100 * bounds[name],
            "agree" if agree else "DISAGREE (%.1f%%)" % (100 * worst)))
    return 0 if ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both)")
    ap.add_argument("--repeat", type=int, default=0,
                    help="run this many untraced sets (%d seeds each) and "
                         "compare their medians" % SEEDS_PER_SET)
    ap.add_argument("--smoke", action="store_true",
                    help="3-step windows: check metrics and digests only")
    ap.add_argument("--binary", help="use this bench_step instead of building")
    args = ap.parse_args()

    binary = args.binary or build()
    if args.smoke:
        return smoke(binary, spec)
    workloads = [args.workload] if args.workload else names
    if args.repeat:
        return repeat(binary, spec, workloads, args.seed, args.seconds,
                      args.repeat)
    traces = [args.trace] if args.trace is not None else [0, 1]
    lines = [report(run_bench(binary, w, args.seed, args.seconds, t), spec, t)
             for w in workloads for t in traces]
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(l["correct"] for l in lines),
            "attempted": sum(l["attempted"] for l in lines),
            "failed": sum(l["failed"] for l in lines),
            "runs": len(lines)}))
    return 0 if all(l["correct"] for l in lines) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("stepbench: %s" % e)
