#!/usr/bin/env python3
"""Build and run the amix benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds an
optimised perfbench binary (the amix library from src/ plus perfbench/*.cpp)
under $CARGO_TARGET_DIR, default .bench_build; later calls only re-check the
build. Build output goes to stderr; the last stdout line is the result object
the binary prints. Context, failures, layer tables and spans land in
.bench_out/.

--selftest runs every workload at a tiny size and checks the benchmark
itself: every metric of BENCHMARK.json is emitted with its unit, a forced
failure counts as a failed op, rounds_per_op repeats bit for bit, and
perfbench/predictions.json covers exactly the per-layer metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline-cold", "session-batch", "amixd-churn")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("run.py: amix sources (src/) not found next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise SystemExit(f"run.py: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, args):
    """Runs one workload; returns (exit code, last stdout line)."""
    try:
        res = subprocess.run([binary, *args, "--out",
                              os.path.join(ROOT, ".bench_out")],
                             cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 1, ""
    lines = res.stdout.strip().splitlines()
    return res.returncode, lines[-1] if lines else ""


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)
    problems = []

    def run(workload, *extra, trace="0"):
        code, line = run_binary(binary, ["--workload", workload, "--seed", "7",
                                         "--seconds", "1", "--trace", trace,
                                         "--tiny", *extra])
        if code != 0 or not line:
            problems.append(f"{workload} {extra} trace={trace}: exit {code}")
            return None
        return json.loads(line)

    def check_metrics(workload, result, wanted):
        for m in wanted:
            got = result["metrics"].get(m["name"])
            if got is None:
                problems.append(f"{workload}: metric {m['name']} missing")
            elif got["unit"] != m["unit"]:
                problems.append(f"{workload}: {m['name']} unit {got['unit']}"
                                f" != {m['unit']}")
        extra = set(result["metrics"]) - {m["name"] for m in wanted}
        if extra:
            problems.append(f"{workload}: unexpected metrics {sorted(extra)}")

    for w in WORKLOADS:
        first, second = run(w), run(w)
        traced = run(w, trace="1")
        broken = run(w, "--inject-failure")
        for r in (first, second, traced):
            if r is not None and (not r["correct"] or r["failed"] != 0):
                problems.append(f"{w}: clean run reported failures")
        if first is not None:
            check_metrics(w, first, spec["end_to_end"])
        if first is not None and second is not None:
            a = first["metrics"]["rounds_per_op"]["value"]
            b = second["metrics"]["rounds_per_op"]["value"]
            if a != b:
                problems.append(f"{w}: rounds_per_op {a} != {b}")
        if traced is not None:
            check_metrics(w, traced, spec["per_layer"])
        if broken is not None and (broken["correct"] or broken["failed"] < 1):
            problems.append(f"{w}: forced failure not counted as failed")

    layer_names = {m["name"] for m in spec["per_layer"]}
    predicted = {row["metric"] for row in predictions["layers"]}
    if predicted != layer_names:
        problems.append("predictions.json and BENCHMARK.json per_layer "
                        f"differ: {sorted(predicted ^ layer_names)}")
    workloads = {w["name"] for w in spec["workloads"]}
    for row in predictions["layers"]:
        for key in ("moves", "flat_on"):
            for ref in row[key]:
                if ref["workload"] not in workloads:
                    problems.append(f"predictions.json: {row['metric']} "
                                    f"names unknown workload {ref['workload']}")

    for p in problems:
        log(f"SELFTEST FAIL: {p}")
    log("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if a.selftest:
        return selftest(binary)
    code, line = run_binary(binary, ["--workload", a.workload,
                                     "--seed", str(a.seed),
                                     "--seconds", str(a.seconds),
                                     "--trace", a.trace])
    if code != 0 or not line:
        log(f"perfbench exited with {code}")
        return code or 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
