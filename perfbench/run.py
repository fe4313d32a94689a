#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source (perfbench/CMakeLists.txt, into
.bench_build/perfbench), runs it, checks that it printed exactly the metrics
BENCHMARK.json declares (end-to-end ones for --trace 0, per-layer ones for
--trace 1, each with its declared unit) and prints the result object as the
last line of standard output. Per-layer metrics of a layer the workload does
not reach are reported as 0. A traced run leaves its spans in
.bench_build/perfbench-traces/. Exits non-zero without a result line when the
build, the run, an answer check or the metric set fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("repository sources not found (missing %s)" % need)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def complete_metrics(result, declared, trace):
    """Checks names and units against `declared`; fills bypassed layers."""
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    extra = sorted(set(metrics) - set(units))
    if extra:
        fail("metrics not declared in BENCHMARK.json: " + ", ".join(extra))
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                fail("end-to-end metric missing: " + name)
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, declared %s"
                 % (name, metrics[name]["unit"], unit))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small data and loops (self-test only)")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one expected answer (self-test only)")
    args = ap.parse_args()

    build()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    workdir = os.path.join(ROOT, ".bench_build", "perfbench-work",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    spans = os.path.join(workdir, "spans.csv")
    if os.path.exists(spans):
        traces = os.path.join(ROOT, ".bench_build", "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(
            traces, "%s-seed%d.csv" % (args.workload, args.seed)))
    shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark binary exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = complete_metrics(result, declared, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
