#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at smoke size:
  * an untraced and a traced run print every declared metric with its
    declared unit, all answers correct;
  * a run with one deliberately corrupted expected answer reports the
    failure (failed > 0, correct_pct < 100, correct false).
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--smoke"]
    if corrupt:
        cmd.append("--corrupt")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                         timeout=600)
    if out.returncode != 0:
        raise SystemExit("FAIL %s trace=%d: exit %d" % (workload, trace,
                                                         out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        raise SystemExit("FAIL " + what)
    print("ok   " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            r = run(name, trace)
            want = [(m["name"], m["unit"]) for m in declared]
            got = [(k, v["unit"]) for k, v in r["metrics"].items()]
            check(got == want, "%s trace=%d prints every metric with its unit"
                  % (name, trace))
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  "%s trace=%d answers all correct" % (name, trace))
        r = run(name, 0, corrupt=True)
        check(r["failed"] > 0 and not r["correct"] and
              r["metrics"]["correct_pct"]["value"] < 100,
              "%s corrupted expected answer is counted" % name)
    print("selftest passed")


if __name__ == "__main__":
    main()
