#!/usr/bin/env python3
"""Self-test of the wall-clock benchmark, with short runs.

    python3 perfbench/selftest.py

Checks, against BENCHMARK.json, on the workloads it lists and on the two
it leaves out (profiles, fuzz):
  * every end-to-end metric appears, with its unit, on every workload, and
    every per-layer metric appears, with its unit, in a traced run;
  * another seed changes each workload's inputs (the "inputs" line) but
    not the set of metrics;
  * a deliberately corrupted expected checksum is counted as a failure
    (correct false, failed > 0, exit code 1), not ignored.
Exits 0 when every check passes and 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "1"
WORKLOADS = ("traversal", "profiles", "fuzz", "serve")


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    inputs = next((line.split()[1] for line in lines if line.startswith("inputs ")), None)
    return done.returncode, json.loads(lines[-1]), inputs


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    def units_match(result, metrics, label):
        got = result["metrics"]
        for m in metrics:
            entry = got.get(m["name"])
            expect(entry is not None and entry["unit"] == m["unit"] and isinstance(entry["value"], (int, float)),
                   f"{label}: {m['name']} reported in {m['unit']}")
        expect(set(got) == {m["name"] for m in metrics}, f"{label}: no metric beyond the listed ones")

    listed = [w["name"] for w in spec["workloads"]]
    expect(set(listed) <= set(WORKLOADS), "BENCHMARK.json lists only known workloads")
    for w in WORKLOADS:
        code, r1, in1 = run(w, 1, 0)
        expect(code == 0 and r1["correct"] and r1["failed"] == 0 and r1["attempted"] >= 1, f"{w}: seed 1 correct")
        units_match(r1, spec["end_to_end"], f"{w} untraced")
        code, r2, in2 = run(w, 2, 0)
        expect(code == 0 and r2["correct"], f"{w}: seed 2 correct")
        expect(in1 is not None and in2 is not None and in1 != in2, f"{w}: seed changes the inputs")
        expect(set(r1["metrics"]) == set(r2["metrics"]), f"{w}: seed keeps the metric set")
        code, rt, _ = run(w, 1, 1)
        expect(code == 0 and rt["correct"], f"{w}: traced run correct")
        units_match(rt, spec["per_layer"], f"{w} traced")

    code, rc, _ = run("traversal", 1, 0, "--corrupt-expected")
    expect(code == 1 and not rc["correct"] and rc["failed"] > 0, "corrupted expected checksum counted as a failure")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
