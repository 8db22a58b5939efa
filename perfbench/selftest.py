#!/usr/bin/env python3
"""Short-window self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it runs
the benchmark once untraced and once traced in `--quick` mode (a fifth of
the simulated time, one sub-seed) and checks that

  * the last line is the result object with exactly the four result keys,
  * `correct` is true, no check failed and at least one was attempted,
  * the untraced run prints exactly the `end_to_end` metrics and the traced
    run exactly the `per_layer` metrics, each with the unit BENCHMARK.json
    gives and a finite number as its value,
  * every stamped row names its workload, seed, shards, threads, cores and
    revision.

Exits 0 when every workload passes, 1 otherwise. Takes under a minute.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAMP = ("workload", "seed", "shards", "threads", "cores", "rev")
SEED = 7


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--quick"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    problems = []
    if run.returncode != 0:
        return [f"exit code {run.returncode}: {run.stderr.strip()[-400:]}"]
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        failed = [l for l in lines if '"check_failed"' in l]
        problems.append(f"output checks failed: {failed}")
    if not result.get("attempted", 0) >= 1:
        problems.append("no output check attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    rows = [json.loads(l[4:]) for l in lines[:-1] if l.startswith("row {")]
    if not rows:
        problems.append("no stamped rows")
    for row in rows:
        if any(key not in row for key in STAMP) or row["workload"] != workload or row["seed"] != SEED:
            problems.append(f"badly stamped row {row}")
            break
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            problems = check_run(workload, trace, expected)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}", flush=True)
            for p in problems:
                print(f"  {p}")
            ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
