#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes, in under a minute.

Usage, from the root of a source checkout:

    python3 perfbench/selfcheck.py

For every workload it runs `run.py --tiny` untraced twice and traced once, in
separate processes, and requires: exit code 0, `correct` true, no failed
call, identical byte and answer digests for every unit the runs share (the
traced run itself fails if its traced pass differs from its untraced pass),
and exactly the metric names BENCHMARK.json lists. Last, it copies only
BENCHMARK.json and perfbench/ into an empty directory and requires the
benchmark to exit non-zero there without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
TIMEOUT = 180


def bench(args, cwd=ROOT, script=run.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT)


def tiny_run(workload, trace):
    args = ["--workload", workload, "--seed", str(run.DEFAULT_SEED), "--seconds", "0",
            "--trace", str(trace), "--tiny"]
    proc = bench(args)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = run.read_json(run.OUT_DIR / f"result-{workload}-seed{run.DEFAULT_SEED}-trace{trace}-tiny.json")
    return last, record


def check_workload(workload, spec):
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    digests = []
    for trace in (0, 0, 1):
        last, record = tiny_run(workload, trace)
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, f"{workload}: {last}"
        assert list(last["metrics"]) == names[trace], f"{workload} trace={trace}: metric names differ"
        digests.append(record["unit_digests"])
    first = digests[0]
    for other in digests[1:]:
        shared = set(first) & set(other)
        assert "0" in shared, f"{workload}: unit 0 missing"
        for unit in shared:
            assert first[unit] == other[unit], f"{workload} unit {unit}: digests differ between runs"


def check_bare_directory():
    bare = run.OUT_DIR / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench(["--workload", "multitoss", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     cwd=bare, script=bare / run.HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark exited 0 without the program's sources"
    assert '"correct"' not in proc.stdout, "benchmark printed a result without the program's sources"


def main():
    spec = run.read_json(ROOT / "BENCHMARK.json")
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    failed = 0
    checks = [(w, lambda w=w: check_workload(w, spec)) for w in run.WORKLOADS]
    checks.append(("bare directory", check_bare_directory))
    for name, check in checks:
        try:
            check()
            print(f"PASS {name}")
        except (AssertionError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
