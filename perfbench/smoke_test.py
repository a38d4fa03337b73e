#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at tiny scale through perfbench/run.py, untraced and
traced, and asserts that every metric BENCHMARK.json names is printed, both
in the human-readable lines and in the JSON result, with its unit. Also
checks that the benchmark refuses to run without the repository's sources.

    python3 perfbench/smoke_test.py        # from the repository root

Exits 0 when every check passes, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("giant-bucket", "capped-wiki", "capped-wiki-multiproc",
             "mixture-multiproc")
# Printed on --trace 0 beside the end-to-end metrics, but kept out of the
# JSON result (see perfbench/README.md).
EXTRA_E2E_LINES = ("fail_ratio", "peak_tracked_bytes")


def run(args, cwd="."):
    return subprocess.run(["python3", "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=1200)


def check_run(bench, workload, trace, errors):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny"])
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
        return
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and 0 <= result["failed"] <= result["attempted"]):
        errors.append(f"{where}: bad attempted/failed {result}")
    named = {w["name"] for w in bench["workloads"]}
    if workload in named and not result["correct"]:
        errors.append(f"{where}: correct is false\n{proc.stdout[-3000:]}")

    specs = bench["per_layer"] if trace else bench["end_to_end"]
    prefix = "layer" if trace else "metric"
    human = lines[:-1]
    if set(result["metrics"]) != {m["name"] for m in specs}:
        errors.append(f"{where}: JSON metrics differ from BENCHMARK.json")
    wanted = [m["name"] for m in specs]
    if not trace:
        wanted += EXTRA_E2E_LINES
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            continue
        if got.get("unit") != spec["unit"] or not isinstance(
                got.get("value"), (int, float)):
            errors.append(f"{where}: {spec['name']} printed as {got}")
    for name in wanted:
        if not any(l.split()[:2] == [prefix, name] for l in human):
            errors.append(f"{where}: no '{prefix} {name}' line")


def check_refuses_without_sources(errors):
    bare = Path(".bench_build/smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", bare / "perfbench")
    proc = run(["--workload", "giant-bucket", "--seed", "1", "--seconds",
                "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("run.py without sources: expected a non-zero exit and "
                      f"no output, got {proc.returncode}: {proc.stdout!r}")


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    errors = []
    check_refuses_without_sources(errors)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(bench, workload, trace, errors)
            print(f"ran {workload} --trace {trace}", flush=True)
    for error in errors:
        print("FAIL:", error)
    print("smoke test", "failed" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
