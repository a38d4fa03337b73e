#!/usr/bin/env python3
"""End-to-end DASC benchmark: CSV in, labels CSV out.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale full|tiny]

Builds the benchmark driver and the DASC libraries from source (Release)
into $CARGO_TARGET_DIR, or .bench_build when unset, then makes one run of
the driver and relays its output. The last line of standard output is the
driver's JSON result. If the sources are missing, the build fails, or the
run fails or overruns, the script exits non-zero without printing a result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("giant-bucket", "capped-wiki", "capped-wiki-multiproc",
             "mixture-multiproc")
BUILD_TIMEOUT_S = 850
# Set-up, the in-process references and the last operation's overrun come
# on top of --seconds.
RUN_MARGIN_S = 150
STRAY_WARNING = "ignoring unexpected message type"


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configure (once) and build the driver; returns its path."""
    cmake_dir = build_dir / "cmake"
    log_path = build_dir / "build.log"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "dasc_perfbench", "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               check=True,
                               timeout=max(1.0, deadline - time.monotonic()))
            except (subprocess.CalledProcessError,
                    subprocess.TimeoutExpired) as e:
                tail = log_path.read_text(errors="replace")[-4000:]
                fail(f"build failed ({e}); last build output:\n{tail}")
    return cmake_dir / "dasc_perfbench"


def stop_group(proc):
    """Kill whatever is left of the driver's process group (workers
    included) and reap the driver."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    root = Path.cwd()
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "perfbench/CMakeLists.txt"):
        if not (root / needed).is_file():
            fail(f"{needed} not found; run from the repository root", 2)

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    binary = build(root, build_dir)

    # Relative paths keep the workers' AF_UNIX socket paths short.
    work = Path(os.path.relpath(build_dir / "runs" /
                                f"{args.workload}-{os.getpid()}", root))
    traces = build_dir / "traces"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str((work / "tmp").resolve()))
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--scale", args.scale, "--workdir", str(work),
           "--trace-out",
           str(traces / f"{args.workload}-seed{args.seed}.json")]
    out_path = work.parent / f"{work.name}.out"
    err_path = work.parent / f"{work.name}.err"
    try:
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=args.seconds + RUN_MARGIN_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                stop_group(proc)
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        out_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)

    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    if code is None:
        sys.stderr.write(stdout)
        fail(f"run exceeded {args.seconds + RUN_MARGIN_S:g} s")
    if code != 0:
        sys.stderr.write(stdout)
        fail(f"driver exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(stdout)
        fail("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")

    print("\n".join(lines[:-1]))
    print(f"worker stderr: {stderr.count(STRAY_WARNING)} "
          f"'{STRAY_WARNING}' warnings")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
