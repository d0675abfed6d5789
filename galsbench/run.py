#!/usr/bin/env python3
"""Build and run the simulator's host-speed benchmark.

Run from the repository root:

    python3 galsbench/run.py --workload single_core --seed 0 --seconds 20 --trace 0

Workloads: single_core, chip, study, store_warm (galsbench/RATIONALE.md).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1 (whose spans are written to
.bench_build/galsbench/spans-<workload>-<seed>.json).

The benchmark builds the repository's own `gals` library and the
benchmark program (bench.cc) into .bench_build/galsbench (CMake,
Release). It clears every GALS_* variable from the environment it gives
the program; the benchmark program sets the thread counts itself. Its private result store lives in a scratch
directory under .bench_build/galsbench that is removed at exit.

    python3 galsbench/run.py --write-pins

regenerates galsbench/pins.txt (seed 0); do that only for a change that
is meant to alter simulated results.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "galsbench")
BINARY = os.path.join(BUILD, "galsbench")
PINS = os.path.join(HERE, "pins.txt")
WORKLOADS = ("single_core", "chip", "study", "store_warm")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"galsbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"simulator sources not found under {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "galsbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            res = subprocess.run(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            fail("build timed out", 3)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build failed", 3)


def revision():
    """Git revision when the tree is a checkout, plus a digest of the
    simulator sources (the tree the numbers belong to)."""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                timeout=10,
            ).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return f"git:{rev} src:{digest.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    if not args.write_pins and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    env = {k: v for k, v in os.environ.items() if not k.startswith("GALS_")}
    cmd = [BINARY, "--seed", str(args.seed), "--scratch", scratch, "--rev", revision()]
    if args.write_pins:
        cmd += ["--write-pins", PINS]
    else:
        cmd += [
            "--workload", args.workload,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--pins", PINS,
            "--trace-out", os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json"),
        ]
    # A SIGTERM to this script must stop the benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    code = None
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=None if args.write_pins else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S}s and was stopped", 4)
    return code


if __name__ == "__main__":
    sys.exit(main())
