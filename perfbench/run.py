#!/usr/bin/env python3
"""Build the perfbench program from this checkout's sources and run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is built (Release, CMake) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs reuse the
build. Its stdout is passed through; its last line is one JSON
object with the keys correct, attempted, failed and metrics. Before
passing it on, this script checks that the metric names and units are
exactly the end_to_end (--trace 0) or per_layer (--trace 1) entries of
BENCHMARK.json.
Traced runs also write their spans to <build>/spans/<workload>.json.
The program runs with address-space randomization off where the kernel
allows it, so its memory layout is the same in every run.
Exits non-zero, without a result line, if the build, the run or that check
fails.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure once, then build incrementally; build logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")
    binary = out / "perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def fixed_layout():
    """In the child, before exec: turn address-space randomization off.
    Heap and stack placement otherwise moves microsecond-scale timings,
    setup_s above all, by up to 2x from one process to the next. Where the
    kernel refuses, the run goes on with randomization."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)  # query only
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    binary = build(out)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    result_line = lines[-1] if lines else ""
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode not in (0, 1):
        fail(f"perfbench exited with {proc.returncode}")
    try:
        result = json.loads(result_line)
    except json.JSONDecodeError:
        fail("perfbench printed no result line")
    got = [(name, m.get("unit")) for name, m in result.get("metrics", {}).items()]
    want = expected_metrics(args.trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    print(result_line, flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
