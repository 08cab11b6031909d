#!/usr/bin/env python3
"""Steadiness check: run two sets of benchmark runs of one build and say
whether they agree within BENCHMARK.json's bounds.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10]

Each set runs every workload --runs times, with seeds 1..runs and
BENCHMARK.json's run_seconds, through perfbench/run.py with --trace 0 (the
first call builds). For each workload and end-to-end metric it prints, per
set, the sample count, the first quartile, the median and the third
quartile (statistics.quantiles(n=4)) and the spread (q3 - q1) / median.
The sets agree when every spread except setup_s's is within the metric's
bound and no second-set median is worse than the first by more than the
bound.
Fingerprints must repeat for a seed across the sets and differ between
seeds. Exits 0 when everything agrees and every run was correct.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.exit(f"steady: {workload} seed {seed} printed no result "
                 f"(exit {proc.returncode})")
    fp = next((m.group(1) for line in lines
               if (m := re.match(r"fingerprint = ([0-9a-f]+)", line))), None)
    return {"rc": proc.returncode, "result": result, "fingerprint": fp}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("steady: --runs must be at least 2 (quartiles need two samples)")
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    runs = {w: [[], []] for w in workloads}
    for s in range(2):
        for w in workloads:
            for seed in range(1, args.runs + 1):
                r = run_once(w, seed, spec["run_seconds"])
                r["seed"] = seed
                runs[w][s].append(r)
                print(f"set {s + 1} {w} seed {seed}: rc {r['rc']} "
                      f"fingerprint {r['fingerprint']}", file=sys.stderr)

    ok = True
    for w in workloads:
        print(f"\n== {w}")
        sets = runs[w]
        bad = [r["seed"] for s in sets for r in s
               if r["rc"] != 0 or not r["result"]["correct"]]
        if bad:
            ok = False
            print(f"  INCORRECT runs at seeds {bad}")
        fps = [[r["fingerprint"] for r in s] for s in sets]
        repeat = fps[0] == fps[1]
        distinct = len(set(fps[0])) == len(fps[0])
        ok &= repeat and distinct
        print(f"  fingerprints: {'repeat' if repeat else 'DIFFER'} across sets, "
              f"{'distinct' if distinct else 'NOT distinct'} across seeds")
        print(f"  {'metric':<18} {'set':>3} {'n':>3} {'q1':>14} {'median':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sums = [summary([r["result"]["metrics"][name]["value"] for r in s])
                    for s in sets]
            drift = worse_by(m, sums[0]["median"], sums[1]["median"])
            for k, sm in enumerate(sums):
                spread_bad = name != "setup_s" and sm["spread"] > bound
                drift_bad = k == 1 and drift > bound
                ok &= not (spread_bad or drift_bad)
                verdict = []
                if spread_bad:
                    verdict.append("SPREAD>BOUND")
                elif sm["spread"] > bound / 3:
                    verdict.append("spread>bound/3")
                if k == 1:
                    verdict.append(f"median drift {drift:+.3f}"
                                   + (" DRIFT>BOUND" if drift_bad else ""))
                print(f"  {name:<18} {k + 1:>3} {sm['n']:>3} {sm['q1']:>14.6g} "
                      f"{sm['median']:>14.6g} {sm['q3']:>14.6g} "
                      f"{sm['spread']:>8.4f} {bound:>6}  {' '.join(verdict)}")
    print(f"\nverdict: the two sets {'AGREE' if ok else 'DO NOT AGREE'} "
          "within the benchmark's bounds")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
