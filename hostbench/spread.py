#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports each
metric's median and spread (interquartile range over median) against the
bounds in BENCHMARK.json.

Run from the repository root:

    python3 hostbench/spread.py --runs 10 --first-seed 100 --out hostbench/results/set-a

Each run's stdout is kept in <out>/<workload>.log; <out>/summary.md holds
the table. A spread counts as steady when it is below a third of the
metric's bound (setup_s is exempt: only its median is compared between
sets). With --trace 1 the runs report per-layer metrics instead, and no
bound is checked.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)

    rows = []
    ok = True
    for w in workloads:
        values = {}
        units = {}
        digests = []
        with open(os.path.join(args.out, f"{w}.log"), "w") as log:
            for i in range(args.runs):
                seed = args.first_seed + i
                cmd = spec["command"] + [
                    "--workload", w,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", args.trace,
                ]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                wall = time.monotonic() - t0
                log.write(f"# seed {seed} exit {proc.returncode} wall {wall:.1f} s\n{proc.stdout}")
                log.flush()
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else {}
                if proc.returncode != 0 or not result.get("correct"):
                    print(f"{w} seed {seed}: FAILED\n{proc.stderr}", file=sys.stderr)
                    ok = False
                    continue
                digests += re.findall(r" digest (0x[0-9a-f]+)", proc.stdout)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            steady = "" if bound is None or args.trace == "1" else (
                "exempt" if name == "setup_s" else ("yes" if spread < bound / 3 else "NO"))
            if steady == "NO":
                ok = False
            rows.append((w, name, units[name], len(vs), med, q1, q3, spread, bound, steady))
        print(f"{w}: {len(digests)} runs, {len(set(digests))} distinct digests", file=sys.stderr)

    with open(os.path.join(args.out, "summary.md"), "w") as f:
        f.write("| workload | metric | unit | runs | median | q1 | q3 | IQR/median | bound | steady |\n")
        f.write("|---|---|---|---|---|---|---|---|---|---|\n")
        for w, name, unit, n, med, q1, q3, spread, bound, steady in rows:
            b = "" if bound is None else f"{bound:.2f}"
            f.write(f"| {w} | {name} | {unit} | {n} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                    f"| {spread:.4f} | {b} | {steady} |\n")
    with open(os.path.join(args.out, "summary.md")) as f:
        print(f.read())
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
