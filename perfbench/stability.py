#!/usr/bin/env python3
"""Stability report: run each workload repeatedly on one commit and print,
per end-to-end metric, the median, the quartiles, and the spread (the
distance between the quartiles as a share of the median) beside the
metric's bound from BENCHMARK.json, and the spread the same runs give
without calibration (from each run's `raw:` line).

    python3 perfbench/stability.py [--runs 10] [--first-seed 1] [--workloads a,b]

Run from the repository root. Each run uses the next seed, as the
acceptance check does. A spread above a third of the bound is marked
`WIDE`, above the bound `OVER`; `setup_s` is held only to the bound on
its median, so its spread is reported but not marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{proc.stdout}")
    raw = next(line for line in lines if line.startswith("raw: ")).split()[1:]
    return ({k: v["value"] for k, v in result["metrics"].items()},
            {raw[i]: float(raw[i + 1]) for i in range(0, len(raw), 2)})


def spread(vs):
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    for workload in names:
        values, raws = {}, {}
        for i in range(args.runs):
            seed = args.first_seed + i
            metrics, raw = run_once(workload, seed, bench["run_seconds"])
            for k, v in metrics.items():
                values.setdefault(k, []).append(v)
            for k, v in raw.items():
                raws.setdefault(k, []).append(v)
            print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for name, vs in values.items():
            q1, med, q3, sp = spread(vs)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "OVER" if sp > bound else "WIDE" if sp > bound / 3 else "ok"
            shown = "" if bound is None else f"bound {bound:.2f}"
            raw = f"  raw spread {spread(raws[name])[3]:7.4f}" if name in raws else ""
            print(f"  {name:<28} median {med:>16.6f}  q1 {q1:>16.6f}  q3 {q3:>16.6f}"
                  f"  spread {sp:7.4f}  {shown} {mark}{raw}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
