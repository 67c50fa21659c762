"""Repeat benchmark runs and summarise each end-to-end metric.

Usage (from the repository root):

    python3 perfbench/summary.py --workload fit-n2000 --runs 10
        [--save runs.jsonl]
    python3 perfbench/summary.py --load runs.jsonl [more.jsonl ...]

Run ``i`` uses seed ``i``, ``--trace 0`` and ``run_seconds`` from
``BENCHMARK.json``.
For every metric and workload it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound. Runs made with different
thread settings are flagged: their timings must not be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    return {"env": env, "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bench: dict) -> list[str]:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    by_workload = defaultdict(list)
    for run in runs:
        by_workload[run["env"]["workload"]].append(run)
    out = []
    for workload, group in by_workload.items():
        settings = {json.dumps(r["env"]["threads"], sort_keys=True)
                    for r in group}
        seeds = [r["env"]["seed"] for r in group]
        out.append(f"== {workload}: {len(group)} runs, seeds {seeds}")
        if len(settings) > 1:
            out.append(f"INVALID comparison: thread settings differ: "
                       f"{sorted(settings)}")
        bad = [r["env"]["seed"] for r in group
               if not r["result"]["correct"] or r["result"]["failed"]]
        out.append(f"correct on all runs: {not bad}"
                   + (f" (failing seeds {bad})" if bad else ""))
        names = group[0]["result"]["metrics"]
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in group]
            unit = group[0]["result"]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            verdict = ("over bound" if spread > bound else
                       "over bound/3" if spread > bound / 3 else "steady")
            out.append(f"  {name:<14} {med:12.6g} {unit:<6} "
                       f"q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:7.2%}"
                       f"  bound {bound:.0%} {verdict}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--load", type=Path, nargs="+")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.load:
        runs = [json.loads(line) for path in args.load
                for line in path.read_text().splitlines() if line.strip()]
    elif args.workload:
        runs = []
        for seed in range(args.runs):
            run = run_once(args.workload, seed, bench["run_seconds"])
            runs.append(run)
            if args.save:
                with open(args.save, "a") as fh:
                    fh.write(json.dumps(run) + "\n")
    else:
        parser.error("give --workload or --load")
    print("\n".join(summarise(runs, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
