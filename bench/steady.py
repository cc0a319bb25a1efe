"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py --runs 10 [--workload NAME ...]

Runs each workload ``--runs`` times, one run at a time, with seeds 1, 2, ...
and the run length of BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median beside the metric's bound; ``ok`` means the
spread is below a third of the bound.  It also prints the share of failed
operations of every run, which must be the same in all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=workloads)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workload or workloads:
        values: dict[str, list] = {name: [] for name in bounds}
        shares = set()
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            lines = proc.stdout.strip().splitlines()
            if seed == 1:
                print(lines[0])
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
                return 1
            shares.add(f"{result['failed']}/{result['attempted']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
        print(f"{workload}: failed/attempted per run {sorted(shares)}")
        print(f"  {'metric':12} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
              f"{'bound':>6}  ok")
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            ok = spread < bound / 3
            print(f"  {name:12} {median:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
                  f"{bound:6.2f}  {'yes' if ok else 'NO'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
