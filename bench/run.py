"""Run one workload of the loopalg benchmark and print its metrics.

    python3 bench/run.py --workload loop-quotient --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: loopalg is imported from ``src/``
there, never from an installed copy.  With ``--trace 0`` the run measures the
end-to-end metrics for ``--seconds``; with ``--trace 1`` it replays a fixed
number of rounds untraced and then under cProfile, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the provenance and each metric in words.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("loop-quotient", "kepler-oracle", "cli-cold")

MIN_OPS = 100          # p90 then has at least ten operations beyond it
SETUP_PROBES = 15      # fresh processes that repeat the set-up, besides this one
IMPORT_PROBES = 5      # fresh processes that time `import loopalg.cli`


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up alone, print it and exit (used by the run itself)")
    return p.parse_args(argv)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_seconds(cmd):
    """Run a child that prints a duration in seconds as its last line."""
    from workloads import child_env

    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class SetupProbes:
    """Set-up times: this process's, then SETUP_PROBES fresh processes that
    repeat the set-up, one after each round whose end passes the next of
    SETUP_PROBES evenly spaced points of the timed phase, so that the probes
    see the machine over the same span as the operations."""

    def __init__(self, args, setup_s):
        self.seconds = args.seconds
        self.times = [setup_s]
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]

    def between_rounds(self, elapsed):
        done = len(self.times) - 1
        if done < SETUP_PROBES and elapsed >= done * self.seconds / SETUP_PROBES:
            self.times.append(child_seconds(self.cmd))

    def median(self):
        while len(self.times) <= SETUP_PROBES:
            self.times.append(child_seconds(self.cmd))
        return statistics.median(self.times)


def import_ms():
    code = ("import time; t = time.perf_counter(); import loopalg.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(child_seconds([sys.executable, "-c", code])
                             for _ in range(IMPORT_PROBES)) * 1000


class Tally:
    """Operations attempted and failed, and the wall time of each."""

    def __init__(self):
        self.durations = []
        self.failed = 0
        self.unexpected = []

    def run_round(self, ops):
        for op in ops:
            t = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:          # an op that raises has failed
                error = f"{type(exc).__name__}: {exc}"
            self.durations.append(time.perf_counter() - t)
            if error is None:
                try:
                    op.check(out)
                except CheckFailed as exc:
                    error = str(exc)
                except Exception as exc:      # output too malformed to check
                    error = f"{type(exc).__name__} while checking: {exc}"
            if error is not None:
                self.failed += 1
                if not op.known_fault:
                    self.unexpected.append(f"{op.kind}: {error}")


def run_rounds(workload, rng, tally, rounds=None, seconds=None, between=None):
    """Whole rounds: a fixed number, or until `seconds` of rounds and MIN_OPS
    are reached.  `between(elapsed)` runs after each round, outside the time
    counted."""
    elapsed = 0.0
    done = 0
    while True:
        start = time.perf_counter()
        tally.run_round(workload.round(rng))
        elapsed += time.perf_counter() - start
        done += 1
        if rounds is not None and done >= rounds:
            return elapsed
        if rounds is None and elapsed >= seconds and len(tally.durations) >= MIN_OPS:
            return elapsed
        if between is not None:
            between(elapsed)


def round_rng(seed):
    return random.Random(f"rounds-{seed}")


def timed_run(args, workload, setup_s):
    tally = Tally()
    setups = SetupProbes(args, setup_s)
    run_rounds(workload, round_rng(args.seed), tally, seconds=args.seconds,
               between=setups.between_rounds)
    # cli-cold keeps the peak of its loopalg processes; the set-up probes are
    # children too, so RUSAGE_CHILDREN would count them
    peak_kb = getattr(workload, "peak_rss_kb",
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    verify(workload, tally)
    ms = [d * 1000 for d in tally.durations]
    metrics = {
        "setup_s": (setups.median(), "s"),
        "ops_per_s": (len(ms) / math.fsum(tally.durations), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return tally, metrics


def traced_run(args, workload):
    import cProfile
    import pstats

    import layers

    rounds = workload.trace_rounds
    spans = workload.spans
    spans.enabled = True
    untraced = run_rounds(workload, round_rng(args.seed), Tally(), rounds=rounds)
    spans.enabled = False
    spans.counts.clear()

    tally = Tally()
    profiler = cProfile.Profile()
    if args.workload == "cli-cold":
        workload.profile_dir = workload.workdir
    profiler.enable()
    traced = run_rounds(workload, round_rng(args.seed), tally, rounds=rounds)
    profiler.disable()
    verify(workload, tally)

    stats = pstats.Stats(profiler)
    for path in getattr(workload, "profiles", ()):
        stats.add(path)
    profile = layers.Profile(stats, SRC / "loopalg")
    return tally, layers.per_layer_metrics(profile, spans, traced / untraced, import_ms())


def verify(workload, tally):
    try:
        getattr(workload, "verify", lambda: None)()
    except CheckFailed as exc:
        tally.unexpected.append(f"verify: {exc}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "loopalg" / "__init__.py").is_file():
        print(f"error: no loopalg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"

    start = time.perf_counter()
    import loopalg
    from workloads import WORKLOADS, Spans

    if Path(loopalg.__file__).resolve().parent != (SRC / "loopalg").resolve():
        print(f"error: loopalg was imported from {loopalg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    try:
        workload.setup(args.seed, workdir, Spans())
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            tally, metrics = traced_run(args, workload)
        else:
            tally, metrics = timed_run(args, workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for line in tally.unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
    }
    print("provenance " + json.dumps(provenance))
    print(f"attempted {len(tally.durations)} failed {tally.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": len(tally.durations),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
