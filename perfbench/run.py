"""The repository's benchmark: three workloads, checked answers, end-to-end
and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-forest --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` times the workload untraced and prints every end-to-end
metric.  Each phase runs a fixed amount of work set by ``--seconds``
(about that long on a 2-vCPU VM), not until a deadline, so sample
counts and tail percentiles do not depend on the program's speed.
``--trace 1`` runs a smaller fixed amount of work three times —
untraced, with layer spans installed, untraced again — and prints the
per-layer metrics (the spans themselves go to ``.perfbench/``).  The
last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the lines before it name every
metric with its unit, sample count and percentile, the error rate,
and the environment.  The exit code is non-zero when any correctness
check fails.  ``--workload all`` runs each workload in its own
process, one after the other.

Times and rates in the result line are given at a reference host
speed: each untraced run times a fixed pure-Python loop between its
operations (``benchlib.HostSpeed``) and scales its medians by the
loop's reference time over its measured median.  The shared host this
benchmark was built on runs the same code 1.5-1.8x slower for minutes
at a time, longer than any run; raw medians of ten runs then spread by
a third, scaled ones by about a tenth.  Every scaled figure is printed
with its wall-clock value, and ``host_speed`` gives the factor.
``setup_s`` is wall-clock.

``peak_rss_mb`` is printed but kept out of the result line: on
``sparsify-small`` it moves by a tenth or more from run to run, because
each restore builds per-bank arrays that arena adoption then abandons,
and whether the allocator hands those out from recycled (touched) or
fresh (untouched) pages depends on its history.

Why these workloads is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import benchlib

WORKLOADS = {
    "serve-forest": "wl_serve_forest",
    "sparsify-small": "wl_sparsify_small",
    "sharded-history": "wl_sharded_history",
}


def _parse(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_one(args: argparse.Namespace) -> int:
    try:
        repro = benchlib.import_program()
    except benchlib.ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import importlib

    module = importlib.import_module(WORKLOADS[args.workload])
    traced = bool(args.trace)
    env = benchlib.environment()
    report, tracer = module.run(repro, args.seed, args.seconds, traced)
    if not traced:
        report.info("peak_rss_mb", benchlib.peak_rss_mb(), "MB")
    else:
        path = benchlib.WORK / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.rec.write(path, {"workload": args.workload, "seed": args.seed,
                                "env": env})
        print(f"spans written to {path.relative_to(benchlib.ROOT)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for line in report.lines():
        print(line)
    print(json.dumps(report.result()))
    return 0 if report.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so ``peak_rss_mb`` is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            status = status or 1
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    finally:
        shutil.rmtree(benchlib.SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
