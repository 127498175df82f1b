#!/usr/bin/env python3
"""Bench record: perfbench's untraced workloads, alternating two commits, into one JSON file.

    python scripts/bench.py --out BENCH_35.json [--base HEAD^] [--head HEAD]
                            [--pairs 5] [--seconds 12] [--seed 31001 --seed 2] [--quick]

Run from a git checkout of minimax-online.  Both commits are extracted the
same way, by ``git archive`` into sibling directories of one temporary
directory (a checkout made another way can shift the oracle child's peak RSS
by about 1%), and ``perfbench/run.py --trace 0`` of each checkout runs there
unchanged.  Each pair runs every workload at every seed once per commit; the
commit that goes first alternates from pair to pair.  The record holds each
run's output lines, its result and its ``host_slowdown``, and, per workload,
seed and commit, the median and interquartile range of each end-to-end
metric, with the number of pairs in which the head commit's value is lower.
``--quick`` passes perfbench's shrunken workloads through (a self-test).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep_adaptive", "sweep_wide_curves", "oracle_referee")


def extract(rev: str, dest: Path) -> str:
    """The commit rev's files under dest, by ``git archive``; its full SHA."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    git = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait():
        raise SystemExit(f"git archive {sha} exited {git.returncode}")
    return sha


def run_workload(checkout: Path, workload: str, seed: int, seconds: int, quick: bool) -> dict:
    """One ``perfbench/run.py --trace 0`` run in checkout: its output lines, result and host slowdowns."""
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--quick"] if quick else [])
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(args)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment ")), {})
    return {"lines": lines, "result": json.loads(lines[-1]), "host_slowdown": env.get("host_slowdown")}


def summary(runs: list) -> dict:
    """Median, quartiles and interquartile range of each metric over runs' results."""
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}
    return out


def cpu_features() -> list:
    """The CPU features numpy detected and can use on this machine."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, on in __cpu_features__.items() if on)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--base", default="HEAD^")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--seed", type=int, action="append", help="repeatable; default 31001")
    parser.add_argument("--quick", action="store_true", help="perfbench's shrunken workloads")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")
    seeds = args.seed or [31001]

    import numpy
    import orjson

    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        checkouts = {side: Path(tmp) / side for side in ("base", "head")}
        shas = {side: extract(getattr(args, side), path) for side, path in checkouts.items()}
        runs = {w: {str(s): {"base": [], "head": []} for s in seeds} for w in WORKLOADS}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for workload in WORKLOADS:
                for seed in seeds:
                    for side in order:
                        print(f"pair {pair + 1}/{args.pairs}: {workload} seed {seed} {side}", file=sys.stderr)
                        run = run_workload(checkouts[side], workload, seed, args.seconds, args.quick)
                        runs[workload][str(seed)][side].append({"pair": pair, "first": side == order[0], **run})

    record = {
        "base": {"rev": args.base, "sha": shas["base"]},
        "head": {"rev": args.head, "sha": shas["head"]},
        "protocol": "each pair runs perfbench/run.py --trace 0 once per commit for every workload and seed; "
                    "the commit run first alternates from pair to pair; both commits are git archive "
                    "extractions in sibling directories",
        "pairs": args.pairs, "seconds": args.seconds, "seeds": seeds, "quick": args.quick,
        "python": platform.python_version(), "numpy": numpy.__version__, "orjson": orjson.__version__,
        "cpu_features": cpu_features(),
        "workloads": {},
    }
    for workload, by_seed in runs.items():
        record["workloads"][workload] = {}
        for seed, sides in by_seed.items():
            stats = {side: summary(sides[side]) for side in ("base", "head")}
            lower = {name: sum(h["result"]["metrics"][name]["value"] < b["result"]["metrics"][name]["value"]
                               for b, h in zip(sides["base"], sides["head"])) for name in stats["base"]}
            record["workloads"][workload][seed] = {"summary": stats, "head_lower_in_pairs": lower, "runs": sides}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
