"""Output checks of the benchmark; every failed check is one failed operation.

An operation is a CLI call, a sweep cell or an oracle call.  Each check
returns an ``Outcome``: operations attempted, operations failed, and the
measured values the report prints (bound violations, oracle errors).  The
tolerances are the ones the repository's own suites pin; none is loosened.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from minimax_online import engine
from minimax_online.cli import EXIT_BOUND_VIOLATION, EXIT_OK, comparator_vector
from minimax_online.core import GameConfig
from minimax_online.oracles import rademacher_smoothing_exact

REGRET_RTOL = 1e-9      # summary regret against engine.regret of its trace
RECURSION_2D_RTOL = 1e-2  # `verify --lemma recursion`
RECURSION_1D_TOL = 2e-3   # tests/test_one_round.py::TestDimOneParallel (rel and abs)
ONE_ROUND_TOL = 1e-3      # `verify --lemma one-round`: |closed - grid| / (1 + |closed|)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    bound_violations: int = 0
    max_rel_err: float = 0.0
    problems: list = field(default_factory=list)

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.bound_violations += other.bound_violations
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)
        self.problems += other.problems


@dataclass(frozen=True)
class SweepPlan:
    """What a sweep spec asks for: the counts its outputs must show."""

    n_runs: int
    comparators: list  # [{"norm", "direction_seed"}] in spec order
    rounds: int
    fmt: str           # trace format: csv | json

    @classmethod
    def from_spec(cls, spec) -> "SweepPlan":
        return cls(len(spec.strategies) * len(spec.adversaries) * spec.repeats,
                   spec.comparators, spec.rounds, spec.out_format)


def _read_summary(out_dir: Path) -> dict:
    rows = defaultdict(list)
    with open(out_dir / "summary.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["run_id"]].append(row)
    return rows


def _trace_from_csv(path: Path, dim: int) -> engine.Trace:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(x) for x in row[5:]] for row in reader]).reshape(-1, 2 * dim)
    if header[5:5 + dim] != [f"w_{i}" for i in range(dim)]:
        raise ValueError(f"{path.name}: no coordinate columns")
    # contiguous copies, so einsum sums in the order it used on the in-memory trace
    w, g = np.ascontiguousarray(data[:, :dim]), np.ascontiguousarray(data[:, dim:])
    return engine.Trace(GameConfig(dim=dim, grad_bound=1.0), "", "", w, g,
                        -np.cumsum(g, axis=0), np.einsum("td,td->t", w, g))


def _load_trace(out_dir: Path, run_id: str, fmt: str, dim: int) -> engine.Trace:
    path = out_dir / f"run_{run_id}.{fmt}"
    return _trace_from_csv(path, dim) if fmt == "csv" else engine.read_trace_json(path)


def check_sweep(out_dir, exit_code: int, plan: SweepPlan):
    """The `run` call and each of its cells.

    The call passes when its exit code agrees with verdict.json and the
    verdict counts every run and every bound check.  A cell passes when its
    trace exists and each of its summary rows, one per comparator, holds the
    regret that ``engine.regret`` recomputes from that trace.

    Returns the ``Outcome`` and, per run id, one (summary regret, scale) pair
    per comparator; scale is sum_t,i |g_ti (w_ti - u_i)|, the size of the
    terms that regret sums, for ``check_curves``.
    """
    out_dir = Path(out_dir)
    out = Outcome()
    regrets = {}
    try:
        verdict = json.loads((out_dir / "verdict.json").read_text())
        summary = _read_summary(out_dir)
        dim = json.loads((out_dir / "sweep.json").read_text())["game"]["dim"]
    except (OSError, ValueError, KeyError) as exc:
        out.op(False, f"run: unreadable outputs ({exc}), exit {exit_code}")
        for _ in range(plan.n_runs):
            out.op(False, "cell: no summary")
        return out, regrets
    expected_exit = EXIT_OK if verdict.get("all_hold") else EXIT_BOUND_VIOLATION
    n_checks = plan.n_runs * len(plan.comparators)
    out.op(exit_code == expected_exit and verdict.get("n_runs") == plan.n_runs
           and verdict.get("n_checks") == n_checks,
           f"run: exit {exit_code} (verdict wants {expected_exit}), n_runs "
           f"{verdict.get('n_runs')}/{plan.n_runs}, n_checks {verdict.get('n_checks')}/{n_checks}")

    comparators = [comparator_vector(c["norm"], c["direction_seed"], dim) for c in plan.comparators]
    run_ids = list(summary)
    for run_id in run_ids[:plan.n_runs]:
        rows = summary[run_id]
        out.bound_violations += sum(row["holds"] != "True" for row in rows)
        try:
            trace = _load_trace(out_dir, run_id, plan.fmt, dim)
            values = [float(row["regret"]) for row in rows]
            bad = [v for v, u in zip(values, comparators)
                   if not math.isclose(v, engine.regret(trace, u), rel_tol=REGRET_RTOL, abs_tol=0.0)]
            regrets[run_id] = [(v, float(np.abs(trace.g * (trace.w - u)).sum()))
                               for v, u in zip(values, comparators)]
        except (OSError, ValueError, KeyError) as exc:
            out.op(False, f"cell {run_id}: {exc}")
            continue
        out.op(len(rows) == len(comparators) and not bad,
               f"cell {run_id}: {len(rows)} summary rows, regret mismatch {bad}")
    for _ in range(plan.n_runs - min(len(run_ids), plan.n_runs)):
        out.op(False, "cell: missing from summary.csv")
    return out, regrets


def check_curves(out_dir, exit_code: int, plan: SweepPlan, regrets: dict) -> Outcome:
    """The `curves` call: one row per run, comparator and round, and each
    curve's final regret equal to the summary's regret for that run.

    ``regrets`` is what ``check_sweep`` returns.  The curve adds the
    per-round terms one by one and the summary in one reduction, so the two
    agree to 1e-9 of the larger of the value and the size of its terms.
    """
    out_dir = Path(out_dir)
    out = Outcome()
    try:
        with open(out_dir / "curves.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            finals = [(row[1], float(row[2])) for row in reader if int(row[0]) == plan.rounds]
            n_rows = reader.line_num - 1
    except (OSError, ValueError, IndexError) as exc:
        out.op(False, f"curves: unreadable outputs ({exc}), exit {exit_code}")
        return out
    # curves walks the runs in sorted order and the comparators in spec order
    expected = [(run_id, pair) for run_id in sorted(regrets) for pair in regrets[run_id]]
    mismatched = [f"{run_id}: {value!r} vs {want!r}"
                  for (run_id, value), (want_id, (want, scale)) in zip(finals, expected)
                  if run_id != want_id or abs(value - want) > REGRET_RTOL * max(abs(want), scale)]
    want_rows = plan.n_runs * len(plan.comparators) * plan.rounds
    out.op(exit_code == EXIT_OK and n_rows == want_rows
           and len(finals) == len(expected) == plan.n_runs * len(plan.comparators)
           and not mismatched,
           f"curves: exit {exit_code}, {n_rows}/{want_rows} rows, "
           f"{len(finals)}/{len(expected)} final rows, mismatched {mismatched[:3]}")
    return out


def check_oracles(result_path, exit_code: int, expected_calls: int) -> Outcome:
    """Each oracle call against its reference, with the suites' pinned tolerances.

    d = 2 recursion: within 1e-2 relative of (1/p) (T G^2)^(p/2).  d = 1
    recursion: within 2e-3 (relative or absolute) of the exact coin-flip
    smoothing.  One-round: closed form within 1e-3 of the grid oracle,
    relative to 1 + |closed|.
    """
    out = Outcome()
    try:
        result = json.loads(Path(result_path).read_text())
    except (OSError, ValueError) as exc:
        for _ in range(expected_calls):
            out.op(False, f"oracle: no result ({exc}), exit {exit_code}")
        return out
    p = result["p"]
    f = lambda x: (1.0 / p) * abs(x) ** p

    def judge(label, value, reference, rel_err, ok):
        out.max_rel_err = max(out.max_rel_err, rel_err)
        out.op(ok, f"{label}: {value!r} vs reference {reference!r}")

    for rec in result["recursions"]:
        label = f"recursion d={rec['dim']} T={rec['T']}"
        if "value" not in rec:
            out.op(False, f"{label}: {rec.get('error')}")
            continue
        value = rec["value"]
        if rec["dim"] == 2:
            ref = (1.0 / p) * (rec["T"] * rec["G"] ** 2) ** (p / 2.0)
            err = abs(value - ref) / abs(ref)
            judge(label, value, ref, err, err <= RECURSION_2D_RTOL)
        else:
            ref = rademacher_smoothing_exact(f, 0.0, rec["T"], rec["G"])
            err = abs(value - ref) / abs(ref)
            judge(label, value, ref, err,
                  abs(value - ref) <= max(RECURSION_1D_TOL * abs(ref), RECURSION_1D_TOL))
    for i, item in enumerate(result["one_round"]):
        label = f"one-round {item['regime']} #{i}"
        if "value" not in item["closed"] or "value" not in item["grid"]:
            out.op(False, f"{label}: {item['closed'].get('error')} / {item['grid'].get('error')}")
            continue
        closed, grid = item["closed"]["value"], item["grid"]["value"]
        err = abs(closed - grid) / (1.0 + abs(closed))
        judge(label, grid, closed, err, err <= ONE_ROUND_TOL)
    for _ in range(expected_calls - out.attempted):
        out.op(False, "oracle: call missing from result")
    if exit_code != 0:
        out.op(False, f"oracle job exit {exit_code}")
    return out
