"""Self-test of the benchmark, at reduced size (about a minute on 2 cores).

    python3 -m pytest -q perfbench

Every workload emits every metric that BENCHMARK.json names, with its unit,
traced and untraced; and the output checks count a corrupted summary row and
a wrong oracle value as failed operations, which is what ``fail_frac`` and
the result's ``failed`` report.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
from minimax_online.cli import parse_experiment_spec  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    path = run.WORK / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def python(*args):
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=run.child_env(),
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    proc = python(BENCH / "run.py", "--workload", workload, "--seed", 3, "--seconds", 1,
                  "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_frac" in proc.stdout


def test_corrupted_summary_row_is_a_failed_cell(work):
    spec = run.shrink_spec(run.ADAPTIVE_SPEC, work / "spec.yaml")
    out = work / "out"
    code = python("-m", "minimax_online.cli", "run", "--spec", spec, "--out", out).returncode
    plan = checks.SweepPlan.from_spec(parse_experiment_spec(spec))
    clean, _ = checks.check_sweep(out, code, plan)
    assert clean.failed == 0 and clean.attempted == 1 + plan.n_runs

    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[3]["regret"] = repr(float(rows[3]["regret"]) + 1e-6)
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    corrupted, _ = checks.check_sweep(out, code, plan)
    assert (corrupted.attempted, corrupted.failed) == (clean.attempted, 1)


def test_wrong_oracle_value_is_a_failed_call(work):
    result = work / "oracle.json"
    proc = python(BENCH / "child.py", "oracle", "--seed", 3, "--out", result, "--quick")
    assert proc.returncode == 0, proc.stderr
    expected = run.OracleReferee(work, quick=True).expected_calls
    clean = checks.check_oracles(result, 0, expected)
    assert (clean.attempted, clean.failed) == (expected, 0)

    data = json.loads(result.read_text())
    data["recursions"][0]["value"] *= 1.02
    closed = data["one_round"][0]["closed"]["value"]
    data["one_round"][0]["grid"]["value"] = closed + 0.01 * (1.0 + abs(closed))
    result.write_text(json.dumps(data))
    wrong = checks.check_oracles(result, 0, expected)
    assert (wrong.attempted, wrong.failed) == (expected, 2)
