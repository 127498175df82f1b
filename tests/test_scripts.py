"""Smoke tests of the example scripts, the README quick start and the committed envelope spec."""

import os
import re
import subprocess
import sys
from pathlib import Path

from minimax_online.checks import adversary_quartet, envelope_players
from minimax_online.cli import EXIT_OK, build_adversary, build_strategy, main, parse_experiment_spec

ROOT = Path(__file__).resolve().parents[1]
ENVELOPE_SPEC = ROOT / "scripts" / "specs" / "envelope_sweep.yaml"


def test_zero_reward_duel_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "zero_reward_duel.py"), "--rounds", "4"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_envelope_spec_is_the_checks_tables():
    # every algorithm row of envelope_players(400, 1) against adversary_quartet(1), at d = 4 with 10 repeats
    spec = parse_experiment_spec(ENVELOPE_SPEC)
    assert (spec.game.dim, spec.game.grad_bound, spec.rounds, spec.repeats) == (4, 1.0, 400, 10)
    assert [build_strategy(entry, spec.game) for entry in spec.strategies] == [
        player for _, player in envelope_players(400, 1.0)]
    assert [build_adversary(entry, spec.game) for entry in spec.adversaries] == adversary_quartet(1.0)
    assert [comp["norm"] for comp in spec.comparators] == [0.0, 0.1, 1.0, 10.0, 100.0]


def test_envelope_spec_holds(tmp_path, capsys):
    assert main(["run", "--spec", str(ENVELOPE_SPEC), "--out", str(tmp_path), "--jobs", "1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("240 runs, 1200 bound checks, 0 violations")
