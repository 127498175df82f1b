"""Smoke test of the example scripts: each runs to completion at a small size."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("envelope_sweep.py", ["--rounds", "20", "--seeds", "1", "--dim", "2"]),
    ("zero_reward_duel.py", ["--rounds", "4"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_envelope_sweep_exits_1_on_violation(monkeypatch, capsys):
    # no small real setting violates an envelope, so every report is marked violated
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import envelope_sweep as script
    verify_bound = script.verify_bound
    monkeypatch.setattr(script, "verify_bound", lambda *args: [
        dataclasses.replace(rep, holds=False) for rep in verify_bound(*args)])
    assert script.main(["--rounds", "5", "--seeds", "1", "--dim", "2"]) == 1
    assert "VIOLATIONS FOUND" in capsys.readouterr().out
