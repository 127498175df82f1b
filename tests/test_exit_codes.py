"""The command line, in process, on mutated inputs: specs for ``run``, and
sweep.json files and traces for ``curves``.  Whatever the input, the exit
code is a documented one and says what happened: 1 only for a verdict with
violations and no errors, and 2 with one ``error:`` line and no traceback.

The games stay tiny (dim <= 4, rounds <= 20, repeats <= 3, one process): no
value drawn for a size (dim, rounds, repeats, horizon) is a large valid one.
"""

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minimax_online.cli import EXIT_BOUND_VIOLATION, EXIT_CELL_ERROR, EXIT_CONFIG, EXIT_OK, main

TOP = 2**64 - 1  # the largest seed


class Raw(str):
    """YAML text written as it is."""


def to_yaml(value) -> str:
    """value as one line of YAML flow text: a float as ``repr`` spells it
    (1e-05, 1e+300, inf), a Raw as its text, any other string quoted."""
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key}: {to_yaml(item)}" for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(to_yaml, value)) + "]"
    if isinstance(value, (str, bool)) or value is None:
        return json.dumps(value)
    return repr(value)


SIZES = {"dim", "rounds", "repeats", "horizon"}
# a size is small and valid, or not valid at all
BAD_SIZES = [0, -1, 1.5, 2.0, "abc", "unknown", None, True, [], {}, Raw("1e0"), Raw("2E0"), Raw(".nan")]
EXTREMES = [0, 1, 2, -1, 0.0, -0.0, 0.1, 0.5, 1.5, 2.4, 2.5, 5e-324, 1e-300, 1e-3, 1e300, 1.7e308, math.pi / 2,
            3 * math.pi / 4, 1.0000001, TOP, TOP + 1, TOP - 2, 2**63, math.inf, -math.inf, math.nan]
SPELLINGS = [Raw(text) for text in ("1e-3", "1E5", "2.5e3", "-1e-300", "1e-320", "1e400", ".inf", "-.inf",
                                    ".nan", '"0.5"', "'1e-3'", "abc", "true", "null", "~", "[]", "{}", "[1.0]")]
scalars = st.sampled_from(EXTREMES + SPELLINGS) | st.floats() | st.integers(-3, 2**65)

STRATEGIES = [{"tag": "ogd", "eta": 0.3}, {"tag": "power", "W": 1.0, "p": 1.5}, {"tag": "power", "W": 1.0, "p": 1.0},
              {"tag": "normal_knownT", "eps": 1.0, "a": 2.5}, {"tag": "adaptive_normal", "eps": 1.0, "a": 2.4}]
ADVERSARIES = [{"tag": "orthogonal_minimax"}, {"tag": "parallel_minimax", "sign_policy": "alternate"},
               {"tag": "rademacher_line"}, {"tag": "gaussian_random"}, {"tag": "fixed_direction"},
               {"tag": "greedy_vs_comparator"}]


def paths(tree, prefix=()):
    """The key path of every node below the root of a tree of dicts and lists."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


@st.composite
def mutated(draw, tree, values):
    """tree with up to three edits, each at a drawn path: a new value (a bad
    size where the key is a size), the node deleted, or an unknown key added
    beside it."""
    tree = copy.deepcopy(tree)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        where = sorted(paths(tree), key=repr)
        if not where:
            break
        path = draw(st.sampled_from(where))
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["set", "set", "delete", "extra"]))
        # a copy of the drawn value, since a later edit may edit inside it
        if action == "set":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(BAD_SIZES) if path[-1] in SIZES else values))
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["bogus"] = copy.deepcopy(draw(values))
    return tree


@st.composite
def specs(draw):
    """A tiny spec that mostly runs: drawn entries with drawn parameters, then mutated."""
    dim, rounds = draw(st.integers(1, 4)), draw(st.integers(1, 20))
    strategies = [{key: (draw(scalars) if key != "tag" and draw(st.integers(0, 3)) == 0 else value)
                   for key, value in entry.items()}
                  for entry in draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=2))]
    adversaries = []
    for entry in draw(st.lists(st.sampled_from(ADVERSARIES), min_size=1, max_size=2)):
        entry = dict(entry)
        if entry["tag"] == "greedy_vs_comparator":
            entry["comparator"] = draw(st.lists(st.sampled_from(EXTREMES), min_size=dim, max_size=dim))
        adversaries.append(entry)
    spec = {
        "game": {"dim": dim, "grad_bound": draw(st.sampled_from([1.0, 1e-300, 1e300, 1.7e308, 5e-324])),
                 "horizon": draw(st.sampled_from([rounds, rounds, "unknown"])),
                 "seed": draw(st.sampled_from([0, 7, TOP - 2, TOP]))},
        "strategies": strategies,
        "adversaries": adversaries,
        "comparators": [{"norm": draw(st.sampled_from([0.0, 0.1, 1.0, 1e-300, 1e300, 1e308])),
                         "direction_seed": draw(st.sampled_from([0, 3, TOP]))}
                        for _ in range(draw(st.integers(1, 2)))],
        "outputs": {"format": draw(st.sampled_from(["csv", "json", "both"]))},
        "repeats": draw(st.integers(1, 3)),
        "rounds": rounds,
    }
    return draw(mutated(spec, scalars))


def run_main(argv):
    """main(argv) -> (exit code, stderr), stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_one_error_line(err):
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
    assert "Traceback" not in err, err


QUIET = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_codes")


@QUIET
@given(spec=specs(), seed=st.sampled_from([None, None, 0, TOP, TOP - 1, TOP + 1, -1]))
def test_run_exit_code_says_what_happened(scratch, spec, seed):
    work = Path(tempfile.mkdtemp(dir=scratch))
    path, out = work / "spec.yaml", work / "out"
    path.write_text(to_yaml(spec) + "\n")
    code, err = run_main(["run", "--spec", str(path), "--out", str(out), "--jobs", "1"]
                         + ([] if seed is None else ["--seed", str(seed)]))
    assert code in (EXIT_OK, EXIT_BOUND_VIOLATION, EXIT_CONFIG, EXIT_CELL_ERROR), (code, err)
    if code == EXIT_CONFIG:
        assert_one_error_line(err)
    else:
        verdict = json.loads((out / "verdict.json").read_text())
        assert (code == EXIT_BOUND_VIOLATION) == bool(verdict["violations"] and not verdict["errors"]), verdict
        assert (code == EXIT_CELL_ERROR) == bool(verdict["errors"]), verdict
        assert (code == EXIT_OK) == verdict["all_hold"], verdict
    shutil.rmtree(work)


@pytest.mark.parametrize("eps, code", [(5e-324, EXIT_CONFIG), (1e-310, EXIT_CONFIG),
                                       (2.2250738585072014e-308, EXIT_OK), (1e-300, EXIT_OK)])
@pytest.mark.parametrize("rounds", [20, 1000])
def test_a_subnormal_adaptive_eps_is_refused_at_parse_time(scratch, eps, code, rounds):
    # beta_t = eps / log^2(t+1) underflows to 0 from a subnormal eps, and the group crashed
    spec = {"game": {"dim": 2, "grad_bound": 1.0, "seed": 0},
            "strategy": {"tag": "adaptive_normal", "eps": eps, "a": 2.4},
            "adversary": {"tag": "fixed_direction"}, "rounds": rounds}
    work = Path(tempfile.mkdtemp(dir=scratch))
    (work / "spec.yaml").write_text(to_yaml(spec) + "\n")
    got, err = run_main(["run", "--spec", str(work / "spec.yaml"), "--out", str(work / "out"), "--jobs", "1"])
    assert got == code, err
    if code == EXIT_CONFIG:
        assert_one_error_line(err)
        assert "eps must be at least 2.2250738585072014e-308, the smallest normal float64" in err
    shutil.rmtree(work)


CURVES_SPEC = {
    "game": {"dim": 2, "grad_bound": 1.0, "horizon": 5, "seed": 1},
    "strategies": [{"tag": "ogd", "eta": 0.3}, {"tag": "normal_knownT", "eps": 1.0, "a": 2.5}],
    "adversary": {"tag": "gaussian_random"},
    "comparators": [{"norm": 0.0, "direction_seed": 0}, {"norm": 2.0, "direction_seed": 4}],
    "outputs": {"format": "json"},
    "repeats": 1,
}
JSON_VALUES = st.sampled_from([None, -1, 0, 1, 2.5, -0.0, 1e-7, 1e308, -1e308, 5e-324, TOP, TOP + 1, math.inf,
                               math.nan, "abc", "", "unknown", "ogd", [], {}, [1.0], [[1.0, 2.0]], True])


@pytest.fixture(scope="module")
def sweep(scratch):
    """A finished tiny sweep with JSON traces, two entries of one run each."""
    path, out = scratch / "curves_spec.yaml", scratch / "sweep"
    path.write_text(to_yaml(CURVES_SPEC) + "\n")
    assert run_main(["run", "--spec", str(path), "--out", str(out), "--jobs", "1"])[0] == EXIT_OK
    return out


@QUIET
@given(data=st.data())
def test_curves_exit_code_says_what_happened(scratch, sweep, data):
    work = Path(tempfile.mkdtemp(dir=scratch))
    shutil.copytree(sweep, work, dirs_exist_ok=True)
    target = data.draw(st.sampled_from([work / "sweep.json", *sorted(work.glob("run_*.json"))]), label="file")
    if data.draw(st.booleans(), label="cut the text"):
        text = target.read_text()
        target.write_text(text[:data.draw(st.integers(0, len(text)), label="kept")])
    else:
        tree = json.loads(target.read_text())
        target.write_text(json.dumps(data.draw(mutated(tree, JSON_VALUES), label="tree")))
    code, err = run_main(["curves", str(work)])
    assert code in (EXIT_OK, EXIT_CONFIG), (code, err)
    assert (work / "curves.csv").exists() == (code == EXIT_OK)
    if code == EXIT_CONFIG:
        assert_one_error_line(err)
    shutil.rmtree(work)
