"""Child-process entry points of the benchmark; ``run.py`` starts one per step.

    python child.py setup --spec SPEC         import the CLI and parse SPEC
    python child.py setup --oracle --seed N   import the oracle modules, build the inputs
    python child.py cli SPANS ARGS...         ``minimax-online ARGS`` with spans written to SPANS
    python child.py oracle --seed N --out RESULT [--spans SPANS] [--quick]

The package is found through PYTHONPATH, which ``run.py`` points at ``src``.
The untraced sweeps do not come through here: ``run.py`` starts
``python -m minimax_online.cli`` itself.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from tracing import NullTracer, Tracer, instrument_cli, instrument_oracles

P = 1.5  # power profile f(x) = |x|^p / p of both recursion calls
# (dim, T) of the two backward-induction calls; --quick shrinks the grids
RECURSIONS = ((2, 2), (1, 3))
ONE_ROUND_PER_REGIME = 50
QUICK = {"recursions": ((2, 1), (1, 2)), "per_regime": 3, "n_r": 65, "grid_n": 129}


def power_profile(x):
    import numpy as np

    return (1.0 / P) * np.abs(x) ** P


def one_round_specs(seed: int, per_regime: int):
    """(regime, spec) pairs drawn from ``seed``: profiles from the family each
    closed form covers, states with ||theta|| <= 3 in d = 2, G in [0.3, 2]."""
    import numpy as np
    from minimax_online.core import make_rng
    from minimax_online.one_round import ORTHOGONAL, PARALLEL, OneRoundSpec

    rng = make_rng(seed)
    specs = []
    for regime in (ORTHOGONAL, PARALLEL):
        for _ in range(per_regime):
            r = float(rng.uniform(0.0, 3.0))
            G = float(rng.uniform(0.3, 2.0))
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            theta = r * np.array([math.cos(angle), math.sin(angle)])
            if regime == ORTHOGONAL:
                p, W, c = (float(rng.uniform(*b)) for b in ((1.0, 2.0), (0.3, 3.0), (0.0, 4.0)))
                h = lambda x, W=W, p=p, c=c: (W / p) * (x * x + c) ** (p / 2.0)
            elif rng.random() < 0.5:
                c2, b0 = float(rng.uniform(2.0, 10.0)), float(rng.uniform(0.2, 2.0))
                h = lambda x, b0=b0, c2=c2: b0 * np.exp(x * x / (2.0 * c2))
            else:
                pp = float(rng.uniform(2.0, 4.0))
                h = lambda x, pp=pp: np.abs(x) ** pp
            specs.append((regime, OneRoundSpec(h=h, theta=theta, G=G)))
    return specs


def oracle_job(seed: int, quick: bool, tracer) -> dict:
    """Every oracle call of the workload; each result is a value or an error."""
    from minimax_online import one_round, oracles

    specs = one_round_specs(seed, QUICK["per_regime"] if quick else ONE_ROUND_PER_REGIME)
    grids = {"n_r": QUICK["n_r"], "grid_n": QUICK["grid_n"]} if quick else {}

    def attempt(fn):
        try:
            return {"value": float(fn())}
        except Exception as exc:  # every failure is counted by the parent
            return {"error": f"{type(exc).__name__}: {exc}"}

    result = {"p": P, "recursions": [], "one_round": []}
    for dim, T in QUICK["recursions"] if quick else RECURSIONS:
        spec = oracles.RecursionSpec(f=power_profile, G=1.0, T=T, dim=dim, **grids)
        with tracer.span(f"bench.recursion_{dim}d", unit=True):
            out = attempt(lambda: oracles.conditional_value_recursive(spec, 0, [0.0] * dim))
        result["recursions"].append({"dim": dim, "T": T, "G": 1.0, **out})
    for regime, spec in specs:
        with tracer.span("bench.one_round", unit=True):
            closed = attempt(lambda: (one_round.solve_orthogonal(spec) if regime == "orthogonal"
                                      else one_round.solve_parallel(spec)).value)
            grid = attempt(lambda: one_round.solve_scalar_grid(spec))
        result["one_round"].append({"regime": regime, "closed": closed, "grid": grid})
    return result


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--spec")
    p_setup.add_argument("--oracle", action="store_true")
    p_setup.add_argument("--seed", type=int, default=0)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("spans")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_oracle = sub.add_parser("oracle")
    p_oracle.add_argument("--seed", type=int, required=True)
    p_oracle.add_argument("--out", required=True)
    p_oracle.add_argument("--spans")
    p_oracle.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        if args.oracle:
            from minimax_online import one_round, oracles  # noqa: F401
            one_round_specs(args.seed, ONE_ROUND_PER_REGIME)
        else:
            from minimax_online import cli
            cli.parse_experiment_spec(args.spec)
        return 0

    if args.mode == "cli":
        tracer = Tracer()
        try:
            with tracer.span("import"):
                from minimax_online import cli
            instrument_cli(tracer)
            return cli.main(args.argv)
        finally:
            tracer.dump(args.spans)

    tracer = Tracer() if args.spans else NullTracer()
    try:
        with tracer.span("import"):
            from minimax_online import one_round, oracles  # noqa: F401
        if args.spans:
            instrument_oracles(tracer)
        result = oracle_job(args.seed, args.quick, tracer)
    finally:
        if args.spans:
            tracer.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
