"""A guard against unused code: every top-level public name of the package,
and every public method or property of its classes, has a caller in the
package, or a reason on the allow-list below."""

import ast
from pathlib import Path

import minimax_online

# module.name -> why it stays in src although nothing in src calls it
ALLOWED = {
    "engine.run_game": "perfbench/tracing.py wraps cli.run_game by name; scripts/zero_reward_duel.py and the "
                       "README example play one run with it",
    "engine.comparator_grid": "the README example and tests/test_falsifier.py draw their comparators with it",
    "oracles.rademacher_smoothing_exact": "perfbench/checks.py pins the d = 1 recursion values to it",
    "engine.Trace.reward": "the README example and scripts/zero_reward_duel.py print it",
}


def unused_public_names() -> set:
    """module.name for each top-level public function, class or assigned name
    of a module of the package, and module.Class.name for each public method
    or property of a top-level class, that no module but __init__ mentions:
    as a name, an attribute, or a string (``cli.SUITES`` names the check
    suites by string).  An import is not a use, and neither is
    ``__init__``'s export table."""
    defined, used = {}, set()
    for path in sorted(Path(minimax_online.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            else:
                names = []
            defined.update({f"{path.stem}.{name}": name for name in names if not name.startswith("_")})
            if isinstance(node, ast.ClassDef):
                defined.update({f"{path.stem}.{node.name}.{item.name}": item.name for item in node.body
                                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")})
        if path.stem != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return {key for key, name in defined.items() if name not in used}


def test_every_public_name_has_a_caller_or_a_reason():
    # a name that lost its last caller leaves src (or gains a reason here); a
    # listed name that gained a caller leaves the list
    assert unused_public_names() == set(ALLOWED)
