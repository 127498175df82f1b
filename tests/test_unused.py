"""A guard against unused code: every top-level public name of the package,
and every public method or property of its classes, has a caller in the
package, or a reason on the allow-list below; and every setting, a defaulted
parameter or field, is set by a call in the package, or has a reason on the
settings allow-list."""

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


# module.function(parameter), module.Class.method(parameter) or module.Class.field -> why the
# default stays settable although no call in src sets it
ALLOWED_SETTINGS = {
    "cli.main(argv)": "the console script calls main() on sys.argv; the tests pass their own argument lists",
    "engine.comparator_grid(norms)": "the README example and tests/test_falsifier.py draw their comparators "
                                     "with comparator_grid, which nothing in src calls",
    "engine.comparator_grid(directions)": "as engine.comparator_grid(norms)",
}


def _defaulted(args: ast.arguments, skip: int) -> list:
    """(position, name) of each parameter with a default, the position counted after the first skip
    parameters (self) and None for a keyword-only one."""
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    return ([(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None])


def unset_settings() -> set:
    """The key, as in ALLOWED_SETTINGS, of each defaulted parameter of a
    public function or method (a class's ``__init__`` is called by the
    class's name) and each defaulted field of a public class of the package
    that no module but __init__ sets: a call to that name sets it by keyword
    or by position, or a string names it, as ``unused_public_names`` counts
    names (the spec parser passes entry keys by string)."""
    settings, set_by, strings = {}, set(), set()
    for path in sorted(Path(minimax_online.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        fields = {}  # class -> its annotated fields, its bases' first
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                settings.update({f"{path.stem}.{node.name}({name})": (node.name, i, name)
                                 for i, name in _defaulted(node.args, 0)})
            elif isinstance(node, ast.ClassDef):
                fields[node.name] = sum((fields.get(ast.unparse(base), []) for base in node.bases), []) + [
                    item for item in node.body if isinstance(item, ast.AnnAssign)]
                if node.name.startswith("_"):
                    continue
                settings.update({f"{path.stem}.{node.name}.{item.target.id}": (node.name, i, item.target.id)
                                 for i, item in enumerate(fields[node.name]) if item.value is not None})
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or item.name[0] != "_"):
                        callee = node.name if item.name == "__init__" else item.name
                        settings.update({f"{path.stem}.{node.name}.{item.name}({name})": (callee, i, name)
                                         for i, name in _defaulted(item.args, 1)})
        if path.stem != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    given = next((i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)),
                                 len(node.args))
                    set_by.update((callee, i) for i in range(given))
                    set_by.update((callee, keyword.arg) for keyword in node.keywords)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    strings.add(node.value)
    return {key for key, (callee, i, name) in settings.items()
            if (callee, i) not in set_by and (callee, name) not in set_by and name not in strings}


def test_every_setting_has_a_caller_or_a_reason():
    # a setting that nothing sets becomes a constant (or gains a reason here); a
    # listed setting that gained a caller leaves the list
    assert unset_settings() == set(ALLOWED_SETTINGS)
