"""Every function and method in src/liechar is reached from the package.

A non-dunder function or method name must appear as a Name or an Attribute
somewhere in src/liechar outside its own definition (a recursive call does
not count).  The few names kept on purpose without a caller in the package
are listed below, each with the reason it stays.
"""

import ast
import os

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "liechar"
)

KEPT_ON_PURPOSE = {
    # The Freudenthal reference in the tests.
    "dominant_weights_below",
    # The benchmark self-test and the dimension oracles.
    "weyl_dimension",
    # The JSON schema of a character, the inverse of from_json_dict.
    "to_json_dict",
}


def _sources():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                yield name, ast.parse(f.read(), filename=name)


def _unreached():
    """(file, line, name) of each definition whose name is used nowhere else."""
    definitions, uses = [], []
    for name, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((name, node))
            elif isinstance(node, ast.Name):
                uses.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((name, node.lineno, node.attr))
    unreached = []
    for name, node in definitions:
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if not any(
            used == node.name and not (where == name and line in own)
            for where, line, used in uses
        ):
            unreached.append((name, node.lineno, node.name))
    return unreached


def test_every_function_is_reached():
    unreached = [
        f"{name}:{line} {func}"
        for name, line, func in _unreached()
        if func not in KEPT_ON_PURPOSE
    ]
    assert not unreached, "no caller in src/liechar: " + ", ".join(unreached)


def test_kept_names_are_defined_and_still_unreached():
    # A kept name that gains a caller, or is deleted, leaves the list.
    assert KEPT_ON_PURPOSE <= {name for _, _, name in _unreached()}
