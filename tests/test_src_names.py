"""Every function, class and method in ``src/tetravol`` has a caller.

A name counts as used when the package refers to it (a name, an
attribute or an import) or when the benchmark harness under
``perfbench/`` does (a name, an attribute, or a string, since its tracer
binds some names by string).  Test-only helpers and oracles belong in
``tests/``.  The allowlist holds the names that wait for a caller from
an open ROADMAP item.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WAITING_FOR_A_CALLER = {
    "volume_scaled": "ROADMAP item 4, exact partition proof",
    "serialize": "ROADMAP item 12, the polynomial digest",
    "point_image": "ROADMAP item 13, negative certificates as points",
    "symmetry_cover": "ROADMAP item 14, region cover and symmetry",
}


def _definitions(tree):
    """(name, line) of every function, class and method in a module."""
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def _references(tree, strings):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out.add(node.value)
    return out


def _unused():
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "tetravol").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(name, "%s:%d" % (path.name, line))
                    for name, line in _definitions(tree)
                    if not (name.startswith("__") and name.endswith("__"))]
        used |= _references(tree, strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _references(ast.parse(path.read_text()), strings=True)
    return {name: where for name, where in defined if name not in used}


def test_every_src_name_has_a_caller_or_waits_for_one():
    unused = _unused()
    assert {name: where for name, where in unused.items()
            if name not in WAITING_FOR_A_CALLER} == {}
    # an allowlisted name that found a caller leaves the list
    assert set(WAITING_FOR_A_CALLER) <= set(unused)
