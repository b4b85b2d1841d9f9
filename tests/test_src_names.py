"""Every function, class and method in ``src/tetravol`` has a caller.

A method counts as used only through an attribute access of its name,
in the package or in the benchmark harness under ``perfbench/``, or
through a string in the harness, since its tracer binds some names by
string.  A module-level function or class, or a nested function, counts
as used through a name load, an import, an attribute access or a
harness string.  So a method never passes by sharing its spelling with
a local, and a function never by sharing it with a stored name.
Test-only helpers and oracles belong in ``tests/``.  The allowlist
holds the names that wait for a caller from an open ROADMAP item.
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

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(name, line, member) of every function, class and method in a
    module; member is true for what a class body defines."""
    members = {id(item) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body}
    return [(node.name, node.lineno, id(node) in members)
            for node in ast.walk(tree) if isinstance(node, DEFINITIONS)]


def _references(tree, strings):
    """(names loaded or imported, attribute names) of a module; with
    strings, its string constants count as both."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1]
                         for alias in node.names)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
            attrs.add(node.value)
    return names, attrs


def _unused(package, harness):
    """{name: "file:line"} of each definition in package that neither
    package nor harness uses; both map a file name to its source."""
    defined, names, attrs = [], set(), set()
    for sources, strings in ((package, False), (harness, True)):
        for source in sources.values():
            more_names, more_attrs = _references(ast.parse(source), strings)
            names |= more_names
            attrs |= more_attrs
    for path, source in package.items():
        defined += [(name, "%s:%d" % (path, line), member)
                    for name, line, member in _definitions(ast.parse(source))
                    if not (name.startswith("__") and name.endswith("__"))]
    return {name: where for name, where, member in defined
            if name not in (attrs if member else names | attrs)}


def _sources(directory):
    return {path.name: path.read_text()
            for path in sorted((ROOT / directory).glob("*.py"))}


def test_every_src_name_has_a_caller_or_waits_for_one():
    unused = _unused(_sources("src/tetravol"), _sources("perfbench"))
    assert {name: where for name, where in unused.items()
            if name not in WAITING_FOR_A_CALLER} == {}
    # an allowlisted name that found a caller leaves the list
    assert set(WAITING_FOR_A_CALLER) <= set(unused)


def test_a_shared_spelling_is_no_caller():
    module = ("class Poly:\n"
              "    def coefficient(self):\n"
              "        pass\n"
              "    def evaluate(self):\n"
              "        coefficient = 1\n"
              "        return coefficient\n"
              "def _det4(m):\n"
              "    pass\n"
              "def g(point):\n"
              "    _det4 = 0\n"
              "    return Poly().evaluate()\n")
    # a local named like a method or function calls neither
    assert _unused({"m.py": module}, {}) == {
        "coefficient": "m.py:2", "_det4": "m.py:7", "g": "m.py:9"}
    # a method needs an attribute access; a function may be called by name
    caller = "from m import g\nd = _det4\ncoefficient()\n"
    assert _unused({"m.py": module, "c.py": caller}, {}) == {
        "coefficient": "m.py:2"}
    # the harness may bind either by string
    assert _unused({"m.py": module},
                   {"t.py": "BOUND = ('coefficient', '_det4', 'g')"}) == {}
