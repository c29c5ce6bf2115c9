"""Hygiene of the library: every import sits at module level and every
imported name is used (``__init__.py`` re-exports names, so only the
placement rule applies to it), every module-level function and class
is used somewhere outside its own body, and the recursive functions are
the ones pinned in ``RECURSIVE``."""

import ast
import pathlib
from collections import Counter

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "sessprog"
# where a library definition may be used
USERS = [REPO / d for d in ("src", "tests", "bench", "scripts")]


def _modules():
    return sorted(SRC.glob("*.py"))


def _imported(node):
    """(bound name, shown name) for each alias of an import statement."""
    for alias in node.names:
        bound = alias.asname or alias.name.split(".")[0]
        yield bound, alias.name


def import_problems(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
            problems.append(f"{path.name}:{node.lineno}: import inside a block")
    if path.name == "__init__.py":
        return problems
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for bound, shown in _imported(node):
                if bound not in used:
                    problems.append(f"{path.name}:{node.lineno}: unused import {shown}")
    return problems


def test_imports_are_module_level_and_used():
    assert _modules(), SRC
    problems = [p for path in _modules() for p in import_problems(path)]
    assert problems == []


def test_the_check_catches_both_faults(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\nimport sys\n\n\ndef f():\n    import json\n    return sys.argv, json\n")
    assert import_problems(bad) == ["bad.py:6: import inside a block", "bad.py:1: unused import os"]


def _references(node) -> Counter:
    """How often each name is referenced under ``node``: names,
    attributes, import aliases and identifier-like string constants (the
    benchmark's tracer names the functions it wraps as strings)."""
    refs: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            refs[n.value] += 1
    return refs


def dead_definitions(modules: list, users: list) -> list:
    """Module-level functions and classes of ``modules`` that no file
    under ``users`` references outside the definition's own body."""
    used: Counter = Counter()
    for root in users:
        for path in sorted(root.rglob("*.py")):
            used += _references(ast.parse(path.read_text(), filename=str(path)))
    dead = []
    for path in modules:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if used[node.name] <= _references(node)[node.name]:
                    dead.append(f"{path.name}:{node.lineno}: {node.name} is never used")
    return dead


def test_every_definition_is_used():
    assert dead_definitions(_modules(), USERS) == []


def test_the_check_catches_dead_definitions(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def used():\n    return 1\n\n\n"
        "def by_name():\n    return 2\n\n\n"
        "def only_itself(n):\n    return only_itself(n - 1) if n else used()\n\n\n"
        "class Never:\n    pass\n"
    )
    (tmp_path / "user.py").write_text("import lib\n\nTARGETS = ('by_name',)\n")
    assert dead_definitions([lib], [tmp_path]) == [
        "lib.py:9: only_itself is never used",
        "lib.py:13: Never is never used",
    ]


def _own_nodes(node):
    """The nodes under ``node`` outside any function or class it defines
    (the definitions themselves included)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(n))


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reference_graph(tree) -> dict:
    """For each function of a module, nested functions and methods
    included, the functions of that module it names: by a call, as a
    ``self.`` method, or passed by name (``map(f, ...)``)."""
    graph: dict = {}

    def add(fn, qual, scope, methods):
        own = list(_own_nodes(fn))
        scope = {**scope, **{n.name: f"{qual}.{n.name}" for n in own if isinstance(n, _DEFS)}}
        graph[qual] = {scope[n.id] for n in own if isinstance(n, ast.Name) and n.id in scope}
        graph[qual] |= {
            methods[n.attr] for n in own
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id == "self" and n.attr in methods
        }
        for n in own:
            if isinstance(n, _DEFS):
                add(n, scope[n.name], scope, methods)

    top = {n.name: n.name for n in tree.body if isinstance(n, _DEFS)}
    for node in tree.body:
        if isinstance(node, _DEFS):
            add(node, node.name, top, {})
        elif isinstance(node, ast.ClassDef):
            methods = {f.name: f"{node.name}.{f.name}" for f in node.body if isinstance(f, _DEFS)}
            for f in node.body:
                if isinstance(f, _DEFS):
                    add(f, methods[f.name], top, methods)
    return graph


def recursive_functions(paths: list) -> set:
    """``module:function`` for every function that lies on a cycle of
    references within its module."""
    found = set()
    for path in paths:
        graph = _reference_graph(ast.parse(path.read_text(), filename=str(path)))
        for fn in graph:
            seen, todo = set(), list(graph[fn])
            while todo and fn not in seen:
                g = todo.pop()
                if g not in seen:
                    seen.add(g)
                    todo.extend(graph[g])
            if fn in seen:
                found.add(f"{path.stem}:{fn}")
    return found


# Every recursive function of the library.  The folds, maps, printers
# and keys run on the iterative traversal kernel of ``syntax``, and the
# parser and the type checker on explicit stacks, so none of them is
# bounded by the recursion limit.  What is left are ``gen``'s helpers:
# they build test corpora and recurse only to the depth they are asked
# for.  A function that stops recursing leaves this list.
RECURSIVE = {"gen:gen_finite.go", "gen:gen_subst_pair.go", "gen:gen_type.go"}


def test_recursion_inventory():
    assert recursive_functions(_modules()) == RECURSIVE


def test_the_inventory_catches_each_kind_of_recursion(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def walk(t):\n    return list(map(walk, t))\n\n\n"
        "def even(n):\n    return n == 0 or odd(n - 1)\n\n\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n\n\n"
        "def outer(t):\n    def go(u):\n        return [go(c) for c in u]\n\n    return go(t)\n\n\n"
        "def flat(t):\n    return walk(t) + [even(len(t))]\n\n\n"
        "class P:\n    def a(self):\n        return self.b()\n\n    def b(self):\n        return self.a()\n\n"
        "    def c(self):\n        return self.a()\n"
    )
    assert recursive_functions([lib]) == {
        "lib:walk", "lib:even", "lib:odd", "lib:outer.go", "lib:P.a", "lib:P.b",
    }
