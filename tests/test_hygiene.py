"""Hygiene of the library: every import sits at module level and every
imported name is used (``__init__.py`` re-exports names, so only the
placement rule applies to it), every module-level function and class
is used somewhere outside its own body, every defaulted parameter is
passed by some call, the recursive functions are the ones pinned in
``RECURSIVE``, no handler but the command line's last one catches every
exception, no module holds a mutable container or counter but those in
``MODULE_STATE``, and every function the benchmark's tracer wraps by
name exists."""

import ast
import importlib
import inspect
import json
import math
import pathlib
import subprocess
import sys
from collections import Counter

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "sessprog"
# where a library definition may be used
USERS = [REPO / d for d in ("src", "tests", "bench", "scripts")]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _call_sites(users: list) -> tuple:
    """Over every file under ``users``: for each called name, the most
    positional arguments one call passes and the keywords calls pass
    (``*args`` and ``**kwargs`` count as passing them all); and the names
    used other than as a callee."""
    positional: Counter = Counter()
    keywords: dict = {}
    values: set = set()
    for root in users:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            callees = set()
            for n in ast.walk(tree):
                if isinstance(n, ast.Call):
                    callees.add(id(n.func))
                    name = getattr(n.func, "id", getattr(n.func, "attr", None))
                    starred = any(isinstance(a, ast.Starred) for a in n.args)
                    positional[name] = max(positional[name], math.inf if starred else len(n.args))
                    keywords.setdefault(name, set()).update(k.arg or "**" for k in n.keywords)
            values |= {
                getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(tree)
                if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in callees
            }
    return positional, keywords, values


def unpassed_defaults(modules: list, users: list) -> list:
    """The defaulted parameters of the module-level functions and methods
    of ``modules`` that no call under ``users`` passes, by position or by
    keyword.  Calls are matched by name, and an ``__init__`` by its
    class's name.  A function passed by name (a fold's node function)
    may be called with any arguments, so it is left out."""
    positional, keywords, values = _call_sites(users)
    found = []
    for path in modules:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            defs = [(node, node.name, node.name, 0)] if isinstance(node, _DEFS) else []
            if isinstance(node, ast.ClassDef):
                defs = [
                    (f, f"{node.name}.{f.name}", node.name if f.name == "__init__" else f.name, 1)
                    for f in node.body if isinstance(f, _DEFS)
                ]
            for f, qual, name, skip in defs:  # skip: a method's self, never passed
                if name in values:
                    continue
                a = f.args
                params = a.posonlyargs + a.args
                # each defaulted parameter, after how many positional arguments a call passes it
                defaulted = [(k - skip, p) for k, p in enumerate(params)][len(params) - len(a.defaults):]
                defaulted += [(math.inf, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
                for k, p in defaulted:
                    kws = keywords.get(name, ())
                    if positional[name] <= k and p.arg not in kws and "**" not in kws:
                        found.append(f"{path.name}:{f.lineno}: {qual}({p.arg}) is never passed")
    return found


def test_every_default_is_overridden_somewhere():
    assert unpassed_defaults(_modules(), USERS) == []


def test_the_check_catches_unpassed_defaults(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n\n"
        "def node(x, left=0, right=0):\n    return x\n\n\n"
        "def spread(a=1, b=2):\n    return a\n\n\n"
        "class C:\n    def __init__(self, a, b=1):\n        self.a = a\n\n"
        "    def m(self, k=0):\n        return k\n"
    )
    (tmp_path / "user.py").write_text(
        "import lib\n\n"
        "lib.f(0, 1, d=2)\nlib.C(0).m()\nlib.spread(*[1, 2])\nFOLD = [lib.node]\n"
    )
    assert unpassed_defaults([lib], [tmp_path]) == [
        "lib.py:1: f(c) is never passed",
        "lib.py:1: f(e) is never passed",
        "lib.py:14: C.__init__(b) is never passed",
        "lib.py:17: C.m(k) is never passed",
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


def broad_handlers(paths: list) -> list:
    """Every bare ``except`` and every handler of ``Exception`` or
    ``BaseException`` in ``paths``, but the last handler of ``main`` in
    ``cli.py``: a handler that catches every fault turns a crash into a
    verdict or a message, so only the last resort of the command line,
    which exits with its own code, may have one."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        last = {
            id(t.handlers[-1]) for f in tree.body
            if isinstance(f, ast.FunctionDef) and f.name == "main" and path.name == "cli.py"
            for t in f.body if isinstance(t, ast.Try)
        }
        for h in ast.walk(tree):
            if isinstance(h, ast.ExceptHandler) and id(h) not in last:
                caught = h.type.elts if isinstance(h.type, ast.Tuple) else [h.type]
                if any(c is None or getattr(c, "id", None) in ("Exception", "BaseException") for c in caught):
                    found.append(f"{path.name}:{h.lineno}: catches every exception")
    return found


def test_no_handler_catches_every_exception():
    assert broad_handlers(_modules()) == []


def test_the_check_catches_broad_handlers(tmp_path):
    cli = tmp_path / "cli.py"
    cli.write_text(
        "def main():\n"
        "    try:\n        return 0\n"
        "    except Exception:\n        return 1\n"
        "    except (ValueError, BaseException):\n        return 2\n"
        "    except Exception:\n        return 4\n\n\n"
        "def f():\n"
        "    try:\n        return 0\n"
        "    except Exception:\n        return 1\n"
        "    except:\n        return 4\n"
    )
    other = tmp_path / "lib.py"
    other.write_text(cli.read_text())
    assert broad_handlers([cli, other]) == [
        "cli.py:4: catches every exception",
        "cli.py:6: catches every exception",
        "cli.py:15: catches every exception",
        "cli.py:17: catches every exception",
        "lib.py:4: catches every exception",
        "lib.py:6: catches every exception",
        "lib.py:8: catches every exception",
        "lib.py:15: catches every exception",
        "lib.py:17: catches every exception",
    ]


_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTABLE_CALLS = {"dict", "list", "set", "count"}  # ``count`` of ``itertools``


def _mutable(value) -> bool:
    """Whether an expression builds a mutable container or a counter: a
    dict, list or set display or comprehension, a call of ``dict``,
    ``list``, ``set`` or ``itertools.count``, or a tuple holding one."""
    if isinstance(value, ast.Tuple):
        return any(map(_mutable, value.elts))
    if isinstance(value, ast.Call):
        return getattr(value.func, "id", getattr(value.func, "attr", None)) in _MUTABLE_CALLS
    return isinstance(value, _MUTABLE_DISPLAYS)


def module_state(paths: list) -> set:
    """``module:name`` for every name that a module, or a class at its
    top level, binds to a mutable container or counter (``__all__``, the
    export list, aside).  Such a value outlives every call, so a memo
    kept there would leak from one exploration into the next."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _own_nodes(tree):
            scope = node.body if isinstance(node, ast.ClassDef) else [node]
            for stmt in scope:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and _mutable(stmt.value):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    found |= {f"{path.stem}:{n.id}" for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return found - {f"{path.stem}:__all__" for path in paths}


# The one module-level counter of the library: ``gen`` draws its fresh
# names from ``_uid`` until they are drawn per call (ROADMAP item 6).
MODULE_STATE = {"gen:_uid"}


def test_no_module_holds_mutable_state():
    assert module_state(_modules()) == MODULE_STATE


def test_the_check_catches_module_state(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "import itertools\nfrom itertools import count\n\n"
        "__all__ = ['f']\nA = {}\nB = [1]\nC = {1}\nD = dict()\nE = list()\nF = set()\n"
        "G = itertools.count()\nH = count()\nI = {k: 0 for k in 'ab'}\nJ = (1, [2])\nK, L = [], 0\n"
        "M: dict = {}\nN = frozenset({1})\nO = (1, 2)\nP = tuple([1])\n\n\n"
        "class Q:\n    r = []\n    s = ()\n\n    def f(self):\n        t = []\n        return t\n\n\n"
        "def f():\n    u = {}\n    return u\n"
    )
    assert module_state([lib]) == {f"lib:{n}" for n in "ABCDEFGHIJKLMr"}


def tracer_targets(path: pathlib.Path) -> tuple:
    """The ``TARGETS`` tuple of the benchmark's tracer, read without
    running the tracer module."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TARGETS in {path}")


def test_every_traced_function_exists():
    # the traced benchmark run replaces sessprog.<module>.<attribute> with a
    # wrapper and stops at the first one that is missing
    targets = tracer_targets(REPO / "bench" / "tracer.py")
    assert len(targets) >= 10
    missing = [
        f"{module}.{attr}" for module, attr, _span in targets
        if not inspect.isfunction(getattr(importlib.import_module(f"sessprog.{module}"), attr, None))
    ]
    assert missing == []


TRACE_EXPLORATION = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from sessprog import semantics, syntax
import tracer
trace = tracer.Tracer(keep_spans=0)
trace.install()
p = syntax.parse_program(open(sys.argv[3]).read()).process
r = semantics.reachable(semantics.canonicalize(semantics.approximant(p, 3)))
print(json.dumps([len(r.states), trace.snapshot()["counts"].get("semantics.step.calls", 0)]))
"""


def test_the_traced_step_span_sees_every_explored_state():
    # the benchmark's per-layer metric semantics.step.calls counts the
    # states an exploration steps; it is taken in a fresh interpreter,
    # since the tracer replaces library functions for good
    out = subprocess.run(
        [sys.executable, "-c", TRACE_EXPLORATION, str(REPO / "src"), str(REPO / "bench"),
         str(REPO / "corpus" / "forwarder.ssp")],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    states, step_calls = json.loads(out.stdout)
    assert states > 10 and step_calls == states
