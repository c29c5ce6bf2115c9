"""Import hygiene of the library: every import sits at module level and
every imported name is used.  ``__init__.py`` re-exports names, so only
the placement rule applies to it."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sessprog"


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
