"""No module in src/opcalc imports a name it never uses, and no module
defines a private name that nothing in src/opcalc reads.

No linter is part of the toolchain, and deleting a function tends to
leave its imports and its private helpers behind; this walks every module
with the stdlib ast.  An import counts as used when the module reads it,
lists it in __all__, or marks the import line ``noqa: F401`` (a
deliberate re-export).  A module-level ``_private`` definition counts as
used when another top-level statement of some module reads it: tests do
not keep a private helper alive, and neither does its own recursion."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "opcalc").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "Optional[Node]"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unused_private_names(sources: dict) -> list:
    """Module-level _private names in *sources* ({module: text}) that no
    other top-level statement of any module reads."""
    readers = []  # (module, statement index, names it reads)
    defined = []  # (module, statement index, name, line)
    for module, source in sources.items():
        for index, node in enumerate(ast.parse(source).body):
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    names |= {alias.name for alias in sub.names}
            readers.append((module, index, names))
            defined += [(module, index, name, node.lineno) for name in _defined_names(node)
                        if name.startswith("_") and not name.startswith("__")]
    return sorted(f"{module}: {name} (line {line})" for module, index, name, line in defined
                  if not any(name in names for other, at, names in readers
                             if (other, at) != (module, index)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unused_private_names():
    assert unused_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_the_check_sees_an_unused_private_name():
    sources = {"a.py": "def _used():\n    pass\n\n\ndef _recursive():\n"
                       "    return _recursive()\n\n\n_TABLE = {}\n",
               "b.py": "from .a import _used\nX = _used\n"}
    assert unused_private_names(sources) == ["a.py: _TABLE (line 9)",
                                             "a.py: _recursive (line 5)"]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") \
        == ["math (line 1)", "path (line 2)"]
