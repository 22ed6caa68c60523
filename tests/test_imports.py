"""Every module-level import in src/lpsq is used by its module.

A name counts as used when the module loads it anywhere (code or
annotation, quoted annotations included) or lists it in ``__all__``.  The
relative imports of a package ``__init__`` are its exports.  Import lines
marked ``# noqa`` are skipped.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lpsq"


def _module_imports(body):
    """(line, bound name, relative) of the imports outside function and class bodies."""
    for node in body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield node.lineno, a.asname or a.name.split(".")[0], False
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield node.lineno, a.asname or a.name, node.level > 0
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, getattr(node, "orelse", []),
                          getattr(node, "finalbody", []),
                          *[h.body for h in getattr(node, "handlers", [])]):
                yield from _module_imports(block)


def _used_names(tree) -> set:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return used


def _unused_imports(path: pathlib.Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = _used_names(tree)
    out = []
    for lineno, name, relative in _module_imports(tree.body):
        if "# noqa" in lines[lineno - 1]:
            continue
        if relative and path.name == "__init__.py":
            continue
        if name not in used:
            out.append(f"{path.name}:{lineno}: {name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def test_checker_finds_an_unused_import(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("import os\nimport sys  # noqa: F401\nfrom typing import Sequence\n"
                 "from math import pi\n\n"
                 "def f(x: 'Sequence') -> float:\n    return pi\n")
    assert _unused_imports(p) == ["mod.py:1: os"]
