"""Every module-level import in src/lpsq is used by its module, and every
definition in src/lpsq is reached by the package or the benchmark.

No module of src/lpsq imports scipy at module level, and the CLI campaigns
load none of the scipy submodules whose import took ~0.7 s a process.

A name counts as used when the module loads it anywhere (code or
annotation, quoted annotations included) or lists it in ``__all__``.  The
relative imports of a package ``__init__`` are its exports.  Import lines
marked ``# noqa`` are skipped.

A module-level function or class, or a method other than a dunder, is
reached when some file of src/lpsq or perfbench names it: as a name, as an
attribute, or as a dotted part of a string constant outside ``__all__``
(perfbench's span table names its targets as strings).  ``__all__`` and
the package ``__init__``'s re-exports do not count, so a name only tests
call is unreached.

A field of a ``@dataclass`` in src/lpsq is read when some file of src/lpsq
or perfbench loads it as an attribute or names it as a dotted part of a
string constant.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lpsq"

# definitions no file in src/lpsq or perfbench reaches, kept on purpose
UNREACHED_OK = {
    "cli_run": "entry point for running a config file, called by users",
    "log_dini_integral": "the log-Dini constant the Dini-dependence sweep reports",
}

# dataclass fields no file in src/lpsq or perfbench reads, kept on purpose
UNREAD_OK = {
    "FitReport.details": "test_harness reads its degenerate flag",
}


def _import_nodes(body):
    """The import statements outside function and class bodies."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, getattr(node, "orelse", []),
                          getattr(node, "finalbody", []),
                          *[h.body for h in getattr(node, "handlers", [])]):
                yield from _import_nodes(block)


def _module_imports(body):
    """(line, bound name, relative) of the imports outside function and class bodies."""
    for node in _import_nodes(body):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield node.lineno, a.asname or a.name.split(".")[0], False
        elif node.module != "__future__":
            for a in node.names:
                yield node.lineno, a.asname or a.name, node.level > 0


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


def _scipy_imports(body):
    """(line, module) of the scipy imports outside function and class bodies."""
    for node in _import_nodes(body):
        mods = ([a.name for a in node.names] if isinstance(node, ast.Import)
                else [node.module] if node.level == 0 else [])
        yield from ((node.lineno, m) for m in mods if m.split(".")[0] == "scipy")


def test_no_module_level_scipy_import():
    found = [f"{p.name}:{line}: {mod}" for p in sorted(SRC.glob("*.py"))
             for line, mod in _scipy_imports(ast.parse(p.read_text()).body)]
    assert found == []


def test_checker_finds_a_scipy_import(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("import scipy.signal\nfrom scipy import ndimage\nimport scipyx\n"
                 "if True:\n    from scipy.stats import norm\n\n"
                 "def f():\n    import scipy\n")
    assert list(_scipy_imports(ast.parse(p.read_text()).body)) == [
        (1, "scipy.signal"), (2, "scipy"), (5, "scipy.stats")]


# run in a fresh interpreter: the modules every campaign's process loads
_CAMPAIGNS_CHILD = """
import json, os, sys
import lpsq.cli

out, campaigns = sys.argv[1], json.loads(sys.argv[2])
for i, args in enumerate(campaigns):
    args = [a.replace("{out}", out) for a in args]
    assert lpsq.cli.main(["--out-dir", os.path.join(out, str(i)), *args]) == 0, args
print(json.dumps(sorted(sys.modules)))
"""


def test_campaigns_load_no_heavy_scipy_module(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import CAMPAIGNS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    # every campaign of the cli workload; the first writes the family
    family = os.path.join("{out}", "0", "sparse_family.json")
    campaigns = [["sparse", "--R", "2", "--h", "0.25"]] + [
        args + (["--family", family] if args[:2] == ["verify", "sparse"] else [])
        for args in CAMPAIGNS.values()]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", _CAMPAIGNS_CHILD, str(tmp_path),
                        json.dumps(campaigns)],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    heavy = [m for m in json.loads(r.stdout.splitlines()[-1])
             if m.startswith(("scipy.ndimage", "scipy.signal.", "scipy.stats",
                              "scipy.integrate"))]
    assert heavy == []


def _definitions(tree):
    """(line, name) of the module-level functions and classes and of the
    non-dunder methods of module-level classes."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs + (ast.ClassDef,)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.lineno, item.name


def _references(tree) -> set:
    """Names, attributes and the dotted parts of string constants outside
    ``__all__``."""
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(map(id, ast.walk(node.value)))
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported):
            refs.update(node.value.split("."))
    return refs


def _unreached_definitions(sources, readers, allowed=()) -> list:
    """The definitions in the files ``sources`` that no file of ``readers``
    names, other than ``allowed``."""
    refs = set().union(*(_references(ast.parse(p.read_text())) for p in readers))
    return [f"{p.name}:{line}: {name}" for p in sources
            for line, name in _definitions(ast.parse(p.read_text()))
            if name not in refs and name not in allowed]


def test_every_definition_is_reached():
    sources = sorted(SRC.glob("*.py"))
    readers = sources + sorted((ROOT / "perfbench").glob("*.py"))
    assert _unreached_definitions(sources, readers, UNREACHED_OK) == []


def test_checker_finds_an_unreached_definition(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("__all__ = ['unused', 'Used']\n\n"
                 "def unused():\n    pass\n\n"
                 "def by_string():\n    pass\n\n"
                 "def kept():\n    pass\n\n"
                 "class Used:\n"
                 "    def __init__(self):\n        self.helper()\n\n"
                 "    def helper(self):\n        pass\n\n"
                 "    def orphan(self):\n        pass\n\n"
                 "TARGETS = ['mod.by_string']\n"
                 "x = Used()\n")
    assert _unreached_definitions([p], [p], {"kept"}) == [
        "mod.py:3: unused", "mod.py:19: orphan"]


def _dataclass_fields(tree):
    """(line, class.field) of the annotated fields of module-level @dataclass classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.lineno, f"{node.name}.{item.target.id}"


def _reads(tree) -> set:
    """Attributes loaded and the dotted parts of string constants."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.update(node.value.split("."))
    return reads


def _unread_fields(sources, readers, allowed=()) -> list:
    """The dataclass fields in the files ``sources`` that no file of
    ``readers`` reads, other than ``allowed``."""
    reads = set().union(*(_reads(ast.parse(p.read_text())) for p in readers))
    return [f"{p.name}:{line}: {name}" for p in sources
            for line, name in _dataclass_fields(ast.parse(p.read_text()))
            if name.split(".")[1] not in reads and name not in allowed]


def test_every_dataclass_field_is_read():
    sources = sorted(SRC.glob("*.py"))
    readers = sources + sorted((ROOT / "perfbench").glob("*.py"))
    assert _unread_fields(sources, readers, UNREAD_OK) == []


def test_checker_finds_an_unread_field(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("from dataclasses import dataclass\n\n"
                 "@dataclass\nclass R:\n"
                 "    read: int\n    written: int\n    named: int = 0\n    kept: int = 0\n\n"
                 "@dataclass(frozen=True)\nclass S:\n    gone: float = 0.0\n\n"
                 "class Plain:\n    ignored: int = 0\n\n"
                 "r = R(1, 2)\nr.written = 3\nprint(r.read, getattr(r, 'named'))\n")
    assert _unread_fields([p], [p], {"R.kept"}) == ["mod.py:6: R.written", "mod.py:12: S.gone"]
