"""Every module-level import in src/lpsq is used by its module, and every
definition in src/lpsq is reached by the package or the benchmark.

No module of src/lpsq imports scipy at module level, and the CLI campaigns
load none of the scipy submodules whose import took ~0.7 s a process.

A name counts as used when the module loads it anywhere (code or
annotation, quoted annotations included) or lists it in ``__all__``.  The
relative imports of a package ``__init__`` are its exports.  Import lines
marked ``# noqa`` are skipped.

A module-level function or class is reached when some file of src/lpsq
or perfbench names it: as a name, as an attribute, or as a dotted part of a
string constant outside ``__all__`` (perfbench's span table names its
targets as strings).  A method other than a dunder is reached only when
some such file loads it as an attribute or names it in a string constant
with a dot, such as ``"SquareEvaluator.eval_values"``: a local variable
or a plain string of the same name does not count.  ``__all__`` and the
package ``__init__``'s re-exports do not count, so a name only tests call
is unreached.

A field of a ``@dataclass`` in src/lpsq is read when some file of src/lpsq
or perfbench loads it as an attribute or names it as a dotted part of a
string constant.

A defaulted parameter of a module-level function, or of a method of a
module-level class (``__init__`` the only dunder), is set when some call in
a file of src/lpsq or perfbench passes it: by keyword, by position, or by
``*`` / ``**``.  Callees match by name: ``f(...)`` and ``x.f(...)`` call
every definition named f, ``C(...)`` calls ``C.__init__``, and so does
``cls(...)`` in a classmethod of C.  An option only tests set is unset.

Files are read only by `grids.read_text` and `grids.load_binary`, which
turn an unreadable file into a ConfigError: no other function of src/lpsq
calls ``open`` in a read mode, and none calls ``json.load``.  Text is
parsed only in grids.py (`grids.read_table` for CSV tables,
`grids.read_json` for JSON): no other module of src/lpsq references the
``csv`` module, ``genfromtxt``, ``loadtxt``, ``json.load`` or
``json.loads``.
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
UNREACHED_OK = {}

# dataclass fields no file in src/lpsq or perfbench reads, kept on purpose
UNREAD_OK = {}

# defaulted parameters ("def(param)") no call in src/lpsq or perfbench
# passes, kept on purpose
UNSET_OK = {}


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
    """(line, name, is a method) of the module-level functions and classes
    and of the non-dunder methods of module-level classes."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs + (ast.ClassDef,)):
            yield node.lineno, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.lineno, item.name, True


def _references(tree) -> tuple:
    """(refs, attrs): the names, attributes and parts of string constants
    outside ``__all__``, which reach a module-level definition; and the
    attributes loaded and the parts of string constants with a dot outside
    ``__all__``, which reach a method."""
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(map(id, ast.walk(node.value)))
    refs, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported):
            parts = node.value.split(".")
            refs.update(parts)
            if len(parts) > 1:
                attrs.update(parts)
    return refs, attrs


def _unreached_definitions(sources, readers, allowed=()) -> list:
    """The definitions in the files ``sources`` that no file of ``readers``
    reaches, other than ``allowed``."""
    found = [_references(ast.parse(p.read_text())) for p in readers]
    refs = set().union(*(r for r, _ in found))
    attrs = set().union(*(a for _, a in found))
    return [f"{p.name}:{line}: {name}" for p in sources
            for line, name, method in _definitions(ast.parse(p.read_text()))
            if name not in (attrs if method else refs) and name not in allowed]


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


def test_checker_reaches_a_method_only_by_attribute(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("class C:\n"
                 "    def by_attr(self):\n        pass\n\n"
                 "    def by_dotted(self):\n        pass\n\n"
                 "    def by_local(self):\n        pass\n\n"
                 "    def by_word(self):\n        pass\n\n"
                 "def by_local_fn():\n    pass\n\n"
                 "by_local = 1\n"
                 "by_local_fn = 2\n"
                 "C().by_attr()\n"
                 "TARGETS = ['C.by_dotted', 'by_word']\n")
    assert _unreached_definitions([p], [p]) == ["mod.py:8: by_local", "mod.py:11: by_word"]


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


# the functions that may read a file: text files, and grid-function files
FILE_READERS = {("grids.py", "read_text"), ("grids.py", "load_binary")}


def _file_reads(path: pathlib.Path) -> list:
    """The reads of a file in a module outside `FILE_READERS`: each
    ``open`` call whose mode is not a constant holding w, a or x, and each
    ``json.load`` call, named by the innermost enclosing function."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.Call):
                fn = child.func
                mode = (child.args[1] if len(child.args) > 1 else
                        next((k.value for k in child.keywords if k.arg == "mode"), None))
                if isinstance(fn, ast.Name) and fn.id == "open":
                    if not (isinstance(mode, ast.Constant) and set("wax") & set(mode.value)):
                        found.append((child.lineno, func))
                elif (isinstance(fn, ast.Attribute) and fn.attr == "load"
                      and isinstance(fn.value, ast.Name) and fn.value.id == "json"):
                    found.append((child.lineno, func))
            visit(child, inner)

    visit(ast.parse(path.read_text()), "<module>")
    return [f"{path.name}:{line}: {func}" for line, func in found
            if (path.name, func) not in FILE_READERS]


def test_files_are_read_only_by_the_grids_readers():
    assert [r for p in sorted(SRC.glob("*.py")) for r in _file_reads(p)] == []


def test_checker_finds_a_file_read(tmp_path):
    p = tmp_path / "grids.py"
    p.write_text("import json\n\n"
                 "def read_text(path):\n    with open(path) as fh:\n        return fh.read()\n\n"
                 "def save(path):\n    with open(path, 'w') as fh:\n        fh.write('x')\n"
                 "    open(path, mode='ab').close()\n\n"
                 "class C:\n    def load(self, path):\n        with open(path, 'rb') as fh:\n"
                 "            return json.load(fh)\n\n"
                 "data = open('x', mode='r').read()\n")
    assert _file_reads(p) == ["grids.py:14: load", "grids.py:15: load",
                              "grids.py:17: <module>"]


# the modules that may parse a file format: CSV tables and JSON text
FORMAT_READERS = {"grids.py"}
_PARSERS = {"csv": None, "numpy": {"genfromtxt", "loadtxt"}, "json": {"load", "loads"}}


def _format_parsers(path: pathlib.Path) -> list:
    """The references to a format parser in a module outside
    `FORMAT_READERS`: an import of the csv module or of a name from it,
    ``genfromtxt`` or ``loadtxt`` as an attribute or imported name, and
    ``json.load`` or ``json.loads``, as an attribute or imported name."""
    if path.name in FORMAT_READERS:
        return []
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module in _PARSERS:
            names = _PARSERS[node.module]
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                      if names is None or a.name in names]
        elif isinstance(node, ast.Attribute):
            if node.attr in _PARSERS["numpy"]:
                found.append((node.lineno, node.attr))
            elif (node.attr in _PARSERS["json"] and isinstance(node.value, ast.Name)
                  and node.value.id == "json"):
                found.append((node.lineno, f"json.{node.attr}"))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


def test_formats_are_parsed_only_in_grids():
    assert [r for p in sorted(SRC.glob("*.py")) for r in _format_parsers(p)] == []


def test_checker_finds_a_format_parser(tmp_path):
    text = ("import csv\nimport json\nimport numpy as np\nfrom csv import reader\n"
            "from json import loads, dumps\nfrom numpy import loadtxt, asarray\n\n"
            "def f(path, fh):\n    json.dump({}, fh)\n"
            "    return np.genfromtxt(path), json.load(fh), np.asarray(1), obj.load(fh)\n")
    for name in ("mod.py", "grids.py"):
        (tmp_path / name).write_text(text)
    assert _format_parsers(tmp_path / "grids.py") == []
    assert _format_parsers(tmp_path / "mod.py") == [
        "mod.py:1: csv", "mod.py:4: csv.reader", "mod.py:5: json.loads",
        "mod.py:6: numpy.loadtxt", "mod.py:10: genfromtxt", "mod.py:10: json.load"]


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _callables(tree):
    """(def, label, callee name, leading parameters a call does not pass)
    of the module-level functions and of the methods of module-level
    classes, ``__init__`` the only dunder: a method's callee is its name,
    or its class for ``__init__``, and a call passes neither its self nor
    its cls."""
    for node in tree.body:
        if isinstance(node, _FUNCS):
            yield node, node.name, node.name, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCS) and (item.name == "__init__" or not (
                        item.name.startswith("__") and item.name.endswith("__"))):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    yield (item, f"{node.name}.{item.name}",
                           node.name if item.name == "__init__" else item.name,
                           0 if static else 1)


def _signatures(tree):
    """(line, label, callee name, positional names, defaulted names) of the
    `_callables` with a defaulted parameter."""
    for fn, label, callee, skip in _callables(tree):
        a = fn.args
        pos = a.posonlyargs + a.args
        defaulted = [p.arg for p in pos[len(pos) - len(a.defaults):]] if a.defaults else []
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        if defaulted:
            yield fn.lineno, label, callee, [p.arg for p in pos][skip:], defaulted


def _calls(tree):
    """(callee name, call) of every call to a name or an attribute, with
    ``cls(...)`` in a classmethod named by its class."""
    out = []

    def visit(node, cls_name, in_classmethod):
        for child in ast.iter_child_nodes(node):
            c, cm = cls_name, in_classmethod
            if isinstance(child, ast.ClassDef):
                c = child.name
            elif isinstance(child, _FUNCS):
                cm = any(getattr(d, "id", None) == "classmethod" for d in child.decorator_list)
            if isinstance(child, ast.Call):
                fn = child.func
                name = (fn.id if isinstance(fn, ast.Name)
                        else fn.attr if isinstance(fn, ast.Attribute) else None)
                if name == "cls" and cm:
                    name = c
                if name is not None:
                    out.append((name, child))
            visit(child, c, cm)

    visit(tree, None, False)
    return out


def _passes(call, positional, param) -> bool:
    """Whether the call passes param, positional the callee's positional
    parameter names."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return param in positional and (positional.index(param) < len(call.args) or any(
        isinstance(a, ast.Starred) for a in call.args))


def _unset_defaults(sources, readers, allowed=()) -> list:
    """The defaulted parameters in the files ``sources`` that no call in a
    file of ``readers`` passes, other than ``allowed``."""
    calls = {}
    for p in readers:
        for name, call in _calls(ast.parse(p.read_text())):
            calls.setdefault(name, []).append(call)
    out = []
    for p in sources:
        for line, label, callee, positional, defaulted in _signatures(ast.parse(p.read_text())):
            for param in defaulted:
                if (f"{label}({param})" not in allowed and not any(
                        _passes(c, positional, param) for c in calls.get(callee, []))):
                    out.append(f"{p.name}:{line}: {label}({param})")
    return out


def test_every_defaulted_parameter_is_set():
    sources = sorted(SRC.glob("*.py"))
    readers = sources + sorted((ROOT / "perfbench").glob("*.py"))
    assert _unset_defaults(sources, readers, UNSET_OK) == []


def test_checker_finds_an_unset_default(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("def f(a, b=1, c=2, *, d=3, e=4, kept=0):\n    pass\n\n"
                 "def g(x=0, y=0):\n    pass\n\n"
                 "class C:\n"
                 "    def __init__(self, u=0, v=0):\n        pass\n\n"
                 "    @classmethod\n    def make(cls, w=0):\n        return cls(1)\n\n"
                 "    @staticmethod\n    def s(z=0):\n        pass\n\n"
                 "    def __call__(self, q=0):\n        pass\n\n"
                 "f(0, 1, d=2)\n"
                 "g(*[1])\n"
                 "C.s(1)\n"
                 "C().make(**{})\n")
    assert _unset_defaults([p], [p], {"f(kept)"}) == [
        "mod.py:1: f(c)", "mod.py:1: f(e)", "mod.py:8: C.__init__(v)"]


# operator inputs pass one gate, which alone tells a single input from a
# tuple of them; sparse_construct keeps its own refusal of pairs, and
# sparse_rhs_eval takes no kernel to gate by
OPERAND_GATE = ("operators.py", "_operands")
TUPLE_TESTS_OK = {("dyadic.py", "sparse_construct"), ("dyadic.py", "sparse_rhs_eval")}


def _tuple_tests(path: pathlib.Path, allowed=()) -> list:
    """The ``isinstance`` calls whose classes are a tuple naming ``tuple``
    or ``list``, named by the innermost enclosing function, other than
    those of the (file, function) pairs in ``allowed``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, _FUNCS) else func
            if (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance"
                    and len(child.args) == 2 and isinstance(child.args[1], ast.Tuple)
                    and {"tuple", "list"} & {getattr(e, "id", None)
                                             for e in child.args[1].elts}):
                found.append((child.lineno, func))
            visit(child, inner)

    visit(ast.parse(path.read_text()), "<module>")
    return [f"{path.name}:{line}: {func}" for line, func in found
            if (path.name, func) not in allowed]


def test_operand_gate_is_the_only_tuple_test():
    allowed = TUPLE_TESTS_OK | {OPERAND_GATE}
    assert [r for p in sorted(SRC.glob("*.py")) for r in _tuple_tests(p, allowed)] == []


def test_checker_finds_a_tuple_test(tmp_path):
    p = tmp_path / "operators.py"
    p.write_text("def _operands(k, f):\n    return isinstance(f, (tuple, list))\n\n"
                 "def psi(f):\n    return isinstance(f, (list, tuple))\n\n"
                 "class E:\n    def m(self, f):\n"
                 "        def inner():\n            return isinstance(f, (int, tuple))\n"
                 "        return isinstance(f, tuple) or isinstance(f, (int, float))\n\n"
                 "ok = isinstance(0, (tuple,))\n")
    assert _tuple_tests(p, {OPERAND_GATE}) == [
        "operators.py:5: psi", "operators.py:10: inner", "operators.py:13: <module>"]


# the private names of another module of src/lpsq that a module reads, as
# (file, "module._name"); the set may only shrink, and every entry must
# still be read
PRIVATE_READS_OK = {
    ("harness.py", "operators._cone_levels"),
    ("harness.py", "operators._operands"),
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(path: pathlib.Path) -> list:
    """(line, "module._name") of each private name (a leading underscore,
    not a dunder) of another lpsq module that the file reads: imported by
    ``from .module import _name`` (or ``lpsq.module``), or loaded as an
    attribute of a module bound by ``from . import module [as alias]`` or
    ``import lpsq.module [as alias]``, anywhere in the file."""
    tree = ast.parse(path.read_text())
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "lpsq":
                continue
            inner = [p for p in parts if p and p != "lpsq"]
            for a in node.names:
                if inner and _is_private(a.name):
                    found.append((node.lineno, f"{inner[-1]}.{a.name}"))
                elif not inner:
                    modules[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "lpsq" and len(parts) > 1 and a.asname:
                    modules[a.asname] = parts[-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            v = node.value
            if isinstance(v, ast.Name) and v.id in modules:
                found.append((node.lineno, f"{modules[v.id]}.{node.attr}"))
            elif (isinstance(v, ast.Attribute) and isinstance(v.value, ast.Name)
                  and v.value.id == "lpsq"):
                found.append((node.lineno, f"{v.attr}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_name():
    reads = {(p.name, name): line for p in sorted(SRC.glob("*.py"))
             for line, name in _private_reads(p)}
    assert sorted(f"{f}:{line}: {name}" for (f, name), line in reads.items()
                  if (f, name) not in PRIVATE_READS_OK) == []
    assert sorted(PRIVATE_READS_OK - set(reads)) == []  # a stale entry leaves the list


def test_checker_finds_a_private_read(tmp_path):
    p = tmp_path / "dyadic.py"
    p.write_text("from . import operators as ops\n"
                 "from .grids import _stencil, box_sums\n"
                 "import lpsq.moduli as mod\n"
                 "import lpsq.kernels\n"
                 "import numpy as np\n\n"
                 "def f(self):\n"
                 "    from lpsq.weights import _apvec, WeightVector\n"
                 "    from lpsq import harness\n"
                 "    return (ops._fft_len, ops.square_function, ops.__name__, mod._dini,\n"
                 "            lpsq.kernels._eps, harness._rung, np._core, self._x)\n")
    assert _private_reads(p) == [
        (2, "grids._stencil"), (8, "weights._apvec"), (10, "moduli._dini"),
        (10, "operators._fft_len"), (11, "harness._rung"), (11, "kernels._eps")]
