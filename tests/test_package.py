"""The package's public names, imported from their modules on first use."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import schottkydim

SRC = Path(schottkydim.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parents[1]

MODULES = ("scalars", "hyperbolic", "schedule", "words", "certify",
           "estimators", "explore")


def test_importing_the_package_loads_no_module():
    code = ("import sys; import schottkydim; print(sorted(m for m in "
            "sys.modules if m.startswith('schottkydim')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}).stdout
    assert out == "['schottkydim']\n"


def test_every_public_name_is_its_modules_object():
    import importlib
    assert len(schottkydim.__all__) == 67
    for name in schottkydim.__all__:
        value = getattr(schottkydim, name)
        assert any(getattr(importlib.import_module(f"schottkydim.{module}"),
                           name, None) is value for module in MODULES), name
    namespace = {}
    exec("from schottkydim import *", namespace)
    assert set(schottkydim.__all__) <= set(namespace)


@pytest.mark.parametrize("module", MODULES)
def test_modules_are_attributes(module):
    assert getattr(schottkydim, module).__name__ == f"schottkydim.{module}"
    assert module in dir(schottkydim)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        schottkydim.nope
    assert not hasattr(schottkydim, "nope")


def _definitions(tree):
    """{name: the lines of its top-level definition} of a parsed module."""
    spans = {}
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names = [statement.name]
        elif isinstance(statement, ast.Assign):
            names = [t.id for t in statement.targets
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            spans[name] = range(statement.lineno - 1, statement.end_lineno)
    return spans


def _uses(tree):
    """(name, line) of each use of a name in a parsed module's code: the
    names it loads, the attributes it reads, and the strings that are a
    bare name, as ``getattr`` takes them (the benchmark's tracer wraps
    functions so).  A name imported by ``from`` is not used until it is
    loaded.  Docstrings and comments are not code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr, node.lineno


def test_every_public_name_has_a_caller():
    """A public name that only its own tests reach is dead code.  Each must
    be used in the code of the package outside its own definition, of the
    benchmark or of the acceptance tests; a mention in a docstring or a
    comment does not count.  Nothing is imported or run from bench/."""
    used = set()
    for path in [*(ROOT / "bench").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        used.update(name for name, _ in
                    _uses(ast.parse(path.read_text(encoding="utf-8"))))
    for path in (SRC / "schottkydim").glob("*.py"):
        if path.name == "__init__.py":  # the export list itself
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = _definitions(tree)
        used.update(name for name, line in _uses(tree)
                    if line - 1 not in spans.get(name, ()))
    unused = sorted(set(schottkydim.__all__) - used)
    assert not unused, f"public names with no caller: {unused}"


# Parameters that only shares.starmap(func, tasks) sets, by func(*task) in
# this process or a worker: no call in the code names the function.
SET_BY_STARMAP = {
    ("_descendant_sums", "start"):
        "shares.share_sums passes each share as (j, share) through starmap",
}


def _defaulted_parameters(node, cls=None):
    """(call name, parameter, position) of each parameter with a default of
    each ``def`` under a parsed node.  A function is called by its name and
    a class's ``__init__`` by the class name; the position counts the
    arguments a call passes, so not a method's self, and is None for a
    keyword-only parameter."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, child.name)
            continue
        if not isinstance(child, ast.FunctionDef):
            yield from _defaulted_parameters(child, cls)
            continue
        args = child.args
        positional = args.posonlyargs + args.args
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in child.decorator_list)
        name = cls if child.name == "__init__" else child.name
        first = len(positional) - len(args.defaults)
        for position in range(first, len(positional)):
            yield name, positional[position].arg, position - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None
        yield from _defaulted_parameters(child)


def _calls(tree):
    """(name, positions, keywords) of each call in a parsed module, by the
    name or attribute it calls; positions and keywords are None where the
    call unpacks ``*args`` or ``**kwargs``, which may set any parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords):
            yield name, None, None
        else:
            yield name, len(node.args), {k.arg for k in node.keywords}


def test_every_parameter_default_is_overridden_somewhere():
    """A parameter with a default that no call sets is a constant in
    disguise.  Each one of a ``def`` in the package must be set, by keyword
    or by position, at some call in the package, the benchmark or the
    tests, matched by the function's name; a call that unpacks ``*args`` or
    ``**kwargs`` sets them all."""
    calls = {}
    for path in [*(SRC / "schottkydim").glob("*.py"),
                 *(ROOT / "bench").glob("*.py"),
                 *(ROOT / "tests").glob("*.py")]:
        for name, positions, keywords in _calls(
                ast.parse(path.read_text(encoding="utf-8"))):
            calls.setdefault(name, []).append((positions, keywords))
    unset = []
    for path in sorted((SRC / "schottkydim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, parameter, position in _defaulted_parameters(tree):
            if (name, parameter) in SET_BY_STARMAP or any(
                    positions is None or parameter in keywords
                    or (position is not None and position < positions)
                    for positions, keywords in calls.get(name, ())):
                continue
            unset.append(f"{path.stem}.{name}({parameter})")
    assert not unset, f"parameters that no call sets: {unset}"


def _unused_imports(source):
    """(name, line) of each name a module's imports bind that its code never
    loads.  ``from __future__`` imports and an import marked
    ``# noqa: F401`` (made for its side effects) are left out."""
    tree = ast.parse(source)
    lines = source.splitlines()
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__" or \
                "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in loaded:
                yield name, node.lineno


def test_no_unused_imports():
    """The lint step: every name imported in the package or the tests is
    used."""
    unused = []
    for path in sorted([*(SRC / "schottkydim").glob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        unused += [f"{path.name}:{line} {name}" for name, line in
                   _unused_imports(path.read_text(encoding="utf-8"))]
    assert not unused, f"imported names never used: {unused}"


def test_unused_import_guard_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport json as j\n"
              "from typing import Optional, Tuple\n"
              "import math  # noqa: F401\n"
              "def f(x: Tuple) -> int:\n    return os.sep\n")
    assert sorted(_unused_imports(source)) == [("Optional", 5), ("j", 4)]
