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
    assert len(schottkydim.__all__) == 69
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
    names it loads, the attributes it reads, the names it imports by
    ``from``, and the strings that are a bare name, as ``getattr`` takes
    them (the benchmark's tracer wraps functions so).  Docstrings and
    comments are not code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


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
