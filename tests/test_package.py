"""The package's public names, imported from their modules on first use."""

import ast
import re
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
    assert len(schottkydim.__all__) == 70
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


def test_every_public_name_has_a_caller():
    """A public name that only its own tests reach is dead code.  Each must
    be named in the package outside its own definition, in the benchmark
    (its tracer names the functions it wraps in strings), or in the
    acceptance tests.  Nothing is imported or run from bench/."""
    others = "\n".join(path.read_text(encoding="utf-8") for path in
                       [*(ROOT / "bench").glob("*.py"),
                        ROOT / "tests" / "test_acceptance.py"])
    texts = {name: [others] for name in schottkydim.__all__}
    for path in (SRC / "schottkydim").glob("*.py"):
        if path.name == "__init__.py":  # the export list itself
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        spans = _definitions(ast.parse(source))
        for name in texts:  # without the name's own definition
            own = spans.get(name, ())
            texts[name].append("\n".join(
                line for i, line in enumerate(lines) if i not in own))
    unused = [name for name, found in texts.items()
              if not any(re.search(rf"\b{name}\b", text) for text in found)]
    assert not unused, f"public names with no caller: {unused}"
