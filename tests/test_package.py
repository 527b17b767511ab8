"""The package's public names, imported from their modules on first use."""

import subprocess
import sys
from pathlib import Path

import pytest

import schottkydim

SRC = Path(schottkydim.__file__).resolve().parents[1]

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
    assert len(schottkydim.__all__) == 75
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
