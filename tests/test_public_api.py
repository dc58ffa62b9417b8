"""Every name the benchmark or a script imports from the package must stay
importable: perfbench/*.py and scripts/*.py are not part of the test suite,
so a deleted or renamed public name would otherwise only show when one of
them runs."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")])


def _package_imports():
    return sorted({(node.module, alias.name)
                   for path in SOURCES
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom) and node.module
                   and node.module.split(".")[0] == "blochstep"
                   for alias in node.names})


def test_benchmark_imports_cover_package_and_steppers():
    assert ROOT / "perfbench" / "workloads.py" in SOURCES
    assert ROOT / "perfbench" / "make_reference.py" in SOURCES
    modules = {module for module, _ in _package_imports()}
    assert {"blochstep", "blochstep.steppers"} <= modules


@pytest.mark.parametrize("module,name", _package_imports(),
                         ids=lambda v: v)
def test_benchmark_import_exists(module, name):
    # `from package import name` also finds a submodule of that name
    assert (hasattr(importlib.import_module(module), name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)
