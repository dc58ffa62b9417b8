"""Every name the benchmark imports from the package must stay importable:
perfbench/workloads.py is not part of the test suite, so a deleted or
renamed public name would otherwise only show when the benchmark runs."""

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _benchmark_imports():
    tree = ast.parse(WORKLOADS.read_text())
    return sorted((node.module, alias.name)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "blochstep"
                  for alias in node.names)


def test_benchmark_imports_cover_package_and_steppers():
    modules = {module for module, _ in _benchmark_imports()}
    assert {"blochstep", "blochstep.steppers"} <= modules


@pytest.mark.parametrize("module,name", _benchmark_imports(),
                         ids=lambda v: v)
def test_benchmark_import_exists(module, name):
    assert hasattr(importlib.import_module(module), name)
