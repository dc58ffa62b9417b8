"""Every name the benchmark or a script imports from the package must stay
importable: perfbench/*.py and scripts/*.py are not part of the test suite,
so a deleted or renamed public name would otherwise only show when one of
them runs.  Conversely, every name the package exports must have a user
outside the tests, or a stated reason to stay."""

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


# Exported names that no module of src/, scripts/ or perfbench/ uses, with
# the reason each stays.
UNUSED_EXPORTS = {
    # the direct Fourier sum of one stored Bloch function: the oracle of the
    # Bloch-wave table checks in tests/test_transform.py
    "eval_chi",
}


def _exported_names():
    tree = ast.parse((ROOT / "src" / "blochstep" / "__init__.py").read_text())
    return sorted(alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _used_names():
    """Names read as a Name or an Attribute anywhere in src/, scripts/ and
    perfbench/ outside the top-level definition of the same name, and the
    names scripts/ and perfbench/ import from the package."""
    package = sorted((ROOT / "src" / "blochstep").glob("*.py"))
    used = {name for _, name in _package_imports()}
    for path in [*package, *SOURCES]:
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            used |= {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    return used


def test_every_export_has_a_user():
    used = _used_names()
    unused = [name for name in _exported_names() if name not in used]
    assert unused == sorted(UNUSED_EXPORTS)
