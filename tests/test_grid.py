import ast
import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochstep import build_grid, discrete_norms, sample_gaussian, WaveField
from blochstep.errors import (
    IoFailure,
    NonFinite,
    NonIntegerCellCount,
    ResolutionTooSmall,
    ShapeMismatch,
)
from blochstep.grid import (
    field_difference,
    load_wavefield_binary,
    output_dir,
    read_file,
    save_wavefield_binary,
    save_wavefield_csv,
    write_file,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "blochstep"
FILE_HELPERS = {"output_dir", "write_file", "read_file"}
FILE_CALLS = {"open", "mkdir", "read_bytes", "read_text", "write_bytes",
              "write_text", "loadtxt"}


def test_small_grid_nodes():
    grid = build_grid(0.5, 8)
    assert grid.L == 2
    np.testing.assert_allclose(grid.k_nodes, [-0.5, 0.0])
    np.testing.assert_allclose(grid.y_nodes, np.arange(8) * np.pi / 4)


def test_cell_start_coordinates():
    grid = build_grid(1.0 / 32, 16)
    assert grid.L == 32
    assert abs(grid.x_nodes[1, 0] - 2 * np.pi / 32) < 1e-14


def test_three_cell_grid_against_scalar_loop():
    grid = build_grid(1.0 / 3, 8)
    assert grid.L == 3
    for l in range(3):
        for r in range(8):
            x = (1.0 / 3) * (2 * np.pi * l + 2 * np.pi * r / 8)
            assert abs(grid.x_nodes[l, r] - x) < 1e-14
    assert grid.x_nodes[2, 7] < 2 * np.pi


def test_grid_rejects_bad_epsilon_and_resolution():
    for eps in (0.3, 0.0, -0.25, np.nan, np.inf):
        with pytest.raises(NonIntegerCellCount):
            build_grid(eps, 8)
    with pytest.raises(ResolutionTooSmall):
        build_grid(0.5, 2)


def test_grid_maps_bijective():
    grid = build_grid(1.0 / 8, 16)
    flat = grid.x_nodes.reshape(-1)
    assert np.unique(flat).size == flat.size
    spacing = np.diff(np.sort(flat))
    np.testing.assert_allclose(spacing, 2 * np.pi / (8 * 16), atol=1e-13)


def test_gaussian_peak_and_tail():
    grid = build_grid(1.0 / 32, 32)
    psi = sample_gaussian(grid)
    peak = (10 / np.pi) ** 0.25
    i = np.argmin(np.abs(grid.x_nodes.reshape(-1) - np.pi))
    assert abs(psi.values.reshape(-1)[i] - peak) < 1e-3
    assert abs(psi.values[0, 0]) < 1e-21


def test_gaussian_unit_mass():
    grid = build_grid(1.0 / 32, 32)
    l2, _ = discrete_norms(sample_gaussian(grid))
    assert abs(l2 - 1.0) < 1e-6


def test_norms_of_simple_fields():
    grid = build_grid(1.0 / 4, 16)
    zero = WaveField(grid, np.zeros((4, 16), dtype=complex))
    assert discrete_norms(zero) == (0.0, 0.0)
    one = WaveField(grid, np.ones((4, 16), dtype=complex))
    l2, linf = discrete_norms(one)
    assert abs(l2 - np.sqrt(2 * np.pi)) < 1e-12
    assert linf == 1.0


def test_norms_reject_non_finite_samples():
    grid = build_grid(1.0 / 4, 16)
    for bad in (np.nan, np.inf):
        values = np.ones((4, 16), dtype=complex)
        values[1, 3] = bad
        with pytest.raises(NonFinite):
            discrete_norms(WaveField(grid, values))


def test_field_difference_requires_matching_grids():
    a = WaveField(build_grid(1.0 / 4, 16), np.zeros((4, 16)))
    b = WaveField(build_grid(1.0 / 8, 16), np.zeros((8, 16)))
    with pytest.raises(ShapeMismatch):
        field_difference(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.floats(0.1, 10.0), st.floats(-np.pi, np.pi))
def test_norm_homogeneity_and_triangle(seed, mag, arg):
    rng = np.random.default_rng(seed)
    grid = build_grid(1.0 / 4, 8)
    f = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    g = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    alpha = mag * np.exp(1j * arg)
    fa = WaveField(grid, alpha * f)
    assert abs(discrete_norms(fa)[0]
               - abs(alpha) * discrete_norms(WaveField(grid, f))[0]) < 1e-10
    lhs = discrete_norms(WaveField(grid, f + g))[0]
    rhs = discrete_norms(WaveField(grid, f))[0] + discrete_norms(WaveField(grid, g))[0]
    assert lhs <= rhs + 1e-12


def test_binary_roundtrip(tmp_path, rng):
    grid = build_grid(1.0 / 4, 8)
    psi = WaveField(grid, rng.standard_normal((4, 8))
                    + 1j * rng.standard_normal((4, 8)))
    path = tmp_path / "field.bin"
    save_wavefield_binary(psi, path)
    back = load_wavefield_binary(path, grid.epsilon)
    np.testing.assert_allclose(back.values, psi.values, atol=0)


def test_binary_load_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        load_wavefield_binary(tmp_path / "absent.bin", 1.0 / 4)


def test_binary_load_truncated_payload_is_io_failure(tmp_path, rng):
    grid = build_grid(1.0 / 4, 8)
    psi = WaveField(grid, rng.standard_normal((4, 8)) + 0j)
    path = tmp_path / "field.bin"
    save_wavefield_binary(psi, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(IoFailure):
        load_wavefield_binary(path, grid.epsilon)


def test_csv_rows_match_csv_writer(tmp_path, rng):
    grid = build_grid(1.0 / 4, 8)
    psi = WaveField(grid, rng.standard_normal((4, 8))
                    + 1j * rng.standard_normal((4, 8)))
    psi.values[0, 0] = -0.0 + 1e-300j
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["l", "r", "x", "re", "im"])
    for l in range(grid.L):
        for r in range(grid.R):
            v = psi.values[l, r]
            writer.writerow([l + 1, r + 1, f"{grid.x_nodes[l, r]:.12g}",
                             f"{v.real:.12g}", f"{v.imag:.12g}"])
    path = tmp_path / "field.csv"
    save_wavefield_csv(psi, path)
    assert path.read_bytes() == expected.getvalue().encode()


def test_file_helpers_raise_io_failure(tmp_path):
    blocker = write_file(tmp_path / "blocker", b"x")
    assert read_file(blocker) == b"x"
    assert output_dir(tmp_path / "a" / "b").is_dir()
    with pytest.raises(IoFailure):
        output_dir(blocker)
    with pytest.raises(IoFailure):
        output_dir(blocker / "sub")
    with pytest.raises(IoFailure):
        write_file(tmp_path, b"")
    with pytest.raises(IoFailure):
        read_file(tmp_path)
    with pytest.raises(IoFailure):
        read_file(tmp_path / "absent")


def _file_calls(source, helpers=frozenset()):
    """Calls that open, create or read a path, outside the named functions."""
    tree = ast.parse(source)
    allowed = {id(n) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name in helpers
               for n in ast.walk(f)}
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name in FILE_CALLS:
                calls.append(f"{name} at line {node.lineno}")
    return sorted(calls)


def test_file_access_only_through_helpers():
    found = {path.name: _file_calls(
                 path.read_text(),
                 FILE_HELPERS if path.name == "grid.py" else frozenset())
             for path in SRC.glob("*.py")}
    assert {name: calls for name, calls in found.items() if calls} == {}
    # the helpers are where the access lives, and the scan sees it
    assert _file_calls((SRC / "grid.py").read_text())
    assert _file_calls("np.loadtxt(p)\nPath(p).mkdir()\nopen(p)") == [
        "loadtxt at line 1", "mkdir at line 2", "open at line 3"]
