"""Two-scale grid, complex field containers, discrete norms, and file access.

The computational domain is [0, 2*pi] with periodic boundary conditions.
It holds L lattice cells of period 2*pi*eps, each resolved with R points,
so that the x-samples x_{l,r} = eps*(2*pi*(l-1) + y_r) form a uniform grid
of L*R points.  Quasi-momenta k_l live in the Brillouin zone [-1/2, 1/2).

Every file access of the package goes through write_file and read_file,
which turn any OSError into IoFailure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    IoFailure,
    NonFinite,
    NonIntegerCellCount,
    ResolutionTooSmall,
    ShapeMismatch,
)

_WAVEFIELD_MAGIC = b"BDWF"


@dataclass(frozen=True)
class SimulationGrid:
    """Immutable two-scale discretization of [0, 2*pi].

    Attributes:
        epsilon: scale ratio, a reciprocal of an integer.
        L: number of lattice cells, L = 1/epsilon.
        R: grid points per cell (power of two).
        k_nodes: (L,) quasi-momenta -1/2 + (l-1)/L.
        y_nodes: (R,) fast coordinates 2*pi*(r-1)/R.
        x_nodes: (L, R) physical coordinates eps*(2*pi*(l-1) + y_r).
    """

    epsilon: float
    L: int
    R: int
    k_nodes: np.ndarray
    y_nodes: np.ndarray
    x_nodes: np.ndarray

    @property
    def n_points(self) -> int:
        return self.L * self.R

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / (self.L * self.R)


def build_grid(epsilon: float, R: int) -> SimulationGrid:
    """Build the two-scale grid for the given scale ratio and cell resolution."""
    if not 0 < epsilon < np.inf:
        raise NonIntegerCellCount(f"epsilon = {epsilon} is not 1/L for an "
                                  f"integer L >= 1")
    inv = 1.0 / epsilon
    L = int(round(inv))
    if abs(inv - L) > 1e-9 or L < 1:
        raise NonIntegerCellCount(f"1/epsilon = {inv} is not an integer")
    if abs(L * epsilon - 1.0) > 1e-12:
        raise NonIntegerCellCount(f"L*epsilon = {L * epsilon} differs from 1")
    if R < 4:
        raise ResolutionTooSmall(f"R = {R} < 4")
    if R & (R - 1) != 0:
        raise ResolutionTooSmall(f"R = {R} is not a power of two")

    ell = np.arange(1, L + 1)
    k_nodes = -0.5 + (ell - 1) / L
    y_nodes = 2.0 * np.pi * np.arange(R) / R
    x_nodes = epsilon * (2.0 * np.pi * (ell[:, None] - 1) + y_nodes[None, :])
    return SimulationGrid(
        epsilon=float(epsilon), L=L, R=R,
        k_nodes=k_nodes, y_nodes=y_nodes, x_nodes=x_nodes,
    )


@dataclass
class _GridSamples:
    """(L, R) complex samples on a two-scale grid."""

    grid: SimulationGrid
    values: np.ndarray  # (L, R) complex

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.L, self.grid.R):
            raise ShapeMismatch(
                f"values shape {self.values.shape} != {(self.grid.L, self.grid.R)}")


class WaveField(_GridSamples):
    """Complex samples psi_{l,r} on the physical two-scale grid."""

    def copy(self) -> "WaveField":
        return WaveField(self.grid, self.values.copy())


class CellField(_GridSamples):
    """Mixed (k_l, y_r) representation of a wave field."""


def sample_gaussian(grid: SimulationGrid) -> WaveField:
    """Normalized Gaussian wave packet centered at x = pi."""
    x = grid.x_nodes
    values = (10.0 / np.pi) ** 0.25 * np.exp(-5.0 * (x - np.pi) ** 2)
    return WaveField(grid, values.astype(complex))


def discrete_norms(f: WaveField) -> tuple[float, float]:
    """Discrete (l2, linf) norms with uniform quadrature weight dx."""
    if not np.all(np.isfinite(f.values)):
        raise NonFinite("non-finite samples in norm computation")
    absval = np.abs(f.values)
    linf = float(absval.max()) if absval.size else 0.0
    l2 = float(np.sqrt(f.grid.dx * np.sum(absval ** 2)))
    return l2, linf


def field_difference(a: WaveField, b: WaveField) -> WaveField:
    """Pointwise difference a - b on a shared grid."""
    if a.grid.L != b.grid.L or a.grid.R != b.grid.R or a.grid.epsilon != b.grid.epsilon:
        raise ShapeMismatch("fields live on different grids")
    return WaveField(a.grid, a.values - b.values)


def write_file(path, data: bytes) -> Path:
    """Write data to path, replacing any file there; the missing parent
    directories are made first, as `mkdir -p` does."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return path


def read_file(path) -> bytes:
    """The contents of path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def write_lines(path, lines) -> Path:
    """Write the lines to path as UTF-8, each ended by a newline."""
    return write_file(path, "".join(f"{line}\n" for line in lines).encode())


def save_wavefield_csv(psi: WaveField, path) -> None:
    """Write (l, r, x, Re psi, Im psi) rows with CRLF line endings."""
    x, v = psi.grid.x_nodes, psi.values
    rows = ["l,r,x,re,im\r\n"] + [
        f"{l + 1},{r + 1},{x[l, r]:.12g},{v[l, r].real:.12g},"
        f"{v[l, r].imag:.12g}\r\n"
        for l in range(psi.grid.L) for r in range(psi.grid.R)]
    write_file(path, "".join(rows).encode())


def save_wavefield_binary(psi: WaveField, path) -> None:
    """Binary dump: 16-byte header (magic, u32 L, u32 R, u32 pad), f64 pairs."""
    header = _WAVEFIELD_MAGIC + struct.pack("<III", psi.grid.L, psi.grid.R, 0)
    write_file(path, header + psi.values.astype("<c16").tobytes())


def load_wavefield_binary(path, epsilon: float) -> WaveField:
    """Read a field written by save_wavefield_binary; grid is rebuilt from epsilon."""
    blob = read_file(path)
    header, payload = blob[:16], blob[16:]
    if len(header) != 16 or header[:4] != _WAVEFIELD_MAGIC:
        raise IoFailure(f"{path}: bad wavefield header")
    L, R, _ = struct.unpack("<III", header[4:])
    if len(payload) != 16 * L * R:
        raise IoFailure(f"{path}: {len(payload)} payload bytes for L={L}, R={R}")
    grid = build_grid(epsilon, R)
    if grid.L != L:
        raise ShapeMismatch(f"file has L={L} but 1/epsilon={grid.L}")
    return WaveField(grid, np.frombuffer(payload, dtype="<c16")
                     .reshape(L, R).copy())
