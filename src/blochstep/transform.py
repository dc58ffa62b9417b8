"""Cell transform pair and band projection/reconstruction, plus band masses.

The cell transform maps physical samples psi_{l,r} to the mixed representation
psi~_{l,r} indexed by (k_l, y_r) via a length-L DFT per r; the Brillouin offset
k = -1/2 is folded into an explicit modulation so a standard FFT applies.
Band projection contracts the mixed field against the R lowest-frequency
Fourier coefficients of each eigenvector.  Band masses follow from the
coefficients by Parseval, without rebuilding any band in physical space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import BandTable
from .errors import ShapeMismatch, TruncationMismatch
from .grid import CellField, WaveField

TWO_PI = 2.0 * np.pi


@dataclass
class BlochCoeffs:
    """Per-(band, k-node) coefficients C_{m,l} tied to a band table."""

    bands: BandTable
    values: np.ndarray  # (M, L) complex

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.bands.M, self.bands.grid.L):
            raise ShapeMismatch(
                f"coefficients shape {self.values.shape} != "
                f"{(self.bands.M, self.bands.grid.L)}")


def _cell_modulation(grid) -> np.ndarray:
    # exp(i*pi*(j-1)) = (-1)^(j-1): folds the -1/2 Brillouin offset into the DFT
    return np.where(np.arange(grid.L) % 2 == 0, 1.0, -1.0).astype(complex)


def cell_forward(psi: WaveField) -> CellField:
    """psi~_{l,r} = sum_j psi_{j,r} exp(-2*pi*i k_l (j-1)), a length-L DFT per r."""
    grid = psi.grid
    mod = _cell_modulation(grid)
    tilde = np.fft.fft(psi.values * mod[:, None], axis=0)
    return CellField(grid, tilde)


def cell_inverse(tilde: CellField) -> WaveField:
    """psi_{l,r} = (1/L) sum_j psi~_{j,r} exp(2*pi*i k_j (l-1)); inverse of cell_forward."""
    grid = tilde.grid
    mod = _cell_modulation(grid)
    psi = np.fft.ifft(tilde.values, axis=0) * np.conj(mod)[:, None]
    return WaveField(grid, psi)


def _window_vectors(bands: BandTable) -> np.ndarray:
    """Eigenvector coefficients restricted to lam in {-R/2, ..., R/2 - 1}."""
    R = bands.grid.R
    if bands.Lambda <= R // 2:
        raise TruncationMismatch(
            f"band table Lambda = {bands.Lambda} <= R/2 = {R // 2}")
    lo = bands.Lambda - R // 2
    return bands.vectors[:, :, lo:lo + R]


def band_project(tilde: CellField, bands: BandTable) -> BlochCoeffs:
    """Bloch coefficients C_{m,l} = (2*pi/R) sum over the windowed Fourier modes."""
    grid = tilde.grid
    if bands.grid.L != grid.L or bands.grid.R != grid.R:
        raise ShapeMismatch("band table grid does not match the field grid")
    k = grid.k_nodes
    y = grid.y_nodes
    g = tilde.values * np.exp(-1j * np.multiply.outer(k, y))
    # FFT index j holds frequency lam = j (j < R/2) or j - R; shift to
    # the ordered window lam = -R/2 .. R/2-1
    G = np.fft.fftshift(np.fft.fft(g, axis=1), axes=1)
    chi_win = _window_vectors(bands)
    C = (TWO_PI / grid.R) * np.einsum("mlr,lr->ml", np.conj(chi_win), G)
    return BlochCoeffs(bands, C)


def band_reconstruct(coeffs: BlochCoeffs, bands: BandTable | None = None) -> CellField:
    """Sum of band contributions; normalized so reconstruct(project(.)) is the
    identity on fields spanned by the first M bands."""
    if bands is None:
        bands = coeffs.bands
    elif bands is not coeffs.bands and (
            bands.M != coeffs.bands.M or bands.grid.L != coeffs.bands.grid.L):
        raise ShapeMismatch("coefficients tied to an incompatible band table")
    grid = bands.grid
    chi_win = _window_vectors(bands)
    h = np.einsum("ml,mlr->lr", coeffs.values, chi_win)
    # inverse of the fftshift ordering used in band_project
    tilde = grid.R * np.fft.ifft(np.fft.ifftshift(h, axes=1), axis=1)
    tilde *= np.exp(1j * np.multiply.outer(grid.k_nodes, grid.y_nodes))
    # unit-coefficient-norm eigenvectors carry ||chi||^2_{L2(C)} = 2*pi,
    # which the projection constant 2*pi/R does not divide out
    tilde /= TWO_PI
    return CellField(grid, tilde)


def band_masses(psi: WaveField, bands: BandTable) -> np.ndarray:
    """Discrete L2 norm of each single-band reconstruction of psi, shape (M,).

    By Parseval over the length-L cell transform and the length-R window
    transform, the band-m part of psi has squared norm
    sum_l |C_{m,l}|^2 ||chi_win,{m,l}||^2 / (2*pi*L^2).
    """
    C = band_project(cell_forward(psi), bands).values
    weight = np.sum(np.abs(_window_vectors(bands)) ** 2, axis=2)
    L = bands.grid.L
    return np.sqrt(np.sum(np.abs(C) ** 2 * weight, axis=1) / (TWO_PI * L * L))
