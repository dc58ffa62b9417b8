"""Cell transform pair, the Bloch transform, and band masses.

The cell transform maps physical samples psi_{l,r} to the mixed representation
psi~_{l,r} indexed by (k_l, y_r) via a length-L DFT per r; the Brillouin offset
k = -1/2 is folded into an explicit modulation so a standard FFT applies.
The Bloch transform goes from physical samples to coefficients C_{m,l} by one
global FFT, a gather onto the R lowest Fourier modes of each cell, and a
contraction against the eigenvectors.  Band masses follow from the
coefficients by Parseval, without rebuilding any band in physical space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

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


class BlochTransform:
    """Physical samples <-> Bloch coefficients C_{m,l} of one band table.

    Window mode lam of cell row l is bin kappa = L*lam + (l-1) - L/2 (mod LR)
    of the FFT of the global samples psi_n, n = (l-1)*R + (r-1); for odd L
    psi_n is first modulated by exp(i*pi*n/(LR)) and kappa rounded down."""

    def __init__(self, bands: BandTable):
        L, R = self.shape = (bands.grid.L, bands.grid.R)
        self.chi = _window_vectors(bands).transpose(1, 0, 2)  # (L, M, R) view
        lam = np.arange(R) - R // 2
        self.index = (L * lam + np.arange(L)[:, None] - L // 2) % (L * R)
        self.modulation = (np.exp(1j * np.pi * np.arange(L * R) / (L * R))
                           if L % 2 else None)
        self.weights = np.sum(np.abs(self.chi) ** 2, axis=2).T  # (M, L)

    def project(self, values: np.ndarray) -> np.ndarray:
        """Coefficients C, shape (M, L), of the (L, R) physical samples."""
        if values.shape != self.shape:
            raise ShapeMismatch("band table grid does not match the field grid")
        flat = values.reshape(-1)
        if self.modulation is not None:
            flat = flat * self.modulation
        F = np.conj(scipy.fft.fft(flat)[self.index])
        # conj(chi . conj(F)) = conj(chi) . F, without a conjugated copy of chi
        C = np.conj(np.matmul(self.chi, F[:, :, None])[:, :, 0].T)
        C *= TWO_PI / self.shape[1]
        return C

    def reconstruct(self, C: np.ndarray) -> np.ndarray:
        """(L, R) samples of sum_m C_{m,l} chi_{m,l}; the inverse of project
        on fields spanned by the first M bands."""
        L, R = self.shape
        spectrum = np.empty(L * R, dtype=complex)
        spectrum[self.index] = np.matmul(C.T[:, None, :], self.chi)[:, 0, :]
        psi = scipy.fft.ifft(spectrum, overwrite_x=True)
        # unit-coefficient-norm eigenvectors carry ||chi||^2_{L2(C)} = 2*pi,
        # which the projection constant 2*pi/R does not divide out
        psi *= R / TWO_PI
        if self.modulation is not None:
            psi *= np.conj(self.modulation)
        return psi.reshape(L, R)

    def gram(self) -> np.ndarray:
        """Window Gram matrices G_l[m', m] = sum_r conj(chi_{m'lr}) chi_{mlr},
        shape (L, M, M), so that project(reconstruct(C))_l = G_l C_l up to
        FFT round-off.  G differs from I where the bands leak out of the
        R-mode window.  Built from the real and imaginary views of chi, so
        that no conjugated copy of it is made."""
        L, M, _ = self.chi.shape
        a, b = self.chi.real, self.chi.imag
        at, bt = a.transpose(0, 2, 1), b.transpose(0, 2, 1)
        G = np.empty((L, M, M), dtype=complex)
        np.matmul(a, at, out=G.real)
        G.real += b @ bt
        np.matmul(a, bt, out=G.imag)
        G.imag -= b @ at
        return G

    def band_norms(self, C: np.ndarray) -> np.ndarray:
        """Discrete L2 norm of each single-band part of reconstruct(C), (M,).
        By Parseval over the length-L cell transform and the length-R window
        transform, band m has squared norm
        sum_l |C_{m,l}|^2 ||chi_win,{m,l}||^2 / (2*pi*L^2)."""
        L = self.shape[0]
        return np.sqrt(np.sum(np.abs(C) ** 2 * self.weights, axis=1)
                       / (TWO_PI * L * L))

    def masses(self, values: np.ndarray) -> np.ndarray:
        """Discrete L2 norm of each single-band part of the samples, (M,)."""
        return self.band_norms(self.project(values))


def band_project(tilde: CellField, bands: BandTable) -> BlochCoeffs:
    """Bloch coefficients C_{m,l} = (2*pi/R) sum over the windowed Fourier modes."""
    return BlochCoeffs(bands, BlochTransform(bands).project(cell_inverse(tilde).values))


def band_reconstruct(coeffs: BlochCoeffs, bands: BandTable | None = None) -> CellField:
    """Sum of band contributions; normalized so reconstruct(project(.)) is the
    identity on fields spanned by the first M bands."""
    if bands is None:
        bands = coeffs.bands
    elif bands is not coeffs.bands and (
            bands.M != coeffs.bands.M or bands.grid.L != coeffs.bands.grid.L):
        raise ShapeMismatch("coefficients tied to an incompatible band table")
    psi = BlochTransform(bands).reconstruct(coeffs.values)
    return cell_forward(WaveField(bands.grid, psi))


def band_masses(psi: WaveField, bands: BandTable) -> np.ndarray:
    """Discrete L2 norm of each single-band reconstruction of psi, shape (M,)."""
    return BlochTransform(bands).masses(psi.values)
