"""The Bloch transform, band masses, and the mixed (k, y) layer.

The Bloch transform goes from physical samples psi_{l,r} to coefficients
C_{l,m}, held (L, M), by a length-L DFT down the cells and one contraction
of each k-row against a stored table of windowed Bloch waves on the cell
grid; the Brillouin offset k = -1/2 is folded into an explicit sign (-1)^l
so a standard FFT applies.  Band masses follow from the coefficients by
Parseval, without rebuilding any band in physical space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .bands import BandTable
from .errors import ShapeMismatch, TruncationMismatch
from .grid import CellField, WaveField
from .potential import TWO_PI


def _cell_sign(L: int) -> np.ndarray:
    # exp(i*pi*(j-1)) = (-1)^(j-1): folds the -1/2 Brillouin offset into the DFT
    return np.where(np.arange(L) % 2 == 0, 1.0, -1.0)[:, None]


def _window_vectors(bands: BandTable) -> np.ndarray:
    """Eigenvector coefficients restricted to lam in {-R/2, ..., R/2 - 1}."""
    R = bands.grid.R
    if bands.Lambda <= R // 2:
        raise TruncationMismatch(
            f"band table Lambda = {bands.Lambda} <= R/2 = {R // 2}")
    lo = bands.Lambda - R // 2
    return bands.vectors[:, :, lo:lo + R]


def _bloch_waves(chi: np.ndarray, L: int, R: int) -> np.ndarray:
    """W[l, m, r] = sum_lam chi[l, m, lam] exp(2*pi*i*(L*lam + l - L/2)r/(LR)),
    the windowed Bloch wave exp(i k_l y_r) chi_m(y_r, k_l) on the cell grid
    (0-based l, r; lam in {-R/2, ..., R/2 - 1}): R times the inverse length-R
    DFT over lam, times the twiddle (-1)^r exp(i*pi*(2l - L)*r/(LR)).  The
    twiddle's phase index (2l - L + LR)*r, whose LR*r term is the (-1)^r, is
    reduced mod 2LR in integers, so every phase lies within one turn."""
    W = scipy.fft.ifft(chi, axis=2)
    l, r = np.arange(L)[:, None], np.arange(R)
    q = (2 * l - L + L * R) * r % (2 * L * R)
    twiddle = np.exp((1j * np.pi / (L * R)) * q)
    twiddle *= R
    W *= twiddle[:, None, :]
    return W


class BlochTransform:
    """Physical samples <-> Bloch coefficients C_{l,m} of one band table.

    The cell-space form of the FFT-based Bloch decomposition: `forward`
    takes X = the length-L DFT of (-1)^l psi_{l,r} down the cells (row l of
    X is at k_l) and contracts each row against the stored Bloch waves,
    C_{l,m} = (2*pi/R) sum_r conj(W[l, m, r]) X[l, r]; `backward` is the
    reverse.  The same formula holds for every L, odd or even.  `analyse`
    and `synthesise` are the same pair on the cell field (-1)^l psi_{l,r},
    and `folded_pair` gives that pair without its constants 2*pi/R and
    1/(2*pi), with a flow table for each side that carries them instead.
    Coefficients, Parseval weights and Gram matrices are all (L, M) per
    k-row, the contraction's own layout.  A real band table gives real
    weights and Gram matrices formed in real arithmetic."""

    def __init__(self, bands: BandTable):
        L, R = self.shape = (bands.grid.L, bands.grid.R)
        self.chi = _window_vectors(bands).transpose(1, 0, 2)  # (L, M, R) view
        self.waves = _bloch_waves(self.chi, L, R)  # (L, M, R)
        self.sign = _cell_sign(L)
        a = self.chi.real  # |chi|^2 with no (L, M, R) temporary
        self.weights = np.einsum("lmr,lmr->lm", a, a)  # (L, M)
        if np.iscomplexobj(self.chi):
            b = self.chi.imag
            self.weights += np.einsum("lmr,lmr->lm", b, b)

    def _contract(self, X: np.ndarray) -> np.ndarray:
        """The unscaled (L, M) contraction sum_r conj(W[l, m, r]) X[l, r] of
        the (L, R) cell field X; may overwrite X."""
        # conj(W . conj(X)) = conj(W) . X, without a conjugated copy of W
        np.conjugate(X, out=X)
        C = np.matmul(self.waves, X[:, :, None])[:, :, 0]
        np.conjugate(C, out=C)
        return C

    def _expand(self, C: np.ndarray) -> np.ndarray:
        """The unscaled (L, R) cell field sum_m C_{l,m} W[l, m, r], C (L, M).
        Unit-coefficient-norm eigenvectors carry ||chi||^2_{L2(C)} = 2*pi,
        which the projection constant 2*pi/R does not divide out: the cell
        field of C is _expand(C / (2*pi))."""
        return np.matmul(C[:, None, :], self.waves)[:, 0, :]

    def _project(self, X: np.ndarray) -> np.ndarray:
        """C (L, M) of the (L, R) cell field X, (2*pi/R) _contract(X); may
        overwrite X."""
        if X.shape != self.shape:
            raise ShapeMismatch("band table grid does not match the field grid")
        C = self._contract(X)
        C *= TWO_PI / self.shape[1]
        return C

    def _analysis(self, cells: np.ndarray) -> np.ndarray:
        """analyse without its constant 2*pi/R; may overwrite cells."""
        return self._contract(scipy.fft.fft(cells, axis=0, overwrite_x=True))

    def _synthesis(self, C: np.ndarray) -> np.ndarray:
        """synthesise without its constant 1/(2*pi)."""
        return scipy.fft.ifft(self._expand(C), axis=0, overwrite_x=True)

    def folded_pair(self, flow: np.ndarray) -> tuple:
        """(pre_flow, synthesis, analysis, post_flow) for an (L, M) flow
        table: synthesis(C * pre_flow) is synthesise(C * flow) and
        analysis(cells) * post_flow is analyse(cells) * flow, up to
        round-off.  The pair is `_synthesis` and `_analysis`, and the
        tables flow/(2*pi) and flow*2*pi/R carry its constants, so a step
        that multiplies by a flow table pays no pass for them."""
        return (flow / TWO_PI, self._synthesis, self._analysis,
                flow * (TWO_PI / self.shape[1]))

    def analyse(self, cells: np.ndarray) -> np.ndarray:
        """(L, M) coefficients of the cell field; may overwrite it."""
        return self._project(scipy.fft.fft(cells, axis=0, overwrite_x=True))

    def synthesise(self, C: np.ndarray) -> np.ndarray:
        """The cell field of the (L, M) coefficients."""
        return self._synthesis(C / TWO_PI)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Coefficients C, shape (L, M), of the (L, R) physical samples."""
        if values.shape != self.shape:
            raise ShapeMismatch("band table grid does not match the field grid")
        return self.analyse(values * self.sign)

    def backward(self, C: np.ndarray) -> np.ndarray:
        """(L, R) samples of sum_m C_{l,m} chi_{m,l}; the inverse of forward
        on fields spanned by the first M bands."""
        psi = self.synthesise(C)
        psi *= self.sign
        return psi

    def gram(self) -> np.ndarray:
        """Window Gram matrices G_l[m', m] = sum_r conj(chi_{m'lr}) chi_{mlr},
        shape (L, M, M), so that forward(backward(C))_l = G_l C_l up to
        FFT round-off.  G differs from I where the bands leak out of the
        R-mode window.  A real chi gives the real G = chi chi^T."""
        chi_t = self.chi.transpose(0, 2, 1)
        if np.iscomplexobj(self.chi):
            return np.conj(self.chi) @ chi_t
        return self.chi @ chi_t

    def band_norms(self, C: np.ndarray) -> np.ndarray:
        """Discrete L2 norm of each single-band part of backward(C), (M,),
        for (L, M) coefficients C.  By Parseval over the length-L cell
        transform and the length-R window transform, band m has squared norm
        sum_l |C_{l,m}|^2 ||chi_win,{m,l}||^2 / (2*pi*L^2)."""
        L = self.shape[0]
        # |C|^2 as the real part of conj(C) C: no square root per entry
        return np.sqrt(np.einsum("lm,lm->m", (C.conj() * C).real, self.weights)
                       / (TWO_PI * L * L))

    def masses(self, values: np.ndarray) -> np.ndarray:
        """Discrete L2 norm of each single-band part of the samples, (M,)."""
        return self.band_norms(self.forward(values))


def band_masses(psi: WaveField, bands: BandTable) -> np.ndarray:
    """Discrete L2 norm of each single-band reconstruction of psi, shape (M,)."""
    return BlochTransform(bands).masses(psi.values)


# The mixed (k, y) layer: the cell transform psi_{l,r} -> psi~_{l,r} at
# (k_l, y_r) and (M, L) coefficients on it.  No module of this package calls
# it; it stays only because perfbench/workloads.py imports it, and goes with
# the benchmark's move onto BlochTransform (ROADMAP item 2).

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


def cell_forward(psi: WaveField) -> CellField:
    """psi~_{l,r} = sum_j psi_{j,r} exp(-2*pi*i k_l (j-1)), a length-L DFT per r."""
    tilde = np.fft.fft(psi.values * _cell_sign(psi.grid.L), axis=0)
    return CellField(psi.grid, tilde)


def cell_inverse(tilde: CellField) -> WaveField:
    """psi_{l,r} = (1/L) sum_j psi~_{j,r} exp(2*pi*i k_j (l-1)); inverse of cell_forward."""
    psi = np.fft.ifft(tilde.values, axis=0) * _cell_sign(tilde.grid.L)
    return WaveField(tilde.grid, psi)


def band_project(tilde: CellField, bands: BandTable) -> BlochCoeffs:
    """Bloch coefficients C_{m,l} = (2*pi/R) sum over the windowed Fourier modes."""
    C = BlochTransform(bands)._project(tilde.values.copy())
    return BlochCoeffs(bands, C.T)


def band_reconstruct(coeffs: BlochCoeffs) -> CellField:
    """Sum of band contributions; normalized so reconstruct(project(.)) is the
    identity on fields spanned by the first M bands."""
    bands = coeffs.bands
    return CellField(bands.grid, BlochTransform(bands)._expand(
        coeffs.values.T / TWO_PI))
