"""Truncated Bloch eigenproblem: assembly, solve, gauge fixing, and band queries.

The shifted Hamiltonian acts on the 2*Lambda lowest Fourier modes of the
periodic eigenfunction part; its matrix entry (i, j) (1-based) is
V-hat(i - j) + delta_ij * (1/2) * (k - Lambda + i - 1)^2.  Eigenvectors are
stored with unit Euclidean norm in coefficient space and a parallel-transport
gauge along the k-grid.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    BandCountExceedsTruncation,
    BandGapTooSmall,
    BandIndexOutOfRange,
    DegenerateCurvature,
    EigensolverFailure,
    IoFailure,
    TruncationTooSmall,
)
from .grid import SimulationGrid, read_file, write_file
from .potential import PeriodicPotential

_CACHE_MAGIC = b"BDBT"


def assemble_hk(V: PeriodicPotential, k: float, Lambda: int) -> np.ndarray:
    """Dense Hermitian 2*Lambda x 2*Lambda matrix of the shifted Hamiltonian."""
    if Lambda < 1:
        raise ValueError("Lambda must be >= 1")
    if V.Lambda < Lambda:
        raise TruncationTooSmall(
            f"potential stores |lam| < {2 * V.Lambda}, need up to {2 * Lambda - 1}")
    n = 2 * Lambda
    i = np.arange(1, n + 1)
    H = V.vhat(i[:, None] - i[None, :])
    H[np.diag_indices(n)] += 0.5 * (k - Lambda + i - 1) ** 2
    herm_defect = np.max(np.abs(H - H.conj().T))
    if herm_defect > 1e-14 * max(1.0, np.max(np.abs(H))):
        raise EigensolverFailure(f"assembled matrix not Hermitian ({herm_defect:g})")
    return H


GAP_FLOOR = 1e-8  # a band closer than this to a neighbour counts as degenerate
# a table node whose real solve has eps_mach ||H||_inf / gap above this takes
# the complex solve: a real and a complex eigensolver part by about that much
_REAL_COND_MAX = 1e-12
_OVERLAP_FLOOR = 1e-12  # neighbour overlaps at or below this restart the gauge
_RQI_STEPS = 8  # cap on the Rayleigh-quotient steps of one block
_RESIDUAL_FACTOR = 4  # accept ||Hv - sigma v|| <= this * eps_mach * ||H||
_SUPPORT_MARGIN = 2  # rows kept on each side of the guesses' support


def _hamiltonian_parts(V: PeriodicPotential, Lambda: int):
    """(T, e), the k-independent part of H(k) = T + diag(_kinetic(k)): the
    Toeplitz part V-hat(i - j), checked Hermitian once (H(0) with V-hat(0)
    put back), and the real sub-diagonal when H(k) is unreduced real
    tridiagonal, with simple eigenvalues: V-hat real, zero for |lam| >= 2 and
    nonzero at +-1 (the cosine lattice).  e is None for every other
    potential.  Only the lower triangle is read."""
    T = assemble_hk(V, 0.0, Lambda)
    T[np.diag_indices_from(T)] = V.vhat(0)
    e = np.diagonal(T, -1).real
    tridiag = _is_real(V, Lambda) and e.all() and not np.tril(T, -2).any()
    return T, (e if tridiag else None)


def _is_real(V: PeriodicPotential, Lambda: int) -> bool:
    """Whether H(k) has a real lower triangle, V-hat(0..2*Lambda-1): its
    eigenvectors are then real, and a band table stores them as float64."""
    return not V.vhat(np.arange(2 * Lambda)).imag.any()


def _kinetic(Lambda: int, ks) -> np.ndarray:
    """The kinetic diagonals (1/2)(k - Lambda + i - 1)^2, (nk, 2*Lambda)."""
    return 0.5 * (ks[:, None] - Lambda + np.arange(1, 2 * Lambda + 1) - 1) ** 2


def _lowest_eigenpairs(parts, Lambda: int, ks, lo: int, hi: int,
                       keep: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs lo..hi (0-based, ascending) of H(k) = T + diag(_kinetic(k)),
    (T, e) = parts, for each k in 1-D ks: energies (hi-lo+1, nk) and the
    unit-norm vectors (keep, nk, 2*Lambda) of the first keep (all by
    default).  eigh_tridiagonal when e is given, with real vectors; else one
    direct LAPACK call per k in T's dtype, dsyevr or zheevr, with scipy's
    subset-eigh arguments on one Fortran-order H overwritten per node and the
    workspace queried once.  A failure raises EigensolverFailure naming k."""
    T, e = parts
    n, keep = 2 * Lambda, keep or hi - lo + 1
    kin = _kinetic(Lambda, ks)
    if e is None:
        name = "zheevr" if np.iscomplexobj(T) else "dsyevr"
        evr, query = scipy.linalg.lapack.get_lapack_funcs(
            (name[1:], name[1:] + "_lwork"), (T,))
        # zheevr's query returns lwork, lrwork and liwork; dsyevr's no lrwork
        sizes = ("lwork", "lrwork", "liwork")[::1 if name == "zheevr" else 2]
        work = dict(zip(sizes, (int(x.real) for x in query(n, lower=1)[:-1])))
        H0 = np.asfortranarray(T)
        H = np.empty_like(H0)
        diag = H.ravel(order="K")[::n + 1]  # a view of H's diagonal
    energies = np.empty((hi - lo + 1, ks.size))
    vectors = np.empty((keep, ks.size, n), dtype=float if e is not None else T.dtype)
    for j, k in enumerate(ks):
        if e is not None:
            try:
                w, z = scipy.linalg.eigh_tridiagonal(
                    T.diagonal().real + kin[j], e, select="i", select_range=(lo, hi))
            except scipy.linalg.LinAlgError as exc:
                raise EigensolverFailure(f"eigensolver failed at k = {k}: {exc}") from exc
        else:
            np.copyto(H, H0)
            np.add(T.diagonal(), kin[j], out=diag)
            w, z, _, _, info = evr(H, range="I", lower=1, il=lo + 1, iu=hi + 1,
                                   overwrite_a=1, **work)
            if info:
                raise EigensolverFailure(
                    f"LAPACK {name} failed at k = {k} (info = {info})")
        energies[:, j] = w[:hi - lo + 1]
        vectors[:, j] = z[:, :keep].T
    vectors /= np.linalg.norm(vectors, axis=2, keepdims=True)
    return energies, vectors


def _conditioning(T: np.ndarray, Lambda: int, ks, energies) -> np.ndarray:
    """eps_mach ||H(k)||_inf / gap for each k in 1-D ks, the gap being the
    smallest distance between neighbouring rows of energies (bands, nk); a
    zero gap gives an infinite conditioning."""
    off = np.abs(T)
    off[np.diag_indices_from(off)] = 0.0
    norm = (off.sum(axis=1) + np.abs(T.diagonal() + _kinetic(Lambda, ks))).max(axis=1)
    with np.errstate(divide="ignore"):
        return np.finfo(float).eps * norm / np.diff(energies, axis=0).min(axis=0)


def _tridiagonal_apply(d: np.ndarray, b: float, v: np.ndarray) -> np.ndarray:
    """H v column by column, for diagonals d (n, B) and off-diagonal b."""
    out = d * v
    out[1:] += b * v[:-1]
    out[:-1] += b * v[1:]
    return out


def _pivots(a: np.ndarray, b: float) -> np.ndarray:
    """The LDL^T pivots, in place, of the tridiagonal matrices with diagonals
    a (n, B) and off-diagonal b: a_i - b^2 / a_{i-1}, down each column."""
    b2 = b * b
    with np.errstate(all="ignore"):
        for i in range(1, a.shape[0]):
            a[i] -= b2 / a[i - 1]
    return a


def _twisted_rqi(d: np.ndarray, b: float, v: np.ndarray,
                 floor: np.ndarray) -> np.ndarray:
    """Rayleigh-quotient iteration on the columns of v (n, B) for the real
    symmetric tridiagonal matrices with diagonals d (n, B) and off-diagonal b.

    Each step solves (H - sigma) z = gamma_r e_r through the twisted
    factorisation of H - sigma (Dhillon & Parlett 2004; Parlett, The
    Symmetric Eigenvalue Problem, ch. 4): forward and backward LDL^T pivots
    (the backward ones are the forward pivots of the reversed diagonal, since
    b is constant), the twist r = argmin |gamma|, and z, with z_r = 1, as two
    running products of the multipliers.  The shift then moves by z's
    Rayleigh correction gamma_r / |z|^2.  A column is done once its
    correction stops shrinking, or one step after it fell to its round-off
    floor (B,), so that its last z comes from a shift already converged; the
    iteration stops when every column is done, or after _RQI_STEPS steps, and
    returns each column's last finite z, unnormalised and unchecked.  A guess
    that is already the eigenvector makes H - sigma singular to round-off,
    so the next z can overflow to NaN; the column then keeps its previous
    iterate (the start vector before the first step)."""
    n, B = d.shape
    sigma = np.einsum("ij,ij->j", v, _tridiagonal_apply(d, b, v)) \
        / np.einsum("ij,ij->j", v, v)
    below = np.arange(n - 1)[:, None]
    last = np.full(B, np.inf)
    live = np.ones(B, dtype=bool)
    out = v.copy()
    with np.errstate(all="ignore"):
        for _ in range(_RQI_STEPS):
            a = d - sigma
            piv = _pivots(np.hstack([a, a[::-1]]), b)
            fwd, bwd = piv[:, :B], piv[::-1, B:]
            gamma = fwd + bwd - a
            r = np.argmin(np.abs(gamma), axis=0)
            # z_i = -b / fwd_i * z_{i+1} above the twist, and
            # z_{i+1} = -b / bwd_{i+1} * z_i below it
            up = np.where(below < r, -b / fwd[:-1], 1.0)
            down = np.where(below >= r, -b / bwd[1:], 1.0)
            z = np.ones((n, B))
            z[:-1] = np.cumprod(up[::-1], axis=0)[::-1]
            z[1:] *= np.cumprod(down, axis=0)
            np.copyto(out, z, where=np.isfinite(z).all(axis=0))
            step = gamma[r, np.arange(B)] / np.einsum("ij,ij->j", z, z)
            sigma = sigma + step
            prev, last = last, np.abs(step)
            live &= (last < prev) & (prev > floor)
            if not live.any():
                break
    return out


def _support(v: np.ndarray) -> slice:
    """The rows of v (n, B) from the first to the last where some column is
    above round-off relative to its largest entry, widened by
    _SUPPORT_MARGIN rows on each side and clipped to the matrix."""
    a = np.abs(v)
    rows = np.flatnonzero((a > np.finfo(float).eps * a.max(axis=0)).any(axis=1))
    return slice(max(0, rows[0] - _SUPPORT_MARGIN),
                 rows[-1] + 1 + _SUPPORT_MARGIN)


def _band_vectors(parts, Lambda: int, ks, m: int,
                  guess: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of band m (1-based) of H(k), one row per k in 1-D ks,
    each close to its row of guess (nk, 2*Lambda); phases unaligned.  parts
    is _hamiltonian_parts(V, Lambda), built once by the caller.

    On the cosine lattice the block runs _twisted_rqi from the guess rows,
    made real by the phase of their largest entry, on the guesses' numerical
    support (_support): the eigenvector decays like 1/(j!)^2 j rows away
    from its band's Fourier centre, so the rest of it is zero to round-off
    and is padded back as zeros.  A key is accepted when its vector is
    finite, its residual in the full H is at most _RESIDUAL_FACTOR eps_mach
    ||H|| and H has m - 1 eigenvalues below sigma - GAP_FLOOR and m below
    sigma + GAP_FLOOR (negative pivots, by Sylvester's law of inertia), which
    checks the band index and the gap in one test; a support that cut off a
    tail above round-off fails the residual test.  Every other key takes
    _lowest_eigenpairs, which raises EigensolverFailure, and BandGapTooSmall
    is raised when band m there is within GAP_FLOOR of a neighbour."""
    T, e = parts
    vectors = np.empty(guess.shape, dtype=complex)
    rest = np.ones(ks.size, dtype=bool)
    if e is not None:
        b = float(e[0])  # the Toeplitz sub-diagonal is V-hat(1) throughout
        d = (T.diagonal().real + _kinetic(Lambda, ks)).T
        floor = np.finfo(float).eps * (np.abs(d).max(axis=0) + 2 * abs(b))
        top = guess[np.arange(ks.size), np.argmax(np.abs(guess), axis=1)]
        start = (guess * top.conj()[:, None]).real.T
        rows = _support(start)
        z = np.zeros(d.shape)
        z[rows] = _twisted_rqi(d[rows], b, start[rows], floor)
        with np.errstate(all="ignore"):
            v = z / np.linalg.norm(z, axis=0)
            hv = _tridiagonal_apply(d, b, v)
            sigma = np.einsum("ij,ij->j", v, hv)
            residual = np.linalg.norm(hv - sigma * v, axis=0)
            below = np.count_nonzero(_pivots(np.hstack(
                [d - (sigma - GAP_FLOOR), d - (sigma + GAP_FLOOR)]), b) < 0,
                axis=0).reshape(2, -1)
        rest = ~(np.isfinite(v).all(axis=0)
                 & (residual <= _RESIDUAL_FACTOR * floor)
                 & (below[0] == m - 1) & (below[1] == m))
        vectors[~rest] = v.T[~rest]
    if rest.any():
        lo, hi = max(0, m - 2), min(2 * Lambda - 1, m)
        vals, vecs = _lowest_eigenpairs(parts, Lambda, ks[rest], lo, hi)
        gap = band_gap(vals, m - 1 - lo)
        j = int(np.argmin(gap))
        if gap[j] <= GAP_FLOOR:
            raise BandGapTooSmall(
                f"band {m} gap {gap[j]:g} at k = {ks[rest][j]:g}")
        vectors[rest] = vecs[m - 1 - lo]
    return vectors


@dataclass
class BandTable:
    """Energies and gauge-aligned eigenvector coefficients per (band, k-node).

    energies[m, l] = E_{m+1}(k_l); vectors[m, l, :] are the 2*Lambda Fourier
    coefficients of chi_{m+1}(., k_l) for lam in {-Lambda, ..., Lambda-1},
    normalized to unit coefficient norm.  vectors is float64 when the
    potential's H(k) has a real lower triangle (an even lattice: the cosine,
    Kronig-Penney and free lattices), whose eigenvectors are real up to a
    phase that the gauge fixes, and complex128 otherwise; every consumer
    accepts either.
    """

    grid: SimulationGrid
    M: int
    Lambda: int
    energies: np.ndarray  # (M, L)
    vectors: np.ndarray   # (M, L, 2*Lambda) float64 or complex128
    potential: PeriodicPotential
    gauge_tag: str = "parallel-transport, anchor: largest coefficient real positive"

    @property
    def k_nodes(self) -> np.ndarray:
        return self.grid.k_nodes

    def check_band(self, m: int) -> None:
        if not 1 <= m <= self.M:
            raise BandIndexOutOfRange(f"band {m} not in 1..{self.M}")


def solve_bands(V: PeriodicPotential, grid: SimulationGrid, Lambda: int,
                M: int) -> BandTable:
    """Solve the truncated eigenproblem at every k-node and fix the gauge.

    Every node is one _lowest_eigenpairs solve: eigh_tridiagonal on the
    cosine lattice, and one direct LAPACK call per node elsewhere, whose
    routine follows T's dtype.  When H(k) is dense with a real lower
    triangle (Kronig-Penney, the free lattice) the nodes are solved with the
    real T by dsyevr for bands 1..M+1, and the nodes whose conditioning
    (_conditioning, from the gap among those bands) exceeds _REAL_COND_MAX
    are solved again with the complex T by zheevr, whose vectors have a zero
    imaginary part on a real H(k) and are stored by their real part; the
    asymmetric potentials take zheevr at every node.  The table is real
    exactly when H(k) is (_is_real).  Eigenvectors are aligned along k by
    _transport_gauge.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if M > 2 * Lambda:
        raise BandCountExceedsTruncation(f"M = {M} > 2*Lambda = {2 * Lambda}")
    if 2 * Lambda <= grid.R:
        raise TruncationTooSmall(
            f"need Lambda > R/2 (Lambda={Lambda}, R={grid.R})")
    ks = grid.k_nodes
    parts = _hamiltonian_parts(V, Lambda)
    if parts[1] is None and _is_real(V, Lambda):
        T = parts[0].real
        # band M+1 gives band M its upper gap; there is none when M = 2*Lambda
        energies, vectors = _lowest_eigenpairs(
            (T, None), Lambda, ks, 0, min(M, 2 * Lambda - 1), keep=M)
        bad = _conditioning(T, Lambda, ks, energies) > _REAL_COND_MAX
        energies = energies[:M]
        if bad.any():
            energies[:, bad], fallback = _lowest_eigenpairs(
                parts, Lambda, ks[bad], 0, M - 1)
            vectors[:, bad] = fallback.real
    else:
        energies, vectors = _lowest_eigenpairs(parts, Lambda, ks, 0, M - 1)
    for band in vectors:
        _transport_gauge(band)
    return BandTable(grid=grid, M=M, Lambda=Lambda, energies=energies,
                     vectors=vectors, potential=V)


def _transport_gauge(band: np.ndarray) -> None:
    """Parallel-transport gauge, in place, along the rows of band (L, n) of
    unit vectors, real or complex: row l is multiplied by the cumulative
    product of the unit phases conj(o)/|o| (+-1 for real rows) of the
    neighbour overlaps o = <v_{l-1}, v_l> of the raw rows.  The product
    restarts at row 0 and at each row whose overlap is at most
    _OVERLAP_FLOOR, with the phase that makes that row's largest-magnitude
    entry real positive.  Each phase is put back on the unit circle, so the
    round-off of the product does not scale the rows."""
    o = np.vecdot(band[:-1], band[1:])
    a = np.abs(o)
    starts = np.concatenate(([0], np.flatnonzero(a <= _OVERLAP_FLOOR) + 1))
    phase = np.empty(len(band), dtype=band.dtype)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(o.conj(), a, out=phase[1:])
    top = band[starts, np.argmax(np.abs(band[starts]), axis=1)]
    phase[starts] = top.conj() / np.abs(top)
    for s, t in zip(starts, np.append(starts[1:], len(band))):
        np.cumprod(phase[s:t], out=phase[s:t])
    phase /= np.abs(phase)
    band *= phase[:, None]


def fold_k(k) -> np.ndarray:
    """Fold quasi-momenta into [-1/2, 1/2) by periodicity of the dual lattice."""
    return np.mod(np.asarray(k, dtype=float) + 0.5, 1.0) - 0.5


# power-table entries _trig_interpolant forms at once: 256 KB of complex128
_TRIG_BLOCK = 2 ** 14


def _trig_interpolant(table: BandTable, m: int, deriv: int):
    """deriv-th k-derivative of the period-1 trigonometric interpolant of E_m,
    as a function of k; its coefficients are formed once, here.

    Collocates the stored values at the k-nodes.  With s = k + 1/2 (the
    phase relative to the first node k_1 = -1/2) and z = exp(2*pi*i*s) on
    the unit circle, the interpolant is Re sum_{j <= L/2} a_j z^j: a_j is
    twice the j-th DFT coefficient, except a_0 and, for even L, the Nyquist
    coefficient, which enters symmetrized as a_{L/2} cos(pi*L*s) so that the
    interpolant is real.  A k-derivative multiplies a_j by 2*pi*i*j, which
    gives the Nyquist term's exact -pi*L*a_{L/2} sin(pi*L*s).  The
    polynomial is split into B blocks of B coefficients, B ~ sqrt(L/2):
    z^0..z^{B-1} and (z^B)^0..(z^B)^{B-1} come from cumulative products, so
    a point costs about 2*sqrt(L/2) multiplications rather than L complex
    exponentials.
    """
    table.check_band(m)
    L = table.grid.L
    a = np.fft.rfft(table.energies[m - 1]) / L
    a[1:(L + 1) // 2] *= 2.0
    if deriv:
        a *= (2j * np.pi * np.arange(a.size)) ** deriv
    B = math.isqrt(a.size - 1) + 1
    blocks = np.zeros(B * B, dtype=complex)
    blocks[:a.size] = a
    blocks = blocks.reshape(B, B).T  # blocks[r, q] = a_{qB + r}
    rows = max(1, _TRIG_BLOCK // (2 * B))

    def interpolant(k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        s = (k + 0.5).reshape(-1)
        out = np.empty(s.shape)
        for b in range(0, s.size, rows):
            sb = s[b:b + rows]
            # rows z^0..z^{B-1} of each point, then (z^B)^0..(z^B)^{B-1}
            powers = np.repeat(np.exp(2j * np.pi * np.outer((1, B), sb)).reshape(
                -1, 1), B, axis=1)
            powers[:, 0] = 1.0
            np.cumprod(powers, axis=1, out=powers)
            out[b:b + rows] = np.einsum("pq,pq->p", powers[:sb.size] @ blocks,
                                        powers[sb.size:]).real
        return out.reshape(k.shape)

    return interpolant


def eval_band(table: BandTable, m: int, k) -> np.ndarray:
    """Band energy at arbitrary k via trigonometric interpolation of period 1."""
    return _trig_interpolant(table, m, 0)(k)


def eval_band_deriv(table: BandTable, m: int, k) -> np.ndarray:
    """dE_m/dk of the trigonometric interpolant."""
    return _trig_interpolant(table, m, 1)(k)


def eval_chi(table: BandTable, m: int, k_index: int, y) -> np.ndarray:
    """chi_m(y, k_l) = sum_lam chi-hat(lam, k_l) exp(i*lam*y)."""
    table.check_band(m)
    if not 0 <= k_index < table.grid.L:
        raise BandIndexOutOfRange(f"k index {k_index} not in 0..{table.grid.L - 1}")
    lam = np.arange(-table.Lambda, table.Lambda)
    y = np.asarray(y, dtype=float)
    return np.tensordot(np.exp(1j * np.multiply.outer(y, lam)),
                        table.vectors[m - 1, k_index], axes=1)


def _neighbor_vector(table: BandTable, m: int, l) -> np.ndarray:
    """Eigenvectors at node indices l (an int or int array), periodically
    wrapped: crossing the zone edge maps chi-hat(lam, k+1) = chi-hat(lam+1, k),
    so a wrapped vector is the stored one shifted by l // L slots, with the
    spilled coefficients dropped."""
    v = table.vectors[m - 1, np.mod(l, table.grid.L)]
    src = np.arange(v.shape[-1]) + np.floor_divide(l, table.grid.L)[..., None]
    inside = (src >= 0) & (src < v.shape[-1])
    return np.where(inside, np.take_along_axis(
        v, np.clip(src, 0, v.shape[-1] - 1), axis=-1), 0)


def band_gap(energies: np.ndarray, i: int) -> np.ndarray:
    """Distance of row i of energies (bands first) to its nearest neighboring row."""
    near = [j for j in (i - 1, i + 1) if 0 <= j < len(energies)]
    return np.abs(energies[near] - energies[i]).min(axis=0, initial=np.inf)


def berry_connection(table: BandTable, m: int, k_index: int) -> complex:
    """Centered difference of the gauge-aligned neighbours, projected on chi_m.

    Each neighbour v+- of v0 = chi_m(k_l) is rotated onto v0 first, so the
    result is (|<v0, v+>| - |<v0, v->|) / (2 dk): real, with zero imaginary
    part.  It is not the purely imaginary Berry connection <chi_m, d_k chi_m>:
    it estimates that connection's real part, which is zero for a smooth
    unit-norm family, so only its finite-difference error remains.  Inner
    products are taken in coefficient space, where the stored vectors have
    unit norm.
    """
    table.check_band(m)
    if band_gap(table.energies[:, k_index], m - 1) <= GAP_FLOOR:
        raise BandGapTooSmall(f"band {m} nearly degenerate at node {k_index}")
    L = table.grid.L
    dk = 1.0 / L
    v0 = table.vectors[m - 1, k_index]
    vp = _neighbor_vector(table, m, k_index + 1)
    vm = _neighbor_vector(table, m, k_index - 1)

    def aligned(v):
        ov = np.vdot(v0, v)
        return v * np.conj(ov) / abs(ov)

    beta = np.vdot(v0, (aligned(vp) - aligned(vm)) / (2.0 * dk))
    return complex(beta)


def effective_mass(table: BandTable, m: int, k0: float,
                   h: float | None = None) -> float:
    """1 / E_m''(k0) from a central second difference on the interpolant.

    The stencil width defaults to the k-grid spacing so that a node-centered
    stencil collocates exact table values (the interpolant's own curvature is
    unreliable for bands with a periodization kink, e.g. the free particle).
    """
    table.check_band(m)
    if h is None:
        h = 1.0 / table.grid.L
    e = eval_band(table, m, np.array([k0 - h, k0, k0 + h]))
    curv = (e[0] - 2.0 * e[1] + e[2]) / h ** 2
    if abs(curv) < 1e-10:
        raise DegenerateCurvature(f"|E''({k0})| = {abs(curv):g} < 1e-10")
    return 1.0 / curv


def save_band_cache(table: BandTable, path) -> None:
    """Binary cache: magic, u32 L/M/Lambda, f64 epsilon, u64 potential hash,
    u64 payload checksum, then energies (f64) and coefficients (f64 pairs)
    in (m, l, lam) order.  A real table writes +0.0 imaginary halves."""
    inter = np.stack([table.vectors.real, table.vectors.imag], axis=-1)
    payload = table.energies.astype("<f8").tobytes() + inter.astype("<f8").tobytes()
    digest = int.from_bytes(
        hashlib.sha256(payload).digest()[:8], "little")
    header = _CACHE_MAGIC + struct.pack(
        "<IIIdQQ", table.grid.L, table.M, table.Lambda,
        table.grid.epsilon, table.potential.content_hash(), digest)
    write_file(path, header + payload)


def load_band_cache(path, grid: SimulationGrid,
                    V: PeriodicPotential) -> BandTable:
    """Load a cache written by save_band_cache, verifying the potential hash,
    the payload checksum and the payload length.  The vectors come back
    real, as solve_bands gives them, when the potential's H(k) is real and
    every imaginary half is zero (of either sign), and complex otherwise."""
    head_size = 4 + struct.calcsize("<IIIdQQ")
    blob = read_file(path)
    head, payload = blob[:head_size], blob[head_size:]
    if len(head) != head_size or head[:4] != _CACHE_MAGIC:
        raise IoFailure(f"{path}: bad band cache header")
    L, M, Lambda, epsilon, vhash, digest = struct.unpack("<IIIdQQ", head[4:])
    if L != grid.L or abs(epsilon - grid.epsilon) > 1e-15:
        raise IoFailure(f"{path}: cache grid (L={L}, eps={epsilon}) mismatch")
    if vhash != V.content_hash():
        raise IoFailure(f"{path}: potential hash mismatch")
    if int.from_bytes(hashlib.sha256(payload).digest()[:8],
                      "little") != digest:
        raise IoFailure(f"{path}: band cache payload checksum mismatch")
    if len(payload) != 8 * M * L * (1 + 4 * Lambda):
        raise IoFailure(f"{path}: payload of {len(payload)} bytes does not "
                        f"hold M={M}, L={L}, Lambda={Lambda}")
    energies = np.frombuffer(payload[:M * L * 8],
                             dtype="<f8").reshape(M, L).copy()
    raw = np.frombuffer(payload[M * L * 8:],
                        dtype="<f8").reshape(M, L, 2 * Lambda, 2)
    if _is_real(V, Lambda) and not raw[..., 1].any():
        vectors = raw[..., 0].copy()
    else:
        vectors = raw[..., 0] + 1j * raw[..., 1]
    return BandTable(grid=grid, M=M, Lambda=Lambda, energies=energies,
                     vectors=vectors, potential=V)
