"""Truncated Bloch eigenproblem: assembly, solve, gauge fixing, band queries,
and off-node Bloch eigenvectors (ChiInterpolator).

The shifted Hamiltonian acts on the 2*Lambda lowest Fourier modes of the
periodic eigenfunction part; its matrix entry (i, j) (1-based) is
V-hat(i - j) + delta_ij * (1/2) * (k - Lambda + i - 1)^2.  Eigenvectors are
stored with unit Euclidean norm in coefficient space and a parallel-transport
gauge along the k-grid.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from array import array
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg

from .errors import (
    BandCountExceedsTruncation,
    BandGapTooSmall,
    BandIndexOutOfRange,
    EigensolverFailure,
    IoFailure,
    NonFinite,
    ShapeMismatch,
    TruncationTooSmall,
)
from .grid import SimulationGrid, read_file, write_file
from .potential import _BLOCK, TWO_PI, PeriodicPotential, _fourier_sum, _powers

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
    # normalised 16 nodes at a time, so that the norm's temporaries are a
    # small part of the table (one per node cost 11 ms at 1024 nodes); each
    # row is summed as over the whole array
    for j in range(0, ks.size, 16):
        block = vectors[:, j:j + 16]
        block /= np.linalg.norm(block, axis=2, keepdims=True)
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


def _band_solve(parts, Lambda: int, ks, m: int):
    """(gap, vectors): the distance of band m (1-based) to its nearest
    neighbour and its unit eigenvectors, phases unaligned, at each k of 1-D
    ks, from one _lowest_eigenpairs solve of bands m-1..m+1, which raises
    EigensolverFailure.  parts is _hamiltonian_parts(V, Lambda)."""
    lo, hi = max(0, m - 2), min(2 * Lambda - 1, m)
    vals, vecs = _lowest_eigenpairs(parts, Lambda, ks, lo, hi)
    return band_gap(vals, m - 1 - lo), vecs[m - 1 - lo]


def _chebyshev_vectors(parts, Lambda: int, m: int):
    """(ks, interpolant): the k solved, in order, and band m's eigenvector as
    a function of 1-D k in [-1/2, 1/2], or None when the band has none.

    An isolated band's eigenvector is analytic in k (Kato 1966), so it is
    interpolated at the Chebyshev points cos(pi j / n) / 2, j = 0..n, for
    n = 16, 32, 64, 128, formed as sin(pi (n - 2j) / 2n) / 2 so that they
    are exactly symmetric.  Each grid holds the one before it, whose nodes
    are not solved again, and k = 0 and +-1/2, where the gaps of a 1-D
    lattice are smallest.  Each node is gauged by making real positive the
    coefficient whose smallest magnitude over the nodes is largest.  The
    first grid whose last n/4 Chebyshev coefficients (one DCT-I) are at most
    1e-13 of the largest is taken; there is none when no grid is, or when
    band m comes within GAP_FLOOR of a neighbour at a node.  The interpolant
    is _barycentric, whose vectors carry a real factor per k."""
    solved, vecs = [], None
    for n in (16, 32, 64, 128):
        nodes = 0.5 * np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n))
        solved.append(nodes if vecs is None else nodes[1::2])
        gap, new = _band_solve(parts, Lambda, solved[-1], m)
        if gap.min() <= GAP_FLOOR:
            break
        vecs = new if vecs is None else np.insert(
            vecs, np.arange(1, len(vecs)), new, axis=0)
        top = vecs[:, np.argmax(np.abs(vecs).min(axis=0))]
        values = vecs * (top.conj() / np.abs(top))[:, None]
        coeffs = np.abs(scipy.fft.dct(values, type=1, axis=0))
        if coeffs[-(n // 4):].max() <= 1e-13 * coeffs.max():
            return np.concatenate(solved), functools.partial(
                _barycentric, nodes, values)
    return np.concatenate(solved), None


def _barycentric(nodes: np.ndarray, values: np.ndarray,
                 k: np.ndarray) -> np.ndarray:
    """The polynomial through values (n + 1, ...) at the Chebyshev points
    nodes = cos(pi j / n) / 2, j = 0..n, at each k of 1-D k, times the
    nonzero real sum_j c_j(k) of the barycentric formula with weights
    c_j = (-1)^j / (k - nodes_j), halved at both ends (Berrut & Trefethen,
    SIAM Rev. 46, 2004): its numerator, whose value is linear in values.  A
    k on a node gets that node's row."""
    weights = np.resize([1.0, -1.0], len(nodes))
    weights[[0, -1]] *= 0.5
    d = k[:, None] - nodes
    hit = d == 0
    with np.errstate(divide="ignore"):
        c = weights / d
    on = hit.any(axis=1)
    c[on] = hit[on]
    return c @ values


def _unit_conj(ov):
    """Phase conj(ov)/|ov| aligning a vector to a reference; 1 where |ov| <= 1e-12."""
    a = np.abs(ov)
    return np.divide(np.conj(ov), a, out=np.ones_like(ov), where=a > 1e-12)


class ChiInterpolator:
    """Off-node Bloch eigenvector evaluation, gauge-matched to a band table.

    The band's eigenvector is interpolated in k from node solves made once,
    here (_chebyshev_vectors); a band with no interpolant has each distinct
    folded k of a call solved at that exact k by _band_solve, and raises
    BandGapTooSmall where band m is within GAP_FLOOR of a neighbour.  Each
    vector is normalised and its phase aligned by maximal real overlap with
    the linear interpolation of the two bracketing table vectors; both go
    into one complex factor per key, applied to that key's Fourier sum.
    """

    def __init__(self, bands: BandTable, m: int):
        bands.check_band(m)
        self.bands = bands
        self.m = m
        self._parts = _hamiltonian_parts(bands.potential, bands.Lambda)
        solved, self._interpolant = _chebyshev_vectors(
            self._parts, bands.Lambda, m)
        # k of every eigensolve, the interpolant's nodes first:
        # perfbench/workloads.py:320 and :385 read len(_cache) as the solve
        # count until ROADMAP item 1's recorder
        self._cache = array("d", solved.tolist())
        # keys or points evaluated at once: _BLOCK entries of rows or powers
        self._block = max(1, _BLOCK // (2 * bands.Lambda))
        # table vectors at node indices 0..L+1, which bracket every folded k,
        # each paired with its successor aligned to it so that a blend never
        # cancels (the wrapped node carries the band's gauge holonomy)
        nodes, ov = _node_overlaps(bands, m)
        self._pairs = nodes[:-1], nodes[1:] * _unit_conj(ov)[:, None]
        # gauge holonomy of the band across one zone: the smooth continuation
        # obeys chi(y, k+1) = h * exp(-i y) * chi(y, k), with h the phase that
        # aligns the wrapped node L to node L-1 (+-1, the Zak phase, for a
        # lattice potential with reflection symmetry; any unit phase without)
        self.holonomy = complex(_unit_conj(ov[-2]))

    def _solve(self, kf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rows, scale): coefficient rows at the folded kf, unnormalised
        and unaligned, and the factor per key that makes each row unit-norm
        and gauge-aligned."""
        pos = (kf + 0.5) * self.bands.grid.L  # fractional node index
        node = np.floor(pos).astype(int)
        w = (pos - node)[:, None]
        ref = (1 - w) * self._pairs[0][node] + w * self._pairs[1][node]
        if self._interpolant is None:
            gap, vecs = _band_solve(self._parts, self.bands.Lambda, kf, self.m)
            j = int(np.argmin(gap))
            if gap[j] <= GAP_FLOOR:
                raise BandGapTooSmall(
                    f"band {self.m} gap {gap[j]:g} at k = {kf[j]:g}")
            self._cache.extend(kf.tolist())
        else:
            vecs = self._interpolant(kf)
        norm = np.sqrt(np.vecdot(vecs, vecs).real)
        return vecs, _unit_conj(np.vecdot(ref, vecs) / norm) / norm

    def _rows(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, scale, inv): _solve's rows and factors at the distinct
        folded k of 1-D k, each evaluated once, and each point's index."""
        if not np.all(np.isfinite(k)):
            raise NonFinite("non-finite quasi-momentum")
        kf, inv = np.unique(fold_k(k), return_inverse=True)
        rows = np.empty((kf.size, 2 * self.bands.Lambda), dtype=complex)
        scale = np.empty(kf.size, dtype=complex)
        for b in range(0, kf.size, n := self._block):
            rows[b:b + n], scale[b:b + n] = self._solve(kf[b:b + n])
        return rows, scale, inv

    def coeffs(self, k: float) -> np.ndarray:
        """Unit-norm Fourier coefficients, lam in [-Lambda, Lambda), of chi_m
        at the folded k, with no slot move for its zone shift: coeffs(2.3)
        is the k = 0.3 vector."""
        rows, scale, _ = self._rows(np.array([float(k)]))
        return rows[0] * scale[0]

    def chi_values(self, k, y) -> np.ndarray:
        """chi_m(y_i, k_i) elementwise for k and y broadcast against each
        other; shapes that do not broadcast raise ShapeMismatch.

        k may lie outside the first zone: the cell function obeys
        chi(y, k + 1) = exp(-i y) chi(y, k), so the evaluation folds k and
        restores the zone-shift phase.  Without it the two-scale assembly
        a(x) chi(x/eps, k(x)) exp(i phi/eps) would be discontinuous wherever
        the phase gradient crosses a zone edge.

        With s the zone shift of k and c_j = chi-hat(j - Lambda, k), the sum
        sum_lam chi-hat(lam) exp(i (lam - s) y) is exp(-i (Lambda + s) y)
        times the polynomial sum_j c_j z^j in z = exp(i y), contracted with
        one _powers table per block of points: two complex exponentials per
        point rather than 2*Lambda.  The sum is linear in the row, so each
        key's normalisation and gauge phase multiply its sum, not its row.
        """
        try:
            k, y = np.broadcast_arrays(k, y)
        except ValueError:
            raise ShapeMismatch(f"k of shape {np.shape(k)} and y of shape "
                                f"{np.shape(y)} do not broadcast") from None
        kv, yv = k.astype(float).ravel(), y.astype(float).ravel()
        if not np.all(np.isfinite(yv)):
            raise NonFinite("non-finite cell coordinate")
        rows, scale, inv = self._rows(kv)
        shift = np.rint(kv - fold_k(kv))
        out = np.exp(-1j * (self.bands.Lambda + shift) * yv)
        out *= self.holonomy ** shift * scale[inv]
        for b in range(0, kv.size, n := self._block):
            powers = _powers(1j * yv[b:b + n], rows.shape[1])
            out[b:b + n] *= np.einsum("jp,jp->p", rows.T[:, inv[b:b + n]], powers)
        return out.reshape(k.shape or (1,))


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


def _trig_interpolant(table: BandTable, m: int, deriv: int):
    """deriv-th k-derivative of the period-1 trigonometric interpolant of E_m,
    as a function of k: Re sum_{j <= L/2} a_j exp(2*pi*i*j*s), s = k + 1/2
    (the phase relative to the first node, k = -1/2), by _fourier_sum, with
    a_j formed once, here, from the k-node values.  a_j is twice the j-th
    DFT coefficient, except a_0 and, for even L, the Nyquist coefficient,
    which enters as a_{L/2} cos(pi*L*s) so that the interpolant is real.  A
    k-derivative multiplies a_j by 2*pi*i*j, which gives the Nyquist term's
    exact derivative.
    """
    table.check_band(m)
    L = table.grid.L
    a = np.fft.rfft(table.energies[m - 1], norm="forward")
    a[1:(L + 1) // 2] *= 2.0
    for _ in range(deriv):
        a *= 2j * np.pi * np.arange(a.size)
    return _fourier_sum(a, TWO_PI, 0.5)


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


def _node_overlaps(table: BandTable, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, ov): band m's vectors at node indices 0..L+1, wrapped by
    _neighbor_vector, and their overlaps ov[l] = <v_l, v_{l+1}>, l = 0..L."""
    nodes = _neighbor_vector(table, m, np.arange(table.grid.L + 2))
    return nodes, np.einsum("ij,ij->i", nodes[:-1].conj(), nodes[1:])


def band_gap(energies: np.ndarray, i: int) -> np.ndarray:
    """Distance of row i of energies (bands first) to its nearest neighboring row."""
    near = [j for j in (i - 1, i + 1) if 0 <= j < len(energies)]
    return np.abs(energies[near] - energies[i]).min(axis=0, initial=np.inf)


def berry_connection(table: BandTable, m: int) -> np.ndarray:
    """Centered difference of the gauge-aligned neighbours, projected on
    chi_m, at every k-node: the real (L,) array
    (|<v_l, v_{l+1}>| - |<v_{l-1}, v_l>|) / (2 dk), v_l = chi_m(k_l), with
    the neighbour rows wrapped across the zone edge by _neighbor_vector.

    Each neighbour is rotated onto v_l first, so the result is real.  It is
    not the purely imaginary Berry connection <chi_m, d_k chi_m>: it
    estimates that connection's real part, which is zero for a smooth
    unit-norm family, so only its finite-difference error remains.  Inner
    products are taken in coefficient space, where the stored vectors have
    unit norm.  BandGapTooSmall when band m is within GAP_FLOOR of a
    neighbour at some node.
    """
    table.check_band(m)
    gap = band_gap(table.energies, m - 1)
    if gap.min() <= GAP_FLOOR:
        raise BandGapTooSmall(
            f"band {m} nearly degenerate at node {int(np.argmin(gap))}")
    ahead = np.abs(_node_overlaps(table, m)[1][:-1])  # |<v_l, v_{l+1}>|
    return (ahead - np.roll(ahead, 1)) * (table.grid.L / 2.0)


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
