"""The lowest-eigenpairs helper, the real table solve with its complex
fallback, the one-pass gauge, the batched tridiagonal eigenvector kernel and
the batched ChiInterpolator against the earlier per-k path (one assembled
dense complex eigh per k, sequential parallel transport) and the earlier
per-point chi_values loop, kept here as a test-local oracle."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blochstep import (
    ChiInterpolator,
    PeriodicPotential,
    build_grid,
    fold_k,
    from_samples,
    kronig_penney,
    mathieu,
    solve_bands,
)
from blochstep import bands, wkb
from blochstep.bands import _hamiltonian_parts, _lowest_eigenpairs
from blochstep.errors import BandGapTooSmall, EigensolverFailure, NonFinite

TOL = 1e-12


# ---- oracle: per-k assembly and dense eigh, per-point chi evaluation ----

def _oracle_hk(V, k, Lambda):
    i = np.arange(1, 2 * Lambda + 1)
    H = V.vhat(i[:, None] - i[None, :])
    H[np.diag_indices(2 * Lambda)] += 0.5 * (k - Lambda + i - 1) ** 2
    return H


def _oracle_eigenpairs(V, Lambda, ks, lo, hi):
    energies = np.empty((hi - lo + 1, len(ks)))
    vectors = np.empty((hi - lo + 1, len(ks), 2 * Lambda), dtype=complex)
    for j, k in enumerate(ks):
        vals, vecs = scipy.linalg.eigh(_oracle_hk(V, k, Lambda),
                                       subset_by_index=[lo, hi])
        energies[:, j] = vals
        vectors[:, j, :] = (vecs / np.linalg.norm(vecs, axis=0)).T
    return energies, vectors


def _anchor(v):
    j = int(np.argmax(np.abs(v)))
    return v / (v[j] / abs(v[j]))


def _oracle_gauge(band):
    """Sequential parallel transport of the rows of band, in place; returns
    the rows that were re-anchored."""
    band[0] = _anchor(band[0])
    anchored = [0]
    for l in range(1, len(band)):
        ov = np.vdot(band[l - 1], band[l])
        if abs(ov) > 1e-12:
            band[l] *= np.conj(ov) / abs(ov)
        else:
            band[l] = _anchor(band[l])
            anchored.append(l)
    return anchored


def _oracle_table(V, grid, Lambda, M):
    energies, vectors = _oracle_eigenpairs(V, Lambda, grid.k_nodes, 0, M - 1)
    for band in vectors:
        _oracle_gauge(band)
    return energies, vectors


def _oracle_neighbor(tab, m, l):
    L = tab.grid.L
    v = tab.vectors[m - 1, l % L]
    shift = l // L
    if shift == 0:
        return v
    out = np.zeros_like(v)
    if shift > 0:
        out[:-shift] = v[shift:]
    else:
        out[-shift:] = v[:shift]
    return out


class _OracleChi:
    def __init__(self, tab, m):
        self.tab, self.m = tab, m
        self.cache = {}  # vector per exact folded k
        L = tab.grid.L
        # summed as ChiInterpolator sums it, so the two phases agree bitwise
        wrap = np.einsum("i,i->", tab.vectors[m - 1, L - 1].conj(),
                         _oracle_neighbor(tab, m, L))
        self.holonomy = np.conj(wrap) / abs(wrap) if abs(wrap) > 1e-12 else 1.0

    def _reference(self, k):
        pos = (k + 0.5) * self.tab.grid.L
        w = pos - np.floor(pos)
        v0 = _oracle_neighbor(self.tab, self.m, int(np.floor(pos)))
        v1 = _oracle_neighbor(self.tab, self.m, int(np.floor(pos)) + 1)
        ov = np.vdot(v0, v1)
        if abs(ov) > 1e-12:
            v1 = v1 * (np.conj(ov) / abs(ov))
        ref = (1 - w) * v0 + w * v1
        return ref / np.linalg.norm(ref)

    def coeffs(self, k):
        return self._vector(float(fold_k(k)))

    def _vector(self, kf):
        if kf not in self.cache:
            lo = max(0, self.m - 2)
            hi = min(2 * self.tab.Lambda - 1, self.m)
            _, vecs = scipy.linalg.eigh(
                _oracle_hk(self.tab.potential, kf, self.tab.Lambda),
                subset_by_index=[lo, hi])
            v = vecs[:, self.m - 1 - lo]
            v = v / np.linalg.norm(v)
            ov = np.vdot(self._reference(kf), v)
            if abs(ov) > 1e-12:
                v = v * (np.conj(ov) / abs(ov))
            self.cache[kf] = v
        return self.cache[kf]

    def chi_values(self, k, y):
        kf = fold_k(k)
        shift = np.rint(k - kf)
        lam = np.arange(-self.tab.Lambda, self.tab.Lambda)
        out = np.empty(k.shape, dtype=complex)
        for i in np.ndindex(k.shape):
            out[i] = self.holonomy ** shift[i] * (
                np.exp(1j * (lam - shift[i]) * y[i])
                @ self._vector(float(kf[i])))
        return out


def _spy_solves(chi):
    """The list that collects, in order, the gauge-aligned row blocks that
    chi solves."""
    blocks = []
    real = chi._solve

    def spied(kf):
        blocks.append(real(kf))
        return blocks[-1]
    chi._solve = spied
    return blocks


def _check_solves(chi, blocks, oracle, k, before=0):
    """The solves of chi after its first `before` were the distinct folded k
    of its last call, each once and at the k itself, and their rows match
    the oracle's vectors there."""
    keys = chi._cache[before:].tolist()
    assert keys == sorted(set(fold_k(np.ravel(k)).tolist()))
    rows = np.concatenate(blocks)
    assert len(rows) == len(chi._cache)
    for key, row in zip(keys, rows[before:]):
        assert np.max(np.abs(row - oracle.cache[key])) <= TOL


# ---- cases ----

def _asymmetric(Lambda):
    """A real lattice potential without reflection symmetry: complex V-hat."""
    y = 2 * np.pi * np.arange(8 * Lambda) / (8 * Lambda)
    return from_samples(np.sin(y) + 0.3 * np.cos(2 * y) + 0.2 * np.sin(3 * y),
                        Lambda)


DENSE = {"kp": kronig_penney,
         "free": lambda Lambda: from_samples(np.zeros(8 * Lambda), Lambda),
         "asymmetric": _asymmetric}


@lru_cache(maxsize=None)
def _tables(lattice, L, Lambda, M):
    V = (DENSE.get(lattice) or mathieu)(Lambda)
    grid = build_grid(1.0 / L, 4)
    return solve_bands(V, grid, Lambda, M), _oracle_table(V, grid, Lambda, M)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([4, 16, 32]), st.sampled_from([1, 7, 32]),
       st.integers(1, 8))
def test_mathieu_tridiagonal_tables_match_dense_oracle(Lambda, L, M):
    table, (energies, vectors) = _tables("mathieu", L, Lambda, M)
    assert np.max(np.abs(table.energies - energies)) <= TOL
    assert np.max(np.abs(table.vectors - vectors)) <= TOL


@pytest.mark.parametrize("lattice", sorted(DENSE))
def test_dense_path_bitwise_equal_to_oracle(lattice):
    """_lowest_eigenpairs is bitwise the per-k complex eigh, and so are the
    table energies of the asymmetric lattice, which takes it at every node.
    The Kronig-Penney and free-lattice tables take the real solve and every
    table takes the one-pass gauge, so their vectors, and the energies of
    those two lattices, are held to TOL."""
    table, (energies, vectors) = _tables(lattice, 7, 16, 4)
    if lattice == "asymmetric":
        assert np.array_equal(table.energies, energies)
    assert np.max(np.abs(table.energies - energies)) <= TOL
    assert np.max(np.abs(table.vectors - vectors)) <= TOL
    ks = np.linspace(-0.7, 0.6, 9)
    got = _lowest_eigenpairs(table.potential, 16, ks, 1, 3)
    want = _oracle_eigenpairs(table.potential, 16, ks, 1, 3)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("lattice,tridiagonal", [
    ("mathieu", True), ("kp", False), ("free", False), ("asymmetric", False)])
def test_dispatch_picks_tridiagonal_only_for_the_cosine_lattice(
        lattice, tridiagonal, monkeypatch):
    calls = {"eigh": 0, "eigh_tridiagonal": 0}
    for name in calls:
        def counted(*args, _f=getattr(scipy.linalg, name), _n=name, **kw):
            calls[_n] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(scipy.linalg, name, counted)
    V = (DENSE.get(lattice) or mathieu)(8)
    _lowest_eigenpairs(V, 8, np.array([0.1, 0.2, 0.3]), 0, 2)
    assert calls == ({"eigh": 0, "eigh_tridiagonal": 3} if tridiagonal
                     else {"eigh": 3, "eigh_tridiagonal": 0})


def _count_dense_calls(monkeypatch):
    """Record the dtype of every eigh call and count eigh_tridiagonal calls."""
    calls = {"real": 0, "complex": 0, "eigh_tridiagonal": 0}
    eigh, tridiagonal = scipy.linalg.eigh, scipy.linalg.eigh_tridiagonal

    def counted_eigh(a, *args, **kw):
        calls["complex" if np.iscomplexobj(a) else "real"] += 1
        return eigh(a, *args, **kw)

    def counted_tridiagonal(*args, **kw):
        calls["eigh_tridiagonal"] += 1
        return tridiagonal(*args, **kw)
    monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted_tridiagonal)
    return calls


def _over_conditioned(V, grid, Lambda, M):
    T, _ = _hamiltonian_parts(V, Lambda)
    *_, cond = bands._real_eigenpairs(T, Lambda, grid.k_nodes, M)
    return int(np.count_nonzero(cond > bands._REAL_COND_MAX))


@pytest.mark.parametrize("lattice", ["mathieu", "kp", "free", "asymmetric"])
def test_solve_bands_dispatch(lattice, monkeypatch):
    """Kronig-Penney and the free lattice make one real eigh per node and a
    complex eigh only at the nodes over _REAL_COND_MAX (k = -1/2 and 0 on
    this Kronig-Penney table; on the free one the crossings at -1/2 and 0
    and the near-crossings at +-7/16); the asymmetric lattice makes complex
    calls only, the cosine lattice tridiagonal calls only."""
    V = (DENSE.get(lattice) or mathieu)(32)
    grid = build_grid(1.0 / 16, 4)
    calls = _count_dense_calls(monkeypatch)
    solve_bands(V, grid, 32, 8)
    assert calls == {
        "mathieu": {"real": 0, "complex": 0, "eigh_tridiagonal": 16},
        "kp": {"real": 16, "complex": 2, "eigh_tridiagonal": 0},
        "free": {"real": 16, "complex": 4, "eigh_tridiagonal": 0},
        "asymmetric": {"real": 0, "complex": 16, "eigh_tridiagonal": 0},
    }[lattice]
    if lattice in ("kp", "free"):
        assert calls["complex"] == _over_conditioned(V, grid, 32, 8)


def test_zero_conditioning_bound_sends_every_node_to_the_complex_solve(
        monkeypatch):
    V, grid = kronig_penney(16), build_grid(1.0 / 16, 4)
    monkeypatch.setattr(bands, "_REAL_COND_MAX", 0.0)
    calls = _count_dense_calls(monkeypatch)
    table = solve_bands(V, grid, 16, 4)
    assert calls == {"real": 16, "complex": 16, "eigh_tridiagonal": 0}
    energies, vectors = _oracle_table(V, grid, 16, 4)
    assert np.array_equal(table.energies, energies)
    assert np.max(np.abs(table.vectors - vectors)) <= TOL


def test_kp_table_matches_oracle_at_workload_scale():
    """The Kronig-Penney table of the eps = 1/1024 benchmark problem, where
    the real solve and its complex fallback both run; every stored vector
    keeps unit norm, which a gauge phase product left off the unit circle
    would break."""
    V, grid = kronig_penney(64), build_grid(1.0 / 1024, 32)
    assert 0 < _over_conditioned(V, grid, 32, 8) < grid.L
    table = solve_bands(V, grid, 32, 8)
    energies, vectors = _oracle_table(V, grid, 32, 8)
    assert np.max(np.abs(table.energies - energies)) <= TOL
    assert np.max(np.abs(table.vectors - vectors)) <= TOL
    assert np.max(np.abs(np.linalg.norm(table.vectors, axis=2) - 1)) <= 1e-15


@pytest.mark.parametrize("k", [0.0, 0.3])
def test_kp_energies_against_extended_precision(k):
    """The eight lowest energies of the Kronig-Penney H(k) at Lambda = 16
    (n = 32) from the real and the complex solve, against the eigenvalues of
    the same float64 matrix at 32 digits (mpmath.eigsy).  Each path's own
    error is within 2 eps_mach ||H(k)||_inf, the size of a backward-stable
    solver's error; measured: real 1.5e-14 (k = 0) and 1.1e-14 (k = 0.3),
    complex 2.2e-14 and 1.9e-14, against a bound of 5.7e-14 and 5.5e-14."""
    mpmath = pytest.importorskip("mpmath")
    V, ks = kronig_penney(16), np.array([k])
    T, _ = _hamiltonian_parts(V, 16)
    H = _oracle_hk(V, k, 16).real
    with mpmath.workdps(32):
        exact = sorted(mpmath.eigsy(mpmath.matrix(H.tolist()),
                                    eigvals_only=True))[:8]
        real = bands._real_eigenpairs(T, 16, ks, 8)[0][:, 0]
        dense = _lowest_eigenpairs(V, 16, ks, 0, 7)[0][:, 0]
        errors = [max(abs(float(mpmath.mpf(e) - x)) for e, x in zip(got, exact))
                  for got in (real, dense)]
    bound = 2 * np.finfo(float).eps * np.abs(H).sum(axis=1).max()
    assert max(errors) <= bound, errors


def _anchored_rows(band):
    """Rows whose largest-magnitude entry is real positive."""
    top = band[np.arange(len(band)), np.argmax(np.abs(band), axis=1)]
    return list(np.flatnonzero((np.abs(top.imag) <= TOL) & (top.real > 0)))


def test_gauge_restarts_at_free_lattice_crossings():
    """At an even L the free lattice has band crossings on the nodes k = -1/2
    and 0, where a band's vector is orthogonal to its predecessor: the
    gauge restarts there, as the sequential oracle does."""
    V = DENSE["free"](16)
    grid = build_grid(1.0 / 8, 4)
    table = solve_bands(V, grid, 16, 4)
    _, raw = _lowest_eigenpairs(V, 16, grid.k_nodes, 0, 3)
    restarts = []
    for m, band in enumerate(raw):
        restarts.append(_oracle_gauge(band))
        assert np.max(np.abs(table.vectors[m] - band)) <= TOL
    assert restarts == [[0], [0, 4], [0, 4], [0, 5]]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40))
def test_one_pass_gauge_matches_sequential_oracle(seed, L):
    """Random unit rows with random phases, a row orthogonal to its
    predecessor at random nodes: the one-pass gauge equals the sequential
    oracle to TOL, re-anchors exactly where the oracle does, and leaves every
    row at unit norm."""
    rng = np.random.default_rng(seed)
    band = rng.standard_normal((L, 6)) + 1j * rng.standard_normal((L, 6))
    for l in np.flatnonzero(rng.random(L) < 0.2):
        if l:
            band[l] -= np.vdot(band[l - 1], band[l]) / np.vdot(
                band[l - 1], band[l - 1]) * band[l - 1]
    band /= np.linalg.norm(band, axis=1)[:, None]
    want = band.copy()
    anchored = _oracle_gauge(want)
    bands._transport_gauge(band)
    assert np.max(np.abs(band - want)) <= TOL
    assert _anchored_rows(band) == anchored
    assert np.max(np.abs(np.linalg.norm(band, axis=1) - 1)) <= 1e-15


def _chi_points(rng, n, repeats):
    """Quasi-momenta outside the zone, at +-1/2 and on zone shifts of
    those, with some keys repeated; cell coordinates in [0, 2*pi)."""
    k = np.concatenate([rng.uniform(-2.5, 2.5, n), [-0.5, 0.5, 1.5, -1.5]])
    k = np.concatenate([k, rng.choice(k, repeats)])
    return k, rng.uniform(0.0, 2 * np.pi, k.size)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["mathieu", "kp", "asymmetric"]), st.sampled_from([1, 32]),
       st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_chi_values_match_per_point_oracle(lattice, L, m, seed):
    table, _ = _tables(lattice, L, 16, 4)
    rng = np.random.default_rng(seed)
    chi, oracle = ChiInterpolator(table, m), _OracleChi(table, m)
    blocks = _spy_solves(chi)
    assert chi.holonomy == oracle.holonomy
    for _ in range(2):  # the second call solves its keys afresh
        k, y = _chi_points(rng, 40, 20)
        k = k.reshape(4, -1)
        y = y.reshape(4, -1)
        before = len(chi._cache)
        got = chi.chi_values(k, y)
        assert got.shape == k.shape
        assert np.max(np.abs(got - oracle.chi_values(k, y))) <= TOL
        _check_solves(chi, blocks, oracle, k, before)
    assert np.max(np.abs(chi.coeffs(2.3) - oracle.coeffs(2.3))) <= TOL
    # coeffs folds k and moves no slot for the zone shift
    assert np.max(np.abs(chi.coeffs(2.3) - oracle.coeffs(0.3))) <= TOL


@pytest.mark.parametrize("k,y", [
    (np.nan, 0.0), (np.inf, 0.0), (-np.inf, 1.0), (0.1, np.nan)])
def test_chi_values_non_finite_is_typed(mathieu_table, k, y):
    chi = ChiInterpolator(mathieu_table, 1)
    with pytest.raises(NonFinite):
        chi.chi_values(np.array([0.2, k]), np.array([0.5, y]))


def test_chi_coeffs_non_finite_is_typed(mathieu_table):
    with pytest.raises(NonFinite):
        ChiInterpolator(mathieu_table, 1).coeffs(np.nan)


def _failing(*args, **kwargs):
    raise scipy.linalg.LinAlgError("did not converge")


def _non_finite_rqi(d, b, v, floor):
    return np.full(v.shape, np.nan)


@pytest.mark.parametrize("lattice,solver", [
    ("kp", "eigh"), ("mathieu", "eigh_tridiagonal")])
def test_eigensolver_failures_are_typed(lattice, solver, monkeypatch):
    table, _ = _tables(lattice, 7, 16, 4)
    monkeypatch.setattr(scipy.linalg, solver, _failing)
    # on the cosine lattice chi reaches LAPACK only for keys the batched
    # kernel rejects
    monkeypatch.setattr(bands, "_twisted_rqi", _non_finite_rqi)
    with pytest.raises(EigensolverFailure):
        ChiInterpolator(table, 2).chi_values(np.array([0.3]), np.array([0.0]))
    with pytest.raises(EigensolverFailure):
        solve_bands(table.potential, table.grid, 16, 4)


def _count_tridiagonal_calls(monkeypatch):
    calls = []
    real = scipy.linalg.eigh_tridiagonal

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    return calls


# quasi-momenta at and near the zone edges, folded or not
EDGE_K = np.array([-0.5, 0.5, -0.5 + 1e-5, 0.5 - 1e-5, 0.5 + 1e-5,
                   -0.5 - 1e-5, -0.499, 0.499, 1.5, -1.4999, 0.3, -0.17])


@pytest.mark.parametrize("Lambda", [4, 16, 32])
@pytest.mark.parametrize("L", [1, 7, 32])
def test_kernel_accepted_keys_match_oracle(Lambda, L, monkeypatch):
    table, _ = _tables("mathieu", L, Lambda, 4)
    y = np.linspace(0.0, 2 * np.pi, EDGE_K.size, endpoint=False)
    calls = _count_tridiagonal_calls(monkeypatch)
    for m in (1, 2, 3):
        chi, oracle = ChiInterpolator(table, m), _OracleChi(table, m)
        blocks = _spy_solves(chi)
        got = chi.chi_values(EDGE_K, y)
        assert not calls  # every key accepted by the kernel
        assert np.max(np.abs(got - oracle.chi_values(EDGE_K, y))) <= TOL
        _check_solves(chi, blocks, oracle, EDGE_K)


def test_weak_cosine_lattice_gap_is_rejected_and_raised(monkeypatch):
    weak = mathieu(16)
    V = PeriodicPotential(16, weak.coeffs * 1e-10, name="weak", profile=weak.profile)
    assert _hamiltonian_parts(V, 16)[1] is not None
    table = solve_bands(V, build_grid(1.0 / 7, 4), 16, 4)
    calls = _count_tridiagonal_calls(monkeypatch)
    chi = ChiInterpolator(table, 1)
    chi.chi_values(np.array([0.2]), np.array([0.0]))
    assert not calls  # away from the edge the kernel accepts
    with pytest.raises(BandGapTooSmall, match=r"gap 1\.0\d*e-10"):
        chi.chi_values(np.array([0.5]), np.array([0.0]))
    assert len(calls) == 1  # the kernel rejected k = 1/2, the fallback raised


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_kernel_output_falls_back(bad, monkeypatch):
    table, _ = _tables("mathieu", 7, 16, 4)
    real = bands._twisted_rqi

    def poisoned(d, b, v, floor):
        z = real(d, b, v, floor)
        z[:, ::2] = bad
        return z
    monkeypatch.setattr(bands, "_twisted_rqi", poisoned)
    calls = _count_tridiagonal_calls(monkeypatch)
    k = np.linspace(-0.45, 0.45, 9)
    y = np.linspace(0.0, 6.0, 9)
    chi, oracle = ChiInterpolator(table, 2), _OracleChi(table, 2)
    blocks = _spy_solves(chi)
    assert np.max(np.abs(chi.chi_values(k, y) - oracle.chi_values(k, y))) <= TOL
    assert len(calls) == 5  # one LAPACK call per poisoned key
    _check_solves(chi, blocks, oracle, k)
    assert np.all(np.isfinite(np.concatenate(blocks)))


@pytest.mark.parametrize("lattice", ["mathieu", "kp", "asymmetric"])
@pytest.mark.parametrize("L", [7, 32])
def test_chi_is_continuous_across_the_zone_edge(lattice, L):
    """chi(y, k) has no jump where k crosses +-1/2, so the holonomy must carry
    the full phase of the wrap overlap, not only its sign."""
    table, _ = _tables(lattice, L, 16, 4)
    y = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    for m in (1, 2, 3):
        chi = ChiInterpolator(table, m)
        for edge in (-0.5, 0.5):
            below = chi.chi_values(np.full(y.size, edge - 1e-5), y)
            above = chi.chi_values(np.full(y.size, edge + 1e-5), y)
            assert np.max(np.abs(above - below)) <= 1e-3


# quasi-momenta at the zone edges, at 0 and in between
WINDOW_K = np.array([-0.5, 0.5, 0.0, -0.37, -0.21, -1e-3, 1e-3, 0.13, 0.29,
                     0.4999, -0.4999, 1.5, -2.0])


def _windowed_rows(monkeypatch):
    """Record the row count of every block _twisted_rqi is given."""
    rows = []
    real = bands._twisted_rqi

    def spied(d, b, v, floor):
        rows.append(d.shape[0])
        return real(d, b, v, floor)
    monkeypatch.setattr(bands, "_twisted_rqi", spied)
    return rows


def _chi_per_band(table, y, monkeypatch):
    """(values, solved keys, their rows, LAPACK calls) of
    chi_values(WINDOW_K, y) per band."""
    calls = _count_tridiagonal_calls(monkeypatch)
    out = []
    for m in range(1, 9):
        chi = ChiInterpolator(table, m)
        blocks = _spy_solves(chi)
        before = len(calls)
        got = chi.chi_values(WINDOW_K, y)
        out.append((got, chi._cache.tolist(), np.concatenate(blocks),
                    len(calls) - before))
    return out


def test_support_window_matches_full_rows_and_oracle(monkeypatch):
    table, _ = _tables("mathieu", 32, 32, 8)
    y = np.linspace(0.0, 2 * np.pi, WINDOW_K.size, endpoint=False)
    rows = _windowed_rows(monkeypatch)
    windowed = _chi_per_band(table, y, monkeypatch)
    # each block ran on its guesses' support, not on all 2*Lambda rows
    assert len(rows) == 8 and max(rows) < 64
    monkeypatch.setattr(bands, "_support", lambda v: slice(0, v.shape[0]))
    full = _chi_per_band(table, y, monkeypatch)
    assert rows[8:] == [64] * 8
    for m, ((got, keys, vecs, calls),
            (want, full_keys, full_vecs, full_calls)) in enumerate(
            zip(windowed, full), start=1):
        # every key is accepted, on the window as on the full rows (band 2
        # at k = 0, a table node, keeps its exact start vector)
        assert calls == full_calls == 0
        assert np.max(np.abs(got - want)) <= TOL
        oracle = _OracleChi(table, m)
        want = oracle.chi_values(WINDOW_K, y)
        assert keys == full_keys == sorted(oracle.cache)
        assert np.max(np.abs(vecs - full_vecs)) <= TOL
        # the gaps of bands 6-8 at these keys fall to 1.9e-6, where two
        # eigensolvers differ by eps * ||H|| / gap (the full rows differ
        # from the oracle by up to 9e-9 there), so those bands are checked
        # against the full rows only
        if m <= 5:
            assert np.max(np.abs(got - want)) <= TOL


def test_exact_guess_at_a_table_node_needs_no_fallback(monkeypatch):
    """Band 2 at k = 0, a node of the 32-node table: the guess is already
    the eigenvector, so the kernel's first shift makes H - sigma singular
    and its next iterate overflows to NaN.  The column keeps its start
    vector, which the acceptance test passes, so the key makes no LAPACK
    call."""
    table, _ = _tables("mathieu", 32, 32, 8)
    keys = []
    real = bands._lowest_eigenpairs

    def spied(V, Lambda, ks, lo, hi):
        keys.extend(ks)
        return real(V, Lambda, ks, lo, hi)
    monkeypatch.setattr(bands, "_lowest_eigenpairs", spied)
    k = np.zeros(16)
    y = np.linspace(0.0, 2 * np.pi, k.size, endpoint=False)
    chi, oracle = ChiInterpolator(table, 2), _OracleChi(table, 2)
    got = chi.chi_values(k, y)
    assert not keys
    assert np.max(np.abs(got - oracle.chi_values(k, y))) <= TOL


def test_window_that_cuts_a_tail_falls_back(monkeypatch):
    """A support that drops entries of 1e-6 and below leaves a residual in
    the full H that the acceptance test rejects, though the shift is still
    far inside GAP_FLOOR of the eigenvalue, so the Sturm counts alone would
    pass it; every key then takes the LAPACK fallback and still matches the
    oracle."""
    table, _ = _tables("mathieu", 32, 32, 8)
    y = np.linspace(0.0, 2 * np.pi, WINDOW_K.size, endpoint=False)

    def narrow(v):
        a = np.abs(v)
        rows = np.flatnonzero((a > 1e-6 * a.max(axis=0)).any(axis=1))
        return slice(rows[0], rows[-1] + 1)
    monkeypatch.setattr(bands, "_support", narrow)
    calls = _count_tridiagonal_calls(monkeypatch)
    for m in (1, 4):
        chi, oracle = ChiInterpolator(table, m), _OracleChi(table, m)
        blocks = _spy_solves(chi)
        before = len(calls)
        got = chi.chi_values(WINDOW_K, y)
        # _lowest_eigenpairs makes one LAPACK call per rejected key
        assert len(calls) - before == len(chi._cache) == 10
        assert np.max(np.abs(got - oracle.chi_values(WINDOW_K, y))) <= TOL
        _check_solves(chi, blocks, oracle, WINDOW_K)


def test_chi_values_match_oracle_at_workload_scale():
    """1024 points of the eps = 1/32 grid, y = x/eps mod 2*pi, with k over
    several zones: eight blocks of Horner sums at Lambda = 32."""
    grid = build_grid(1.0 / 32, 32)
    table = solve_bands(mathieu(32), grid, 32, 8)
    x = grid.x_nodes.reshape(-1)
    y = np.mod(x / grid.epsilon, 2 * np.pi)
    k = 2.3 * np.sin(x) + 0.4 * np.cos(3 * x)
    assert x.size == 1024 and np.ptp(np.rint(k - fold_k(k))) >= 4
    for m in (1, 3):
        chi, oracle = ChiInterpolator(table, m), _OracleChi(table, m)
        got = chi.chi_values(k, y)
        assert np.max(np.abs(got - oracle.chi_values(k, y))) <= TOL


def test_interpolator_keeps_no_vectors(baseline_mathieu, monkeypatch):
    """Four calls of 1024 distinct k on the eps = 1/32, Lambda = 32 table
    leave the interpolator holding at most 64 bytes per solved key (its log
    of solved k; a vector cache holds 1 KB and more per key), and the log
    counts every k the eigensolver is given."""
    rng = np.random.default_rng(2024)

    def points():
        return rng.uniform(-2.5, 2.5, 1024), rng.uniform(0.0, 2 * np.pi, 1024)
    ChiInterpolator(baseline_mathieu, 1).chi_values(*points())  # warm-up
    solved = []
    real = wkb._band_vectors

    def spied(V, Lambda, parts, ks, m, guess):
        solved.append(ks.size)
        return real(V, Lambda, parts, ks, m, guess)
    monkeypatch.setattr(wkb, "_band_vectors", spied)
    chi = ChiInterpolator(baseline_mathieu, 1)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            chi.chi_values(*points())
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert held <= 64 * sum(solved)
    assert len(chi._cache) == sum(solved) == 4 * 1024
