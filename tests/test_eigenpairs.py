"""The one eigenpair loop (eigh_tridiagonal, or one direct LAPACK dsyevr or
zheevr per k), the real table solve with its complex fallback, the one-pass
gauge and ChiInterpolator's Chebyshev interpolant with its per-key fallback,
against the earlier per-k path (one assembled dense complex eigh per k,
sequential parallel transport), the same solves made node by node through
scipy's public eigh and eigh_tridiagonal, and the earlier per-point
chi_values loop, kept here as a test-local oracle."""

import dataclasses
import functools
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
from blochstep import bands
from blochstep.bands import (
    _hamiltonian_parts,
    _lowest_eigenpairs,
    load_band_cache,
    save_band_cache,
)
from blochstep.errors import (
    BandGapTooSmall,
    EigensolverFailure,
    NonFinite,
    ShapeMismatch,
)

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
    chi solves: each row times its key's factor."""
    blocks = []
    real = chi._solve

    def spied(kf):
        rows, scale = real(kf)
        blocks.append(rows * scale[:, None])
        return rows, scale
    chi._solve = spied
    return blocks


def _check_solves(chi, blocks, oracle, k, before):
    """chi's last call, made when its solve log held `before` keys, gave one
    row to each distinct folded k of k, matching the oracle's vector there,
    and logged each of those k as a solve exactly when its band has no
    interpolant."""
    keys = sorted(set(fold_k(np.ravel(k)).tolist()))
    assert chi._cache[before:].tolist() == (
        [] if chi._interpolant else keys)
    rows = np.concatenate(blocks)[-len(keys):]
    for key, row in zip(keys, rows):
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
    """_lowest_eigenpairs on the complex T, its direct zheevr, is bitwise the
    per-k complex eigh, and so are the table energies of the asymmetric
    lattice, which takes it at every node.  The Kronig-Penney and
    free-lattice tables take the real solve and every table takes the
    one-pass gauge, so against this oracle their vectors, and the energies
    of those two lattices, are held to TOL."""
    table, (energies, vectors) = _tables(lattice, 7, 16, 4)
    if lattice == "asymmetric":
        assert np.array_equal(table.energies, energies)
    assert np.max(np.abs(table.energies - energies)) <= TOL
    assert np.max(np.abs(table.vectors - vectors)) <= TOL
    ks = np.linspace(-0.7, 0.6, 9)
    got = _lowest_eigenpairs(_hamiltonian_parts(table.potential, 16), 16, ks,
                             1, 3)
    want = _oracle_eigenpairs(table.potential, 16, ks, 1, 3)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("lattice,dtype", [
    ("mathieu", np.float64), ("kp", np.float64), ("free", np.float64),
    ("asymmetric", np.complex128)])
def test_table_dtype_follows_the_potential(lattice, dtype):
    """Real vectors exactly when H(k) has a real lower triangle."""
    table, _ = _tables(lattice, 7, 16, 4)
    assert table.vectors.dtype == dtype


@pytest.mark.parametrize("lattice", ["mathieu", "kp", "asymmetric"])
def test_cache_round_trip_keeps_values_and_dtype(lattice, tmp_path):
    """The loaded table equals the saved one, in the dtype solve_bands
    gives; a real table writes +0.0 imaginary halves."""
    table, _ = _tables(lattice, 7, 16, 4)
    path = tmp_path / "bands.bin"
    save_band_cache(table, path)
    back = load_band_cache(path, table.grid, table.potential)
    assert back.vectors.dtype == table.vectors.dtype
    assert np.array_equal(back.energies, table.energies)
    assert np.array_equal(back.vectors, table.vectors)
    if lattice != "asymmetric":
        pairs = path.read_bytes()[-16 * table.vectors.size:]
        imag = np.frombuffer(pairs, dtype="<f8")[1::2]
        assert not imag.any() and not np.signbit(imag).any()


def test_cache_written_complex_loads_by_its_values(tmp_path):
    """A real table written complex, with -0.0 in imaginary halves as a
    complex solve can leave them, loads real and equal; a table turned by
    complex phases, as the gauge-invariance check turns one, stays
    complex and equal."""
    table, _ = _tables("kp", 7, 16, 4)
    signed = table.vectors.astype(complex)
    signed.imag[..., ::2] = -0.0
    phases = np.exp(1j * np.arange(table.grid.L))[None, :, None]
    path = tmp_path / "bands.bin"
    for vectors, dtype in ((signed, np.float64),
                           (table.vectors * phases, np.complex128)):
        save_band_cache(dataclasses.replace(table, vectors=vectors), path)
        back = load_band_cache(path, table.grid, table.potential)
        assert back.vectors.dtype == dtype
        assert np.array_equal(back.vectors, vectors)


@pytest.mark.parametrize("lattice,tridiagonal", [
    ("mathieu", True), ("kp", False), ("free", False), ("asymmetric", False)])
def test_dispatch_picks_tridiagonal_only_for_the_cosine_lattice(
        lattice, tridiagonal, monkeypatch):
    """The parts of a dense lattice hold the complex T, so each k is one
    direct zheevr call."""
    calls = _count_dense_calls(monkeypatch)
    V = (DENSE.get(lattice) or mathieu)(8)
    _lowest_eigenpairs(_hamiltonian_parts(V, 8), 8, np.array([0.1, 0.2, 0.3]),
                       0, 2)
    assert calls == ({"dsyevr": 0, "zheevr": 0, "eigh_tridiagonal": 3}
                     if tridiagonal else
                     {"dsyevr": 0, "zheevr": 3, "eigh_tridiagonal": 0})


def _wrap_direct_solve(monkeypatch, wrapper):
    """Route each direct LAPACK call of bands._lowest_eigenpairs through
    wrapper(name, routine, *args, **kwargs), name being the routine's full
    LAPACK name, dsyevr or zheevr; scipy's eigh fails if it is reached."""
    get = scipy.linalg.lapack.get_lapack_funcs

    def patched(names, arrays=()):
        solve, lwork = get(names, arrays)
        name = solve.typecode + names[0]
        assert name in ("dsyevr", "zheevr")
        return functools.partial(wrapper, name, solve), lwork
    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", patched)
    monkeypatch.setattr(scipy.linalg, "eigh", _failing)


def _count_dense_calls(monkeypatch):
    """Count the direct LAPACK calls by their name, dsyevr or zheevr, and the
    eigh_tridiagonal calls; scipy's eigh must not be reached."""
    calls = {"dsyevr": 0, "zheevr": 0, "eigh_tridiagonal": 0}
    tridiagonal = scipy.linalg.eigh_tridiagonal

    def counted_direct(name, solve, *args, **kw):
        calls[name] += 1
        return solve(*args, **kw)

    def counted_tridiagonal(*args, **kw):
        calls["eigh_tridiagonal"] += 1
        return tridiagonal(*args, **kw)
    _wrap_direct_solve(monkeypatch, counted_direct)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted_tridiagonal)
    return calls


def _conditioning(V, grid, Lambda, M):
    """The table solve's per-node conditioning on a real dense H(k), from
    the real solve's bands 1..M+1."""
    T = _hamiltonian_parts(V, Lambda)[0].real
    energies, _ = _lowest_eigenpairs((T, None), Lambda, grid.k_nodes, 0,
                                     min(M, 2 * Lambda - 1))
    return bands._conditioning(T, Lambda, grid.k_nodes, energies)


def _over_conditioned(V, grid, Lambda, M):
    return int(np.count_nonzero(_conditioning(V, grid, Lambda, M)
                                > bands._REAL_COND_MAX))


@pytest.mark.parametrize("lattice", ["mathieu", "kp", "free", "asymmetric"])
def test_solve_bands_dispatch(lattice, monkeypatch):
    """Kronig-Penney and the free lattice make one direct dsyevr call per
    node and a zheevr call only at the nodes over _REAL_COND_MAX (k = -1/2
    and 0 on this Kronig-Penney table; on the free one the crossings at -1/2
    and 0 and the near-crossings at +-7/16); the asymmetric lattice makes
    zheevr calls only, the cosine lattice tridiagonal calls only."""
    V = (DENSE.get(lattice) or mathieu)(32)
    grid = build_grid(1.0 / 16, 4)
    calls = _count_dense_calls(monkeypatch)
    solve_bands(V, grid, 32, 8)
    assert calls == {
        "mathieu": {"dsyevr": 0, "zheevr": 0, "eigh_tridiagonal": 16},
        "kp": {"dsyevr": 16, "zheevr": 2, "eigh_tridiagonal": 0},
        "free": {"dsyevr": 16, "zheevr": 4, "eigh_tridiagonal": 0},
        "asymmetric": {"dsyevr": 0, "zheevr": 16, "eigh_tridiagonal": 0},
    }[lattice]
    if lattice in ("kp", "free"):
        assert calls["zheevr"] == _over_conditioned(V, grid, 32, 8)


def test_zero_conditioning_bound_sends_every_node_to_the_complex_solve(
        monkeypatch):
    V, grid = kronig_penney(16), build_grid(1.0 / 16, 4)
    energies, vectors = _oracle_table(V, grid, 16, 4)
    monkeypatch.setattr(bands, "_REAL_COND_MAX", 0.0)
    calls = _count_dense_calls(monkeypatch)
    table = solve_bands(V, grid, 16, 4)
    assert calls == {"dsyevr": 16, "zheevr": 16, "eigh_tridiagonal": 0}
    assert np.array_equal(table.energies, energies)
    assert np.max(np.abs(table.vectors - vectors)) <= TOL


def _per_k_solve(H, lo, hi, tridiagonal):
    """Eigenpairs lo..hi of one assembled H through scipy's public solvers,
    eigh_tridiagonal or eigh (the real eigh for a real H), as unit columns."""
    if tridiagonal:
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            H.diagonal().real, H.diagonal(-1).real, select="i",
            select_range=(lo, hi))
    else:
        vals, vecs = scipy.linalg.eigh(H, subset_by_index=[lo, hi])
    return vals, vecs / np.linalg.norm(vecs, axis=0)


def _per_k_table(lattice, V, grid, Lambda, M):
    """solve_bands node by node through _per_k_solve: eigh_tridiagonal on the
    cosine lattice; on an even dense lattice the real eigh of bands
    1..M+1, and the complex eigh where eps_mach ||H(k)||_inf over the
    smallest gap among them exceeds _REAL_COND_MAX; the complex eigh on the
    asymmetric lattice; then the table's gauge."""
    n = 2 * Lambda
    real = lattice in ("kp", "free")
    energies = np.empty((M, grid.L))
    vectors = np.empty((M, grid.L, n), dtype=complex if lattice ==
                       "asymmetric" else float)
    for l, k in enumerate(grid.k_nodes):
        H = _oracle_hk(V, k, Lambda)
        if real:
            vals, vecs = _per_k_solve(H.real, 0, min(M, n - 1), False)
            with np.errstate(divide="ignore"):  # a crossing has no gap
                cond = np.finfo(float).eps * np.abs(H).sum(axis=1).max() \
                    / np.diff(vals).min()
            if cond > bands._REAL_COND_MAX:
                vals, vecs = _per_k_solve(H, 0, M - 1, False)
                vecs = vecs.real
        else:
            vals, vecs = _per_k_solve(H, 0, M - 1, lattice == "mathieu")
        energies[:, l] = vals[:M]
        vectors[:, l] = vecs[:, :M].T
    for band in vectors:
        bands._transport_gauge(band)
    return energies, vectors


@pytest.mark.parametrize("lattice,L,Lambda,M", [
    ("mathieu", 7, 16, 4), ("kp", 16, 32, 8), ("free", 16, 32, 8),
    ("asymmetric", 7, 16, 4)])
def test_tables_bitwise_equal_to_per_k_oracle(lattice, L, Lambda, M):
    """Energies and vectors of every table are bitwise the node-by-node
    solves through scipy's public solvers: the one loop makes the same
    LAPACK calls with the same arguments, and normalises the same way.  The
    Kronig-Penney and free tables here take the complex fallback at 2 and 4
    nodes (test_solve_bands_dispatch)."""
    V = (DENSE.get(lattice) or mathieu)(Lambda)
    grid = build_grid(1.0 / L, 4)
    table = solve_bands(V, grid, Lambda, M)
    energies, vectors = _per_k_table(lattice, V, grid, Lambda, M)
    assert table.vectors.dtype == vectors.dtype
    assert np.array_equal(table.energies, energies)
    assert np.array_equal(table.vectors, vectors)


@pytest.mark.parametrize("lattice", ["mathieu", "kp", "asymmetric"])
def test_chi_values_bitwise_equal_to_per_k_oracle(lattice, monkeypatch):
    """chi_values is bitwise the same with its eigenpair loop, which makes the
    interpolant's node solves, replaced by the node-by-node solves through
    scipy's public solvers."""
    table, _ = _tables(lattice, 7, 16, 4)
    V = table.potential
    rng = np.random.default_rng(19)
    k, y = _chi_points(rng, 60, 10)
    got = [ChiInterpolator(table, m).chi_values(k, y) for m in (1, 2, 3)]

    def per_k(parts, Lambda, ks, lo, hi):
        pairs = [_per_k_solve(_oracle_hk(V, k, Lambda), lo, hi,
                              lattice == "mathieu") for k in ks]
        return (np.stack([vals for vals, _ in pairs], axis=1),
                np.stack([vecs.T for _, vecs in pairs], axis=1))
    monkeypatch.setattr(bands, "_lowest_eigenpairs", per_k)
    want = [ChiInterpolator(table, m).chi_values(k, y) for m in (1, 2, 3)]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_kp_table_matches_oracle_at_workload_scale():
    """The Kronig-Penney table of the eps = 1/1024 benchmark problem, where
    the real solve and its complex fallback both run; every stored vector
    keeps unit norm, which a gauge phase product left off the unit circle
    would break.  The solve peaks under tracemalloc at less than 1.5 times
    the table it returns (1.30): it holds no second array of the table's
    size, as normalising all the vectors in one pass did (2.17)."""
    V, grid = kronig_penney(64), build_grid(1.0 / 1024, 32)
    assert 0 < _over_conditioned(V, grid, 32, 8) < grid.L
    tracemalloc.start()
    try:
        table = solve_bands(V, grid, 32, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (table.vectors.nbytes + table.energies.nbytes)
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
        # the table's real solve takes bands 1..9, band 9 for the gap only
        real = _lowest_eigenpairs((T.real, None), 16, ks, 0, 8)[0][:8, 0]
        dense = _lowest_eigenpairs((T, None), 16, ks, 0, 7)[0][:, 0]
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
    _, raw = _lowest_eigenpairs(_hamiltonian_parts(V, 16), 16, grid.k_nodes,
                                0, 3)
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


@pytest.mark.parametrize("k,y", [
    (0.1, np.linspace(0.0, 1.0, 5)),
    (np.linspace(-1.2, 1.7, 5), 0.4),
    (np.linspace(-1.2, 1.7, 6).reshape(2, 3),
     np.linspace(0.0, 6.0, 6).reshape(2, 3)),
    (np.array([[0.3], [-0.6]]), np.linspace(0.0, 6.0, 3)),
], ids=["scalar-k", "scalar-y", "2x3-with-2x3", "2x1-with-3"])
def test_chi_values_broadcast_k_against_y(mathieu_table, k, y):
    chi, oracle = ChiInterpolator(mathieu_table, 2), _OracleChi(mathieu_table, 2)
    kb, yb = np.broadcast_arrays(k, y)
    got = chi.chi_values(k, y)
    assert got.shape == kb.shape
    assert np.max(np.abs(got - oracle.chi_values(kb, yb))) <= TOL


def test_chi_values_shapes_that_do_not_broadcast_are_typed(mathieu_table):
    chi = ChiInterpolator(mathieu_table, 1)
    with pytest.raises(ShapeMismatch, match=r"\(2,\).*\(5,\)"):
        chi.chi_values(np.array([0.1, 0.2]), np.linspace(0.0, 1.0, 5))


def test_chi_coeffs_non_finite_is_typed(mathieu_table):
    with pytest.raises(NonFinite):
        ChiInterpolator(mathieu_table, 1).coeffs(np.nan)


def _failing(*args, **kwargs):
    raise scipy.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize("lattice,solver", [("mathieu", "eigh_tridiagonal")])
def test_eigensolver_failures_are_typed(lattice, solver, monkeypatch):
    """chi's node solves and the table solve on the cosine lattice: the
    interpolant's build fails at its first node, k = 1/2.  The direct LAPACK
    calls of the dense lattices are covered by
    test_direct_solve_failure_names_k and test_zheevr_failure_names_k."""
    table, _ = _tables(lattice, 7, 16, 4)
    monkeypatch.setattr(scipy.linalg, solver, _failing)
    with pytest.raises(EigensolverFailure, match=r"at k = 0\.5: "):
        ChiInterpolator(table, 2)
    with pytest.raises(EigensolverFailure):
        solve_bands(table.potential, table.grid, 16, 4)


def test_direct_solve_failure_names_k(monkeypatch):
    """A nonzero LAPACK info from the real solve's dsyevr, here at the third
    node, raises EigensolverFailure naming that node's k and the info."""
    V, grid = kronig_penney(16), build_grid(1.0 / 16, 4)
    calls = []

    def third_fails(name, syevr, *args, **kw):
        calls.append(name)
        out = syevr(*args, **kw)
        return (*out[:-1], 1) if len(calls) == 3 else out
    _wrap_direct_solve(monkeypatch, third_fails)
    with pytest.raises(EigensolverFailure,
                       match=rf"dsyevr failed at k = {grid.k_nodes[2]} "
                             rf"\(info = 1\)"):
        solve_bands(V, grid, 16, 4)
    assert calls == ["dsyevr"] * 3


@pytest.mark.parametrize("site,info", [
    (site, info) for site in ("asymmetric-table", "kp-fallback", "kp-chi")
    for info in (1, -3)])
def test_zheevr_failure_names_k(site, info, monkeypatch):
    """A nonzero LAPACK info, positive or negative, from the first direct
    zheevr call raises EigensolverFailure naming that call's k and the info:
    at the first node of the asymmetric table, at the first fallback node of
    the Kronig-Penney table (k = -1/2, after every dsyevr call succeeded) and
    at the first node of a Kronig-Penney interpolant (k = 1/2), which
    ChiInterpolator solves when it is built."""
    lattice, what = site.split("-")
    V = DENSE[lattice](32)
    grid = build_grid(1.0 / 16, 4)
    calls = []

    def first_zheevr_fails(name, solve, *args, **kw):
        calls.append(name)
        out = solve(*args, **kw)
        return (*out[:-1], info) if calls.count("zheevr") == 1 \
            and name == "zheevr" else out
    if what == "chi":
        table = solve_bands(V, grid, 32, 8)
        _wrap_direct_solve(monkeypatch, first_zheevr_fails)
        with pytest.raises(EigensolverFailure,
                           match=rf"zheevr failed at k = 0\.5 "
                                 rf"\(info = {info}\)"):
            ChiInterpolator(table, 2)
        assert calls == ["zheevr"]
        return
    _wrap_direct_solve(monkeypatch, first_zheevr_fails)
    k = grid.k_nodes[0]
    with pytest.raises(EigensolverFailure,
                       match=rf"zheevr failed at k = {k} \(info = {info}\)"):
        solve_bands(V, grid, 32, 8)
    assert calls == (["zheevr"] if lattice == "asymmetric"
                     else ["dsyevr"] * grid.L + ["zheevr"])


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
def test_interpolated_keys_match_oracle(Lambda, L):
    """Bands 1-3 of the cosine, Kronig-Penney and asymmetric lattices each
    have an interpolant, which gives every key (at and near the zone edges,
    on zone shifts, repeated and at random) within TOL of the per-point
    oracle, with no solve after the interpolant's nodes."""
    rng = np.random.default_rng(Lambda * L)
    k, y = _chi_points(rng, 20, 5)
    k = np.concatenate([EDGE_K, k])
    y = np.concatenate([np.linspace(0.0, 2 * np.pi, EDGE_K.size), y])
    for lattice in ("mathieu", "kp", "asymmetric"):
        table, _ = _tables(lattice, L, Lambda, 4)
        for m in (1, 2, 3):
            chi, oracle = ChiInterpolator(table, m), _OracleChi(table, m)
            assert chi._interpolant is not None
            blocks = _spy_solves(chi)
            before = len(chi._cache)
            got = chi.chi_values(k, y)
            assert np.max(np.abs(got - oracle.chi_values(k, y))) <= TOL
            _check_solves(chi, blocks, oracle, k, before)


def test_weak_cosine_lattice_gap_is_rejected_and_raised(monkeypatch):
    """Band 1 of the cosine lattice scaled by 1e-10 comes within 1.0e-10 of
    band 2 at the zone edge, a node of every Chebyshev grid: it gets no
    interpolant, and its per-key solves raise at k = 1/2 only."""
    weak = mathieu(16)
    V = PeriodicPotential(16, weak.coeffs * 1e-10, name="weak", profile=weak.profile)
    assert _hamiltonian_parts(V, 16)[1] is not None
    table = solve_bands(V, build_grid(1.0 / 7, 4), 16, 4)
    chi = ChiInterpolator(table, 1)
    assert chi._interpolant is None
    calls = _count_tridiagonal_calls(monkeypatch)
    chi.chi_values(np.array([0.2]), np.array([0.0]))
    with pytest.raises(BandGapTooSmall, match=r"gap 1\.0\d*e-10 at k = -0\.5$"):
        chi.chi_values(np.array([0.5]), np.array([0.0]))
    assert len(calls) == 2  # one solve per key


def test_node_gap_at_the_floor_gives_no_interpolant(monkeypatch):
    """With GAP_FLOOR above every gap of band 1, the interpolant's build
    stops at its first grid without raising, although the band's Chebyshev
    coefficients converge, and each key's own solve raises instead."""
    table, _ = _tables("mathieu", 7, 16, 4)
    monkeypatch.setattr(bands, "GAP_FLOOR", 10.0)
    chi = ChiInterpolator(table, 1)
    assert chi._interpolant is None and len(chi._cache) == 17
    with pytest.raises(BandGapTooSmall):
        chi.chi_values(np.array([0.2]), np.array([0.0]))


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


def test_bands_1_to_8_match_oracle_at_window_keys():
    """Every band of the eight-band cosine and Kronig-Penney tables at
    Lambda = 32 matches the per-point oracle at WINDOW_K.  Bands 1-3 are
    interpolated.  Bands 4-8 lie closer to a neighbour (at the nodes, down
    to 3.9e-8 on the cosine lattice and to 0.03 on Kronig-Penney): their
    Chebyshev coefficients do not fall to 1e-13 by n = 128, so they get no
    interpolant and every key is solved."""
    y = np.linspace(0.0, 2 * np.pi, WINDOW_K.size, endpoint=False)
    for lattice in ("mathieu", "kp"):
        table, _ = _tables(lattice, 32, 32, 8)
        for m in range(1, 9):
            chi, oracle = ChiInterpolator(table, m), _OracleChi(table, m)
            assert (chi._interpolant is not None) == (m <= 3)
            blocks = _spy_solves(chi)
            before = len(chi._cache)
            got = chi.chi_values(WINDOW_K, y)
            assert np.max(np.abs(got - oracle.chi_values(WINDOW_K, y))) <= TOL
            _check_solves(chi, blocks, oracle, WINDOW_K, before)


def test_exact_guess_at_a_table_node_needs_no_fallback(monkeypatch):
    """Band 2 at k = 0, a node of the 32-node table and of every Chebyshev
    grid: the interpolant gives that node's gauged vector exactly, and the
    key makes no solve of its own."""
    table, _ = _tables("mathieu", 32, 32, 8)
    chi, oracle = ChiInterpolator(table, 2), _OracleChi(table, 2)
    nodes, values = chi._interpolant.args
    assert np.array_equal(chi._interpolant(np.zeros(1))[0],
                          values[nodes == 0.0][0])
    keys = []
    real = bands._lowest_eigenpairs

    def spied(parts, Lambda, ks, lo, hi):
        keys.extend(ks)
        return real(parts, Lambda, ks, lo, hi)
    monkeypatch.setattr(bands, "_lowest_eigenpairs", spied)
    k = np.zeros(16)
    y = np.linspace(0.0, 2 * np.pi, k.size, endpoint=False)
    got = chi.chi_values(k, y)
    assert not keys
    assert np.max(np.abs(got - oracle.chi_values(k, y))) <= TOL


def _refined_vector(V, k, Lambda, v):
    """v, a unit eigenvector of the real H(k) with a simple eigenvalue,
    refined by Newton's method on the bordered system (Dongarra, Moler &
    Wilkinson, SIAM J. Numer. Anal. 20, 1983): the residual in
    np.longdouble, the correction in float64.  At Lambda = 64 one step takes
    the residual from about 1e-12 to 1e-19; a second is kept as margin."""
    H = _oracle_hk(V, k, Lambda).real
    x, wide = v.astype(np.longdouble), H.astype(np.longdouble)
    n = x.size
    A = np.zeros((n + 1, n + 1))
    for _ in range(2):
        rho = x @ (wide @ x) / (x @ x)
        r = wide @ x - rho * x
        A[:n, :n] = H - float(rho) * np.eye(n)
        A[:n, n], A[n, :n] = -x, x
        x = x + np.linalg.solve(A, np.append(-r.astype(float), 0.0))[:n]
    return (x / np.sqrt(x @ x)).astype(float)


class _RefinedChi(_OracleChi):
    """_OracleChi on a real H(k), each vector solved by the real eigh and
    refined by _refined_vector before its phase is aligned."""

    def _vector(self, kf):
        if kf not in self.cache:
            lo = max(0, self.m - 2)
            _, vecs = scipy.linalg.eigh(
                _oracle_hk(self.tab.potential, kf, self.tab.Lambda).real,
                subset_by_index=[lo, min(2 * self.tab.Lambda - 1, self.m)])
            v = _refined_vector(self.tab.potential, kf, self.tab.Lambda,
                                vecs[:, self.m - 1 - lo]).astype(complex)
            ov = np.vdot(self._reference(kf), v)
            self.cache[kf] = v * (np.conj(ov) / abs(ov))
        return self.cache[kf]


def test_kp_chi_at_lambda_64_matches_refined_oracle():
    """Band 2 of tests/test_wkb.py's Kronig-Penney table (eps = 1/32,
    Lambda = 64), which the WKB comparison there evaluates, against
    eigenvectors refined in extended precision.  Here eps_mach ||H||_inf /
    gap is near 1e-12, and a float64 solve carries an error of that size:
    at these keys the per-point oracle lies up to 6.0e-13 from the refined
    vectors and the interpolant (129 nodes) up to 4.9e-13, while the two lie
    8.9e-13 apart (1.1e-12 at other random keys)."""
    grid = build_grid(1.0 / 32, 64)
    table = solve_bands(kronig_penney(64), grid, 64, 8)
    chi, refined = ChiInterpolator(table, 2), _RefinedChi(table, 2)
    assert len(chi._cache) == 129
    k, y = _chi_points(np.random.default_rng(64), 60, 10)
    assert np.max(np.abs(chi.chi_values(k, y) - refined.chi_values(k, y))) <= TOL


def test_chi_values_match_oracle_at_workload_scale():
    """1024 points of the eps = 1/32 grid, y = x/eps mod 2*pi, with k over
    several zones: four blocks of power-table contractions at Lambda = 32."""
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
    """Four calls of 256 distinct k on the eps = 1/32, Lambda = 32 table
    leave the interpolator holding at most 64 bytes per key (its log of
    solved k; a vector cache holds 1 KB and more per key), and the log
    counts every k the eigensolver is given: the interpolant's nodes for
    band 1, and the nodes tried and then every key for band 4, which has no
    interpolant."""
    rng = np.random.default_rng(2024)

    def points():
        return rng.uniform(-2.5, 2.5, 256), rng.uniform(0.0, 2 * np.pi, 256)
    real = bands._lowest_eigenpairs
    for m in (1, 4):
        ChiInterpolator(baseline_mathieu, m).chi_values(*points())  # warm-up
        solved = []

        def spied(parts, Lambda, ks, lo, hi):
            solved.append(ks.size)
            return real(parts, Lambda, ks, lo, hi)
        monkeypatch.setattr(bands, "_lowest_eigenpairs", spied)
        chi = ChiInterpolator(baseline_mathieu, m)
        nodes = sum(solved)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            for _ in range(4):
                chi.chi_values(*points())
            held = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(bands, "_lowest_eigenpairs", real)
        assert held <= 64 * 4 * 256
        assert len(chi._cache) == sum(solved)
        assert sum(solved) == (nodes if m == 1 else nodes + 4 * 256)


def test_per_key_factor_on_the_complex_table():
    """chi_values multiplies each key's Fourier sum by one complex factor,
    its row's 1/norm times its gauge phase, in place of normalising and
    rotating the rows.  On the asymmetric (complex) table it matches the
    per-point oracle at the interpolant's Chebyshev nodes, at the table's
    k-nodes and across the zone edge, for two interpolated bands and for a
    band with no interpolant, whose keys are each solved; coeffs stays the
    unit-norm, gauge-aligned row."""
    table, _ = _tables("asymmetric", 32, 16, 8)
    cheb = ChiInterpolator(table, 1)._interpolant.args[0]
    edge = np.array([-0.5, 0.5, -0.5 + 1e-9, 0.5 - 1e-9, 0.5 + 1e-9, 1.5,
                     -1.5 - 1e-9])
    k = np.concatenate([cheb, table.grid.k_nodes, table.grid.k_nodes + 2.0,
                        edge])
    y = np.random.default_rng(5).uniform(0.0, 2 * np.pi, k.size)
    for m in (1, 2, 5):
        chi, oracle = ChiInterpolator(table, m), _OracleChi(table, m)
        assert (chi._interpolant is None) == (m == 5)
        blocks = _spy_solves(chi)
        before = len(chi._cache)
        got = chi.chi_values(k, y)
        assert np.max(np.abs(got - oracle.chi_values(k, y))) <= TOL
        _check_solves(chi, blocks, oracle, k, before)
        for key in (cheb[3], table.grid.k_nodes[7], 0.5, 1.5 - 1e-9):
            row = chi.coeffs(key)
            assert abs(np.linalg.norm(row) - 1.0) <= 1e-15
            assert np.max(np.abs(row - oracle.coeffs(key))) <= TOL
