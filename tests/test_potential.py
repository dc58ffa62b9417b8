import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochstep import (
    external_from_spec,
    PeriodicPotential,
    build_grid,
    from_samples,
    kronig_penney,
    lattice_from_spec,
    mathieu,
    solve_bands,
)
from blochstep.errors import InsufficientSamples, IoFailure, NonFinite
from blochstep.potential import ExternalPotential, _powers


def _series(V, y):
    return V.series(np.asarray(y, dtype=float))


def test_mathieu_coefficients():
    V = mathieu(8)
    assert V.vhat(1) == 0.5
    assert V.vhat(-1) == 0.5
    assert V.vhat(0) == 0.0
    assert V.vhat(3) == 0.0
    assert abs(_series(V, np.array([0.0]))[0] - 1.0) < 1e-14


def test_kronig_penney_coefficients():
    V = kronig_penney(8)
    assert abs(V.vhat(0) - 0.5) < 1e-12
    assert abs(V.vhat(1) - 1 / np.pi) < 1e-12
    assert abs(V.vhat(2)) < 1e-14
    # quadrature oracle on the unit barrier outside (pi/2, 3*pi/2)
    y = np.linspace(0, 2 * np.pi, 1 << 16, endpoint=False)
    box = 1.0 - ((y >= np.pi / 2) & (y <= 3 * np.pi / 2)).astype(float)
    for lam in (0, 1, 3, 5):
        quad = np.mean(box * np.exp(-1j * lam * y))
        assert abs(V.vhat(lam) - quad) < 1e-4


def test_from_samples_matches_mathieu():
    y = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    V = from_samples(np.cos(y), 8)
    W = mathieu(8)
    for lam in range(-15, 16):
        assert abs(V.vhat(lam) - W.vhat(lam)) < 1e-12


def test_from_samples_constant():
    V = from_samples(np.ones(32), 4)
    assert abs(V.vhat(0) - 1.0) < 1e-13
    assert abs(V.vhat(1)) < 1e-13


def test_from_samples_kronig_penney_jump():
    y = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    box = 1.0 - ((y >= np.pi / 2) & (y <= 3 * np.pi / 2)).astype(float)
    V = from_samples(box, 8)
    assert abs(V.vhat(1) - 1 / np.pi) < 1e-3


def test_lattice_file_matches_from_samples(tmp_path):
    samples = np.cos(2 * np.pi * np.arange(64) / 64)
    path = tmp_path / "lattice.txt"
    path.write_text("# cosine lattice\n\n"
                    + "".join(f"{float(v)!r}  # sample\n" for v in samples))
    V = lattice_from_spec(f"file:{path}", 8)
    np.testing.assert_array_equal(V.coeffs, from_samples(samples, 8).coeffs)


@pytest.mark.parametrize("contents", [None, "dir", b"0.5\nhalf\n",
                                      b"0.5\n\xff\xfe\n"],
                         ids=["missing", "directory", "non-numeric",
                              "not-utf8"])
def test_lattice_file_failures_are_io_failure(tmp_path, contents):
    path = tmp_path / "lattice.txt"
    if contents == "dir":
        path.mkdir()
    elif contents is not None:
        path.write_bytes(contents)
    with pytest.raises(IoFailure):
        lattice_from_spec(f"file:{path}", 8)


def test_from_samples_rejects_short_input():
    with pytest.raises(InsufficientSamples):
        from_samples(np.ones(8), 4)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficients_are_typed(bad):
    # a NaN passes the Hermitian-symmetry check, since NaN > tol is false
    samples = np.cos(2 * np.pi * np.arange(64) / 64)
    samples[3] = bad
    with pytest.raises(NonFinite):
        solve_bands(from_samples(samples, 8), build_grid(1 / 4, 4), 8, 2)
    coeffs = mathieu(8).coeffs.copy()
    coeffs[0] = coeffs[-1] = bad
    with pytest.raises(NonFinite):
        PeriodicPotential(8, coeffs)


def test_external_potentials():
    U = external_from_spec("harmonic")
    assert U(np.pi) == 0.0
    S = external_from_spec("step")
    assert S(np.pi) == 1.0
    assert S(0.0) == 0.0
    assert S(np.pi / 2) == 1.0
    assert S(3 * np.pi / 2) == 1.0
    Lin = external_from_spec("linear:1")
    assert abs(Lin(2.0) - 2.0) < 1e-15


@pytest.mark.parametrize("spec", ["linear:nan", "linear:inf", "linear:-inf",
                                  "linear:1e308", "linear:-3e307"])
def test_non_finite_external_strength_is_typed(spec):
    """A strength that is not finite, or whose samples strength * x on
    [0, 2*pi] are not, is refused (with no overflow warning)."""
    with pytest.raises(NonFinite, match="strength"):
        external_from_spec(spec)
    with pytest.raises(NonFinite, match="strength"):
        ExternalPotential("linear", strength=float(spec.split(":")[1]))


def test_unknown_external_kind_is_rejected_at_construction():
    # it used to be built, and its derivative raised NonSmoothForce
    with pytest.raises(ValueError, match="unknown external potential kind"):
        ExternalPotential("bogus")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_series_real_at_random_points(seed):
    rng = np.random.default_rng(seed)
    y = rng.uniform(0, 2 * np.pi, 128)
    for V in (mathieu(6), kronig_penney(6)):
        vals = _series(V, y)
        assert np.max(np.abs(vals.imag)) < 1e-10


def _tensordot_series(V, y, chunk=2048):
    """The earlier series: the whole (points, 4*Lambda - 1) table of complex
    exponentials contracted with the coefficients, here formed chunk points
    at a time."""
    lam = np.arange(1 - 2 * V.Lambda, 2 * V.Lambda)
    flat = np.asarray(y, dtype=float).reshape(-1)
    out = np.concatenate([
        np.tensordot(np.exp(1j * np.multiply.outer(flat[b:b + chunk], lam)),
                     V.coeffs, axes=1).real
        for b in range(0, max(flat.size, 1), chunk)])
    return out.reshape(np.shape(y))


def _smooth_asymmetric(Lambda):
    """A sampled lattice without reflection symmetry whose coefficients decay
    geometrically: complex V-hat at every lam."""
    y = 2 * np.pi * np.arange(4 * Lambda) / (4 * Lambda)
    return from_samples(np.exp(np.sin(y)) + 0.5 * np.cos(2 * y + 0.4), Lambda)


SERIES_LATTICES = {"mathieu": mathieu, "kronig_penney": kronig_penney,
                   "sampled": _smooth_asymmetric}


@pytest.mark.parametrize("Lambda", [2, 5, 64])
@pytest.mark.parametrize("lattice", SERIES_LATTICES)
def test_series_matches_tensordot_oracle(lattice, Lambda):
    V = SERIES_LATTICES[lattice](Lambda)
    rng = np.random.default_rng(Lambda)
    for y in (rng.uniform(0, 2 * np.pi, 4096), np.linspace(0, 2 * np.pi, 30,
              endpoint=False).reshape(2, 3, 5), np.float64(1.3), 0.0, []):
        got, want = V.series(y), _tensordot_series(V, y)
        assert got.shape == want.shape and got.dtype == float
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13


@pytest.mark.parametrize("lattice", SERIES_LATTICES)
def test_series_matches_tensordot_oracle_at_ts_sample_points(lattice):
    # TS samples V at y = x/eps: up to 6434 at eps = 1/1024, R = 32, where
    # both sums carry the round-off of their arguments (lam*y in the oracle,
    # B*y in the block sum)
    grid = build_grid(1.0 / 1024, 32)
    y = grid.x_nodes / grid.epsilon
    V = SERIES_LATTICES[lattice](64)
    assert np.max(np.abs(V.series(y) - _tensordot_series(V, y))) <= 1e-10


def _mpmath_series(V, y):
    """The series at each y summed in 40-digit arithmetic: V-hat(0) plus
    2 Re(V-hat(lam) z^lam) for lam >= 1, z = exp(i y)."""
    mpmath = pytest.importorskip("mpmath")
    mid = 2 * V.Lambda - 1
    with mpmath.workdps(40):
        c = [mpmath.mpc(a.real, a.imag) for a in V.coeffs[mid:]]
        out = []
        for v in y:
            z = mpmath.expj(mpmath.mpf(float(v)))
            total, power = mpmath.re(c[0]), z
            for a in c[1:]:
                total += 2 * mpmath.re(a * power)
                power *= z
            out.append(float(total))
    return np.array(out)


@pytest.mark.parametrize("lattice", ["kronig_penney", "noise"])
def test_series_at_ts_sample_points_against_extended_precision(lattice):
    """TS samples V at y = x/eps, up to 6434 at eps = 1/1024, R = 32.  Every
    power of z = exp(i y) in the block sum, the giant steps included, is a
    product of z, so no argument B*y is rounded: the error is within
    2e-15 sum|V-hat| (measured on 1536 of these points: 5.6e-16 on
    Kronig-Penney, 1.2e-14 on the white-noise table; the giant step
    exp(i fl(B y)) gave 1.0e-11 and 6.7e-11)."""
    grid = build_grid(1.0 / 1024, 32)
    y = (grid.x_nodes / grid.epsilon).reshape(-1)
    y = np.concatenate([y[::512], y[-64:]])  # the largest y last
    V = (kronig_penney(64) if lattice == "kronig_penney" else from_samples(
        np.random.default_rng(7).standard_normal(256), 64))
    bound = 2e-15 * np.sum(np.abs(V.coeffs))
    assert np.max(np.abs(V.series(y) - _mpmath_series(V, y))) <= bound


def test_series_memory_at_ts_scale():
    # the oracle's (points, 255) table peaked at 255 MB on this grid
    grid = build_grid(1.0 / 1024, 32)
    y = grid.x_nodes / grid.epsilon
    V = from_samples(np.random.default_rng(7).standard_normal(256), 64)
    tracemalloc.start()
    try:
        V.series(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 17, 64, 129])
def test_powers_match_direct_exponentials(n):
    # the doubling fill against one exponential per power, on a (2, points)
    # argument as the block sum passes it; both sides round j*theta, or its
    # product, at about 3e-16 per power
    theta = np.random.default_rng(n).uniform(-np.pi, np.pi, (2, 7))
    got = _powers(1j * theta, n)
    want = np.exp(1j * np.multiply.outer(np.arange(n), theta))
    assert got.shape == (n, 2, 7)
    assert np.max(np.abs(got - want)) <= 1e-15 * n
