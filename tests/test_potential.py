import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochstep import (
    eval_external,
    external_from_spec,
    PeriodicPotential,
    build_grid,
    from_samples,
    kronig_penney,
    mathieu,
    solve_bands,
)
from blochstep.errors import InsufficientSamples, NonFinite, OutOfDomain


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
    assert eval_external(U, np.pi) == 0.0
    S = external_from_spec("step")
    assert eval_external(S, np.pi) == 1.0
    assert eval_external(S, 0.0) == 0.0
    assert eval_external(S, np.pi / 2) == 1.0
    assert eval_external(S, 3 * np.pi / 2) == 1.0
    Lin = external_from_spec("linear:1")
    assert abs(eval_external(Lin, 2.0) - 2.0) < 1e-15
    with pytest.raises(OutOfDomain):
        eval_external(U, -0.1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_series_real_at_random_points(seed):
    rng = np.random.default_rng(seed)
    y = rng.uniform(0, 2 * np.pi, 128)
    for V in (mathieu(6), kronig_penney(6)):
        vals = _series(V, y)
        assert np.max(np.abs(vals.imag)) < 1e-10
