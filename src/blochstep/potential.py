"""Lattice potentials (truncated Fourier tables) and slowly varying external potentials."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InsufficientSamples, NonFinite, NonSmoothForce, OutOfDomain

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PeriodicPotential:
    """Truncated Fourier representation of a real 2*pi-periodic lattice potential.

    Coefficients are stored for lambda in {1-2*Lambda, ..., 2*Lambda-1}, the
    full range consumed by the 2*Lambda x 2*Lambda matrix assembly.  A profile
    callable, when present, evaluates the untruncated potential pointwise
    (used by the time-splitting solver, which samples V directly).
    """

    Lambda: int
    coeffs: np.ndarray  # (4*Lambda - 1,) complex, index lam + 2*Lambda - 1
    name: str = "custom"
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False)

    def __post_init__(self):
        n = 4 * self.Lambda - 1
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (n,):
            raise ValueError(f"expected {n} coefficients, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise NonFinite("non-finite lattice potential coefficients")
        # real potential => Hermitian symmetry of the coefficient table
        if np.max(np.abs(c - np.conj(c[::-1]))) > 1e-12:
            raise ValueError("coefficients violate V(-lam) = conj(V(lam))")
        object.__setattr__(self, "coeffs", c)

    def vhat(self, lam) -> np.ndarray:
        """V-hat(lambda); zero outside the stored range."""
        lam = np.asarray(lam)
        idx = lam + 2 * self.Lambda - 1
        inside = (idx >= 0) & (idx < self.coeffs.size)
        out = np.zeros(lam.shape, dtype=complex)
        out[inside] = self.coeffs[idx[inside]]
        return out

    def series(self, y) -> np.ndarray:
        """Evaluate the truncated Fourier series at y (real output)."""
        lam = np.arange(1 - 2 * self.Lambda, 2 * self.Lambda)
        y = np.asarray(y, dtype=float)
        vals = np.tensordot(np.exp(1j * np.multiply.outer(y, lam)), self.coeffs, axes=1)
        return vals.real

    def sample(self, y) -> np.ndarray:
        """Pointwise values, preferring the exact profile over the series."""
        y = np.asarray(y, dtype=float)
        if self.profile is not None:
            return np.asarray(self.profile(y), dtype=float)
        return self.series(y)

    def content_hash(self) -> int:
        """Stable 64-bit hash of the coefficient table, for cache headers."""
        digest = hashlib.sha256(np.ascontiguousarray(self.coeffs).tobytes()).digest()
        return int.from_bytes(digest[:8], "little")


def _coeff_array(Lambda: int) -> np.ndarray:
    return np.zeros(4 * Lambda - 1, dtype=complex)


def mathieu(Lambda: int) -> PeriodicPotential:
    """V(y) = cos(y): the only nonzero coefficients are V(+-1) = 1/2."""
    if Lambda < 2:
        raise ValueError("Lambda must be >= 2")
    c = _coeff_array(Lambda)
    mid = 2 * Lambda - 1
    c[mid + 1] = 0.5
    c[mid - 1] = 0.5
    return PeriodicPotential(Lambda, c, name="mathieu", profile=np.cos)


def _kronig_penney_profile(y):
    frac = np.mod(y, TWO_PI)
    return 1.0 - ((frac >= np.pi / 2) & (frac <= 3 * np.pi / 2)).astype(float)


def kronig_penney(Lambda: int) -> PeriodicPotential:
    """Unit barrier outside [pi/2, 3*pi/2] per period, from the analytic integral.

    V(0) = 1/2; V(lam) = sin(lam*pi/2) / (pi*lam) for odd lam, 0 for even lam != 0.
    The closed form avoids Gibbs contamination of the eigenproblem.
    """
    if Lambda < 2:
        raise ValueError("Lambda must be >= 2")
    c = _coeff_array(Lambda)
    mid = 2 * Lambda - 1
    c[mid] = 0.5
    for lam in range(1, 2 * Lambda, 2):
        c[mid + lam] = c[mid - lam] = np.sin(lam * np.pi / 2) / (np.pi * lam)
    return PeriodicPotential(Lambda, c, name="kronig_penney",
                             profile=_kronig_penney_profile)


def from_samples(samples, Lambda: int) -> PeriodicPotential:
    """Fourier coefficients of a tabulated real potential on a uniform y-grid.

    Hermitizes by averaging V(lam) with conj(V(-lam)), which discards any
    imaginary part introduced by sampling noise.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 4 * Lambda:
        raise InsufficientSamples(
            f"need >= {4 * Lambda} real samples, got {samples.shape}")
    n = samples.size
    fhat = np.fft.fft(samples) / n
    c = _coeff_array(Lambda)
    mid = 2 * Lambda - 1
    for lam in range(0, 2 * Lambda):
        pos = fhat[lam % n]
        neg = fhat[(-lam) % n]
        c[mid + lam] = 0.5 * (pos + np.conj(neg))
        c[mid - lam] = np.conj(c[mid + lam])
    return PeriodicPotential(Lambda, c, name="sampled")


@dataclass(frozen=True)
class ExternalPotential:
    """Slowly varying external potential U(x) on [0, 2*pi].

    kind is one of none / linear / harmonic / step.  Linear carries a
    force-field strength.
    """

    kind: str
    strength: float = 0.0

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "none":
            return np.zeros_like(x)
        if self.kind == "linear":
            return self.strength * x
        if self.kind == "harmonic":
            return (x - np.pi) ** 2
        if self.kind == "step":
            # closed interval [pi/2, 3*pi/2]
            return ((x >= np.pi / 2) & (x <= 3 * np.pi / 2)).astype(float)
        raise ValueError(f"unknown external potential kind {self.kind!r}")

    def derivative(self, x) -> np.ndarray:
        """dU/dx; refuses the step potential (distributional force)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "none":
            return np.zeros_like(x)
        if self.kind == "linear":
            return np.full_like(x, self.strength)
        if self.kind == "harmonic":
            return 2.0 * (x - np.pi)
        raise NonSmoothForce(f"{self.kind} potential has no smooth derivative")

    @property
    def is_smooth(self) -> bool:
        return self.kind in ("none", "linear", "harmonic")


EXTERNAL_NONE = ExternalPotential("none")


def eval_external(U: ExternalPotential, x) -> np.ndarray:
    """Evaluate U at x, enforcing the domain [0, 2*pi]."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > TWO_PI):
        raise OutOfDomain(f"x outside [0, 2*pi]")
    return U(xa)


def external_from_spec(spec: str) -> ExternalPotential:
    """Parse 'none', 'linear:<E>', 'harmonic', or 'step'."""
    spec = spec.strip()
    if spec in ("none", "harmonic", "step"):
        return ExternalPotential(spec)
    if spec.startswith("linear:"):
        return ExternalPotential("linear", strength=float(spec.split(":", 1)[1]))
    raise ValueError(f"unknown external potential spec {spec!r}")


def lattice_from_spec(spec: str, Lambda: int) -> PeriodicPotential:
    """Parse 'mathieu', 'kronig_penney', or 'file:<path>' (one real sample per line)."""
    spec = spec.strip()
    if spec == "mathieu":
        return mathieu(Lambda)
    if spec == "kronig_penney":
        return kronig_penney(Lambda)
    if spec.startswith("file:"):
        samples = np.loadtxt(spec.split(":", 1)[1])
        return from_samples(samples, Lambda)
    raise ValueError(f"unknown lattice potential spec {spec!r}")
