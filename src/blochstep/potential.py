"""Lattice potentials (truncated Fourier tables) and slowly varying external potentials."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InsufficientSamples, IoFailure, NonFinite, NonSmoothForce
from .grid import read_file

TWO_PI = 2.0 * np.pi

# table entries formed at once, a power table and a block of points alike:
# 256 KB of complex128
_BLOCK = 2 ** 14


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """The power table z^0..z^{n-1} of z = exp(x), (n, *x.shape): row 1 is
    one complex exponential per point, and the rest _fill_powers."""
    p = np.empty((n,) + x.shape, dtype=complex)
    if n > 1:
        np.exp(x, out=p[1])
    return _fill_powers(p)


def _fill_powers(p: np.ndarray) -> np.ndarray:
    """p, in place, as the power table of its row 1: row 0 is 1, and rows
    h+1..min(2h, n-1) are rows 1.. times row h for h = 1, 2, 4, ..., about
    log2(n) vectorized products."""
    n = len(p)
    p[0] = 1.0
    h = 1
    while h + 1 < n:
        top = min(2 * h, n - 1)
        np.multiply(p[1:top - h + 1], p[h], p[h + 1:top + 1])
        h = top
    return p


def _fourier_sum(c: np.ndarray, w: float = 1.0, x0: float = 0.0):
    """Re sum_j c_j exp(i j w (x + x0)) as a function of x (any shape), by the
    baby-step/giant-step split of Paterson & Stockmeyer (SIAM J. Comput. 2,
    1973), laid out once, here: c in B blocks of B, B = ceil(sqrt(n)).  With
    z = exp(i w (x + x0)), a _powers table holds z^0..z^B, the block sums over
    r are one matmul, and the giant steps (z^B)^q fill a second table from
    its z^B, so that every power rounds only products of z: one complex
    exponential per point, and no rounding of B w (x + x0) at large x.
    Points go in blocks of _BLOCK table entries."""
    B = math.isqrt(c.size - 1) + 1
    blocks = np.zeros(B * B, dtype=complex)
    blocks[:c.size] = c
    blocks = blocks.reshape(B, B)  # blocks[q, r] = c_{qB + r}
    rows = max(1, _BLOCK // (2 * B))

    def evaluate(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = (x + x0).reshape(-1)
        out = np.empty(flat.size)
        for b in range(0, flat.size, rows):
            baby = _powers(1j * w * flat[b:b + rows], B + 1)
            giant = np.empty_like(baby[:B])
            giant[1:2] = baby[B]
            out[b:b + rows] = (blocks @ baby[:B]
                               * _fill_powers(giant)).sum(axis=0).real
        return out.reshape(x.shape)

    return evaluate


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
        """The truncated Fourier series at y, real part, by _fourier_sum:
        Re sum_{lam >= 0} c_lam exp(i lam y), c_0 = V-hat(0) and c_lam =
        V-hat(lam) + conj(V-hat(-lam)) (2 V-hat(lam) on a Hermitian table)."""
        mid = 2 * self.Lambda - 1
        c = self.coeffs[mid:] + self.coeffs[mid::-1].conj()
        c[0] = self.coeffs[mid]
        return _fourier_sum(c)(y)

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


def mathieu(Lambda: int) -> PeriodicPotential:
    """V(y) = cos(y): the only nonzero coefficients are V(+-1) = 1/2."""
    if Lambda < 2:
        raise ValueError("Lambda must be >= 2")
    c = np.zeros(4 * Lambda - 1, dtype=complex)
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
    c = np.zeros(4 * Lambda - 1, dtype=complex)
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
    fhat = np.fft.fft(samples) / samples.size
    lam = np.arange(2 * Lambda)  # below samples.size / 2
    pos = 0.5 * (fhat[lam] + np.conj(fhat[-lam]))  # V(lam), lam >= 0
    return PeriodicPotential(Lambda, np.concatenate(
        [np.conj(pos[::-1]), pos[1:]]), name="sampled")


@dataclass(frozen=True)
class ExternalPotential:
    """Slowly varying external potential U(x) on [0, 2*pi].

    kind is one of none / linear / harmonic / step, else ValueError.  Linear
    carries a force-field strength, which must be finite.
    """

    kind: str
    strength: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "linear", "harmonic", "step"):
            raise ValueError(f"unknown external potential kind {self.kind!r}")
        if not np.isfinite(self.strength):
            raise NonFinite(
                f"non-finite external potential strength {self.strength}")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "none":
            return np.zeros_like(x)
        if self.kind == "linear":
            return self.strength * x
        if self.kind == "harmonic":
            return (x - np.pi) ** 2
        # step: the closed interval [pi/2, 3*pi/2]
        return ((x >= np.pi / 2) & (x <= 3 * np.pi / 2)).astype(float)

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


EXTERNAL_NONE = ExternalPotential("none")


def external_from_spec(spec: str) -> ExternalPotential:
    """Parse 'none', 'linear:<E>', 'harmonic', or 'step'."""
    spec = spec.strip()
    if spec in ("none", "harmonic", "step"):
        return ExternalPotential(spec)
    if spec.startswith("linear:"):
        return ExternalPotential("linear", strength=float(spec.split(":", 1)[1]))
    raise ValueError(f"unknown external potential spec {spec!r}")


def lattice_from_spec(spec: str, Lambda: int) -> PeriodicPotential:
    """Parse 'mathieu', 'kronig_penney', or 'file:<path>': UTF-8 text with one
    real sample per line, where '#' starts a comment.  A file that cannot be
    read or parsed raises IoFailure."""
    spec = spec.strip()
    if spec == "mathieu":
        return mathieu(Lambda)
    if spec == "kronig_penney":
        return kronig_penney(Lambda)
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            samples = [float(s) for t in read_file(path).decode().splitlines()
                       if (s := t.split("#", 1)[0].strip())]
        except ValueError as exc:  # a UnicodeDecodeError is one too
            raise IoFailure(f"{path}: {exc}") from exc
        return from_samples(samples, Lambda)
    raise ValueError(f"unknown lattice potential spec {spec!r}")
