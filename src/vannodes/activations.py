"""Activation functions, their derivatives, and squared-derivative moments.

``mu_k`` here is E[phi'(h)^(2k)] with h ~ N(0, q_star), in closed form for
linear, ReLU and hard-tanh and by Gauss-Hermite quadrature for tanh
(``mu_quadrature``).  q_star is the attracting fixed point of the forward
variance map q -> sigma_w^2 m(q), m(q) = E[phi(sqrt(q) z)^2]; the networks
here start from zero biases, so the map has no bias term.
mu_1 is the backward gain factor: a layer multiplies gradient variance by
sigma_w^2 * mu_1, so sigma_w^2 * mu_1 = 1 is the norm-preserving operating
point.

Both are solved directly: q_star by safeguarded Newton on
F(q) = q - sigma_w^2 m(q) (``variance_fixed_point``), and the
norm-preserving sigma_w^2 by bisection on g(s) = s mu_1(q_star(s)) - 1
(``tune_sigma_w_sq``).  For tanh and hard-tanh its root
is the critical point sigma_w^2 = 1, q_star = 0 (Schoenholz et al. 2017, "Deep
Information Propagation"): the plain recursion slows down critically there,
taking about 1/(sigma_w^2 - 1) steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ActivationKind",
    "ConvergenceError",
    "ActivationMoments",
    "apply",
    "derivative",
    "variance_fixed_point",
    "moments",
    "mean_sq_activation",
    "mean_sq_activation_derivative",
    "mu_quadrature",
    "tune_sigma_w_sq",
]

# Gauss-Hermite rule (physicists'), reused for all N(0,1) expectations.
_GH_POINTS, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(201)
_GH_Z = _GH_POINTS * math.sqrt(2.0)
_GH_W = _GH_WEIGHTS / math.sqrt(math.pi)
_EPS = float(np.finfo(np.float64).eps)
# Step cap of both solves, and the |sigma_w^2 mu_1 - 1| the gain tune reaches.
_MAX_ITER = 200
_TUNE_TOL = 1e-12


class ConvergenceError(ArithmeticError):
    """A fixed-point or root solve stopped without reaching its tolerance."""


class ActivationKind(enum.Enum):
    LINEAR = "linear"
    RELU = "relu"
    TANH = "tanh"
    HARD_TANH = "hard_tanh"


def apply(kind: ActivationKind, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """phi(h), written into ``out`` when given (``out=h`` works in place)."""
    h = np.asarray(h, dtype=np.float64)
    if kind is ActivationKind.LINEAR:
        if out is None:
            return h.copy()
        if out is not h:
            out[...] = h
        return out
    if kind is ActivationKind.RELU:
        return np.maximum(h, 0.0, out=out)
    if kind is ActivationKind.TANH:
        return np.tanh(h, out=out)
    if kind is ActivationKind.HARD_TANH:
        return np.clip(h, -1.0, 1.0, out=out)
    raise ValueError(f"unknown activation {kind!r}")


def derivative(kind: ActivationKind, phi: np.ndarray) -> np.ndarray:
    """phi'(h), read from the activation phi = phi(h) alone: ReLU's h > 0 is
    phi > 0, hard-tanh's |h| < 1 is |phi| < 1 and tanh's derivative is
    1 - phi^2, bit for bit.  Kink points (0 for ReLU, +-1 for hard-tanh)
    take derivative 0."""
    phi = np.asarray(phi, dtype=np.float64)
    if kind is ActivationKind.LINEAR:
        return np.ones_like(phi)
    if kind is ActivationKind.RELU:
        return (phi > 0).astype(np.float64)
    if kind is ActivationKind.TANH:
        return 1.0 - phi * phi
    if kind is ActivationKind.HARD_TANH:
        return (np.abs(phi) < 1.0).astype(np.float64)
    raise ValueError(f"unknown activation {kind!r}")


def mean_sq_activation(kind: ActivationKind, q: float) -> float:
    """E[phi(h)^2] for h ~ N(0, q)."""
    if q < 0:
        raise ValueError("variance q must be non-negative")
    if q == 0:
        return 0.0
    if kind is ActivationKind.LINEAR:
        return q
    if kind is ActivationKind.RELU:
        return q / 2.0
    if kind is ActivationKind.HARD_TANH:
        # E[h^2; |h|<1] + P(|h|>=1), split with a = 1/sqrt(q).
        a = 1.0 / math.sqrt(q)
        inside = math.erf(a / math.sqrt(2.0)) - a * math.sqrt(2.0 / math.pi) * math.exp(-a * a / 2.0)
        return q * inside + math.erfc(a / math.sqrt(2.0))
    if kind is ActivationKind.TANH:
        vals = np.tanh(math.sqrt(q) * _GH_Z)
        return float(np.dot(_GH_W, vals * vals))
    raise ValueError(f"unknown activation {kind!r}")


def mean_sq_activation_derivative(kind: ActivationKind, q: float) -> float:
    """d/dq E[phi(h)^2] for h ~ N(0, q), which by Gaussian integration by
    parts is E[phi'(h)^2 + phi(h) phi''(h)]."""
    if q < 0:
        raise ValueError("variance q must be non-negative")
    if kind is ActivationKind.LINEAR:
        return 1.0
    if kind is ActivationKind.RELU:
        return 0.5
    if q == 0:
        return 1.0
    if kind is ActivationKind.HARD_TANH:
        # phi'' is a pair of point masses at the kinks h = +-1.
        return math.erf(1.0 / math.sqrt(2.0 * q)) - 2.0 * math.exp(-0.5 / q) / math.sqrt(2.0 * math.pi * q)
    if kind is ActivationKind.TANH:
        # E[phi(h) phi'(h) z] / sqrt(q): on the Gauss-Hermite rule this is the
        # exact derivative of mean_sq_activation's sum, and it is more
        # accurate than the phi'^2 + phi phi'' integrand for large q.
        t = np.tanh(math.sqrt(q) * _GH_Z)
        return float(np.dot(_GH_W, t * (1.0 - t * t) * _GH_Z)) / math.sqrt(q)
    raise ValueError(f"unknown activation {kind!r}")


def mu_quadrature(kind: ActivationKind, q_star: float) -> tuple[float, float]:
    """(mu_1, mu_2) = (E[phi'(h)^2], E[phi'(h)^4]) for h ~ N(0, q_star): closed
    forms for linear, ReLU and hard-tanh, Gauss-Hermite quadrature for tanh.
    This is the only route to the moments."""
    if q_star < 0:
        raise ValueError("q_star must be non-negative")
    if kind is ActivationKind.LINEAR:
        return 1.0, 1.0
    if kind is ActivationKind.RELU:
        return 0.5, 0.5
    if kind is ActivationKind.HARD_TANH:
        # phi' is the indicator of |h| < 1, so every even power has one mean.
        if q_star == 0:
            return 1.0, 1.0
        mu = math.erf(1.0 / math.sqrt(2.0 * q_star))
        return mu, mu
    if kind is ActivationKind.TANH:
        if q_star == 0:
            return 1.0, 1.0
        t = np.tanh(math.sqrt(q_star) * _GH_Z)
        d = 1.0 - t * t
        return float(np.dot(_GH_W, d ** 2)), float(np.dot(_GH_W, d ** 4))
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class ActivationMoments:
    mu1: float
    mu2: float
    q_star: float


def moments(kind: ActivationKind, q_star: float) -> ActivationMoments:
    """mu_1 = E[phi'^2] and mu_2 = E[phi'^4] at q_star, from ``mu_quadrature``."""
    return ActivationMoments(*mu_quadrature(kind, q_star), q_star)


def variance_fixed_point(kind: ActivationKind, sigma_w_sq: float, sigma_x_sq: float) -> float:
    """Limit of the pre-activation variance recursion
    q_{l+1} = sigma_w^2 m(q_l), m(q) = E[phi(sqrt(q) z)^2], from
    q_0 = sigma_x^2.

    The map is increasing, so the recursion moves monotonically to the
    nearest root of F(q) = q - sigma_w^2 m(q) on the side where
    F(sigma_x^2) points.  That root is bracketed and solved by Newton's
    method, falling back to bisection when a step leaves the bracket, until
    |F| is at rounding level.  With sigma_w^2 m'(0) <= 1 the recursion
    decays to the root at 0 and 0.0 is returned.

    Raises FloatingPointError when the recursion grows past 1e12 (no root
    above sigma_x^2), and ConvergenceError when F changes sign without
    reaching zero or 200 steps do not converge.
    """
    if sigma_w_sq <= 0:
        raise ValueError("sigma_w_sq must be positive")

    def residual(q: float) -> tuple[float, float]:
        """F(q) and the rounding level it can be resolved to."""
        mapped = sigma_w_sq * mean_sq_activation(kind, q)
        return q - mapped, 16.0 * _EPS * (q + mapped)

    q = float(sigma_x_sq)
    f, noise = residual(q)
    if abs(f) <= noise:
        return q
    if sigma_w_sq * mean_sq_activation_derivative(kind, 0.0) <= 1.0:
        # phi(h)^2 <= m'(0) h^2 for every kind here, so the map pulls each q > 0 down.
        return 0.0
    if f > 0:
        # Descending: F(0) = 0, and F < 0 just above 0.
        lo, hi = 0.0, q
    else:  # ascending: double q until F turns positive
        lo, hi = q, q
        while f < 0:
            lo, hi = hi, 2.0 * hi
            if hi > 1e12:
                raise FloatingPointError("forward variance recursion is exploding")
            f, noise = residual(hi)
        q = hi
    for _ in range(_MAX_ITER):
        if abs(f) <= noise:
            return q
        # F(lo) <= 0 < F(hi), and q is the last point evaluated.  The attracting
        # root has map slope below 1, i.e. F' > 0, so Newton only steps where F rises.
        slope = 1.0 - sigma_w_sq * mean_sq_activation_derivative(kind, q)
        newton = q - f / slope if slope > 0 else math.nan
        q = newton if lo < newton < hi else 0.5 * (lo + hi)
        if not lo < q < hi:
            raise ConvergenceError(
                f"variance map has no fixed point in [{lo!r}, {hi!r}]: F changes sign without reaching zero"
            )
        f, noise = residual(q)
        if f > 0:
            hi = q
        else:
            lo = q
    raise ConvergenceError(f"variance fixed point did not converge in {_MAX_ITER} steps (|F| = {abs(f):.3g})")


def tune_sigma_w_sq(kind: ActivationKind, sigma_x_sq: float = 0.1) -> tuple[float, float]:
    """Solve sigma_w^2 * mu_1(q_star(sigma_w^2)) = 1.

    Returns (sigma_w_sq, q_star), with q_star exactly as
    ``variance_fixed_point(kind, sigma_w_sq, sigma_x_sq)`` returns it.
    Linear and ReLU have a q-independent mu_1, so sigma_w^2 = 1 / mu_1.
    Tanh and hard-tanh bisect g(s) = s mu_1(q_star(s)) - 1 until |g| <= 1e-12,
    mu_1 by quadrature so the result is deterministic.  g(1) <= 0 because
    mu_1 <= 1; g < 0 below s = 1 (q_star = 0, mu_1 = 1) and g > 0 above it,
    so the root is the critical point s = 1, q_star = 0 and bisection stops
    just above it, where q_star is tiny.
    """
    if kind in (ActivationKind.LINEAR, ActivationKind.RELU):
        s = 1.0 / mu_quadrature(kind, 0.0)[0]
        return s, variance_fixed_point(kind, s, sigma_x_sq)

    def g(s: float) -> tuple[float, float]:
        q = variance_fixed_point(kind, s, sigma_x_sq)
        return s * mu_quadrature(kind, q)[0] - 1.0, q

    lo, hi = 1.0, 2.0
    while g(hi)[0] <= 0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise ConvergenceError("no sigma_w^2 <= 1e6 makes sigma_w^2 mu_1 exceed 1")
    for _ in range(_MAX_ITER):
        s = 0.5 * (lo + hi)
        resid, q = g(s)
        if abs(resid) <= _TUNE_TOL:
            return s, q
        if resid > 0:
            hi = s
        else:
            lo = s
    raise ConvergenceError(f"gain tune did not reach |sigma_w^2 mu_1 - 1| <= {_TUNE_TOL:g} in {_MAX_ITER} steps")
