"""Activation functions, their derivatives, and squared-derivative moments.

``mu_k`` here is E[phi'(h)^(2k)] with h ~ N(0, q_star), in closed form for
linear, ReLU and hard-tanh and by Gauss-Hermite quadrature for tanh
(``mu_quadrature``).  q_star is the attracting fixed point of the forward
variance map q -> sigma_w^2 m(q), m(q) = E[phi(sqrt(q) z)^2]; the networks
here start from zero biases, so the map has no bias term.
mu_1 is the backward gain factor: a layer multiplies gradient variance by
sigma_w^2 * mu_1, so sigma_w^2 * mu_1 = 1 is the norm-preserving operating
point.

Both are solved directly: q_star by bisection of
F(q) = q - sigma_w^2 m(q) on (0, sigma_w^2), or in closed form where the map
decays to 0 or is linear (``variance_fixed_point``), and the
norm-preserving sigma_w^2 in closed form, 1 / mu_1(0) (``tune_sigma_w_sq``).
For tanh and hard-tanh that is the critical point sigma_w^2 = 1, q_star = 0
(Schoenholz et al. 2017, "Deep Information Propagation"): the plain
recursion slows down critically there, taking about 1/(sigma_w^2 - 1) steps.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ActivationKind",
    "ConvergenceError",
    "ActivationMoments",
    "in_place",
    "derivative",
    "variance_fixed_point",
    "mean_sq_activation",
    "mu_quadrature",
    "tune_sigma_w_sq",
]

_EPS = float(np.finfo(np.float64).eps)


@functools.cache
def _gauss_hermite() -> tuple[np.ndarray, np.ndarray]:
    """The 201-point Gauss-Hermite rule (physicists') as nodes z and weights
    w with E[f(Z)] ~ w . f(z) for Z ~ N(0, 1), formed on first use: only
    tanh's moments read it."""
    points, weights = np.polynomial.hermite.hermgauss(201)
    rule = points * math.sqrt(2.0), weights / math.sqrt(math.pi)
    for a in rule:
        a.flags.writeable = False
    return rule


class ConvergenceError(ArithmeticError):
    """The variance fixed-point solve stopped without reaching its tolerance."""


class ActivationKind(enum.Enum):
    LINEAR = "linear"
    RELU = "relu"
    TANH = "tanh"
    HARD_TANH = "hard_tanh"


# phi in place: each overwrites its float64 argument with phi of it.
_IN_PLACE = {
    ActivationKind.LINEAR: lambda h: h,
    ActivationKind.RELU: lambda h: np.maximum(h, 0.0, out=h),
    ActivationKind.TANH: lambda h: np.tanh(h, out=h),
    ActivationKind.HARD_TANH: lambda h: np.clip(h, -1.0, 1.0, out=h),
}


def in_place(kind: ActivationKind):
    """phi as a function that overwrites a float64 array h with phi(h) and
    returns it; copy h first to keep it."""
    if kind not in _IN_PLACE:
        raise ValueError(f"unknown activation {kind!r}")
    return _IN_PLACE[kind]


def derivative(kind: ActivationKind, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """phi'(h), read from the activation phi = phi(h) alone, and written
    into ``out`` when given: ReLU's h > 0 is phi > 0, hard-tanh's |h| < 1 is
    |phi| < 1 and tanh's derivative is 1 - phi^2, bit for bit.  Kink points
    (0 for ReLU, +-1 for hard-tanh) take derivative 0."""
    phi = np.asarray(phi, dtype=np.float64)
    if out is None:
        out = np.empty_like(phi)
    if kind is ActivationKind.LINEAR:
        out[...] = 1.0
        return out
    if kind is ActivationKind.RELU:
        return np.greater(phi, 0.0, out=out)
    if kind is ActivationKind.TANH:
        np.multiply(phi, phi, out=out)
        return np.subtract(1.0, out, out=out)
    if kind is ActivationKind.HARD_TANH:
        np.abs(phi, out=out)
        return np.less(out, 1.0, out=out)
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
        # E[h^2; |h|<1] + P(|h|>=1), split with a = 1/sqrt(q).  For a < 1
        # the closed form's two terms cancel (a relative error near 3 eps /
        # a^2), so the integral's series is summed there: 20 terms suffice.
        a = 1.0 / math.sqrt(q)
        if a < 1.0:
            inside = math.sqrt(2.0 / math.pi) * a * sum((-a * a / 2) ** k / (math.factorial(k) * (2 * k + 3)) for k in range(20))
        else:
            inside = q * (math.erf(a / math.sqrt(2.0)) - a * math.sqrt(2.0 / math.pi) * math.exp(-a * a / 2.0))
        return inside + math.erfc(a / math.sqrt(2.0))
    if kind is ActivationKind.TANH:
        z, w = _gauss_hermite()
        vals = np.tanh(math.sqrt(q) * z)
        return float(np.dot(w, vals * vals))
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
        z, w = _gauss_hermite()
        t = np.tanh(math.sqrt(q_star) * z)
        d = 1.0 - t * t
        return float(np.dot(w, d ** 2)), float(np.dot(w, d ** 4))
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class ActivationMoments:
    mu1: float
    mu2: float
    q_star: float


def variance_fixed_point(kind: ActivationKind, sigma_w_sq: float, sigma_x_sq: float) -> float:
    """Limit of the pre-activation variance recursion
    q_{l+1} = sigma_w^2 m(q_l), m(q) = E[phi(sqrt(q) z)^2], from
    q_0 = sigma_x^2.

    q_0 is returned when it is a root of F(q) = q - sigma_w^2 m(q) to
    rounding level.  With sigma_w^2 m'(0) <= 1 the recursion decays to the
    root at 0 and 0.0 is returned.  Above that slope, linear and ReLU have a
    linear map and no other root: the recursion explodes.  Tanh and
    hard-tanh have m < 1, so F(sigma_w^2) > 0 while F < 0 just above 0: the
    one attracting root lies in (0, sigma_w^2), whatever q_0 > 0, and is
    bisected there until |F| is at rounding level.

    Raises FloatingPointError for an exploding recursion, and
    ConvergenceError when the bracket can no longer be split.
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
    # m'(0) = mu_1(0), and phi(h)^2 <= m'(0) h^2 for every kind here, so the map pulls each q > 0 down.
    if sigma_w_sq * mu_quadrature(kind, 0.0)[0] <= 1.0:
        return 0.0
    if kind in (ActivationKind.LINEAR, ActivationKind.RELU):
        raise FloatingPointError("forward variance recursion is exploding")
    lo, hi = 0.0, sigma_w_sq
    while True:
        q = 0.5 * (lo + hi)
        if not lo < q < hi:
            raise ConvergenceError(f"no root of F at rounding level: the bracket [{lo!r}, {hi!r}] cannot be split")
        f, noise = residual(q)
        if abs(f) <= noise:
            return q
        if f > 0:
            hi = q
        else:
            lo = q


def tune_sigma_w_sq(kind: ActivationKind, sigma_x_sq: float) -> tuple[float, float]:
    """The norm-preserving gain: (sigma_w_sq, q_star) with
    sigma_w^2 * mu_1(q_star) = 1, q_star exactly as
    ``variance_fixed_point(kind, sigma_w_sq, sigma_x_sq)`` returns it.

    It is sigma_w^2 = 1 / mu_1(0) for every kind.  Linear and ReLU have a
    q-independent mu_1.  Tanh and hard-tanh have mu_1(0) = 1, so the root is
    the critical point sigma_w^2 = 1, where the variance map decays to
    q_star = 0 and the residual is exactly 0.
    """
    s = 1.0 / mu_quadrature(kind, 0.0)[0]
    return s, variance_fixed_point(kind, s, sigma_x_sq)
