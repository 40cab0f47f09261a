"""Weight initialization schemes: scaled i.i.d., orthogonal, low-rank
bottleneck, and the Householder product parametrization.

A Householder layer is materialized, and its reflection vectors get their
gradients, in the compact-WY form H_n ... H_1 = I - U^T A^-1 U with A lower
triangular: a few dense n x n products and one solve or inverse per call,
with no loop over the n reflections.

The bottleneck scheme deliberately limits the rank of each weight matrix
(rank <= N_b) while keeping the norm-preserving scale, so a network can start
with fully correlated output nodes without vanishing or exploding gradients
in the ensemble mean.  A single network is not norm-preserving: the factors
of consecutive layers are drawn independently, so the squared gain of one
layer follows a chi^2 with N_b degrees of freedom scaled by 1/N_b.  At
N_b = 1 its mean is 1 but the mean of its log10 is -0.55, so a typical deep
bottleneck network loses about 0.55 decade of squared gradient norm per layer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import Rng, qr_orthogonal, sample_gaussian, sample_uniform

__all__ = [
    "InitKind",
    "InitializerSpec",
    "HouseholderStack",
    "init_scaled",
    "init_orthogonal",
    "init_bottleneck",
    "householder_init",
    "householder_materialize",
    "householder_backward",
    "init_weight",
]


class InitKind(enum.Enum):
    SCALED_GAUSSIAN = "scaled_gaussian"
    SCALED_UNIFORM = "scaled_uniform"
    ORTHOGONAL = "orthogonal"
    BOTTLENECK = "bottleneck"
    HOUSEHOLDER = "householder"


@dataclass
class InitializerSpec:
    kind: InitKind
    sigma_w_sq: float = 1.0  # target gain; entry variance is sigma_w_sq / fan_in
    bottleneck_nb: int = 1

    def __post_init__(self):
        if self.sigma_w_sq <= 0:
            raise ValueError("sigma_w_sq must be positive")
        if self.bottleneck_nb < 1:
            raise ValueError("bottleneck_nb must be >= 1")


def init_scaled(kind: InitKind, fan_in: int, fan_out: int, sigma_w_sq: float, rng: Rng) -> np.ndarray:
    """i.i.d. entries with variance sigma_w_sq / fan_in (Gaussian or uniform)."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError("dimensions must be >= 1")
    var = sigma_w_sq / fan_in
    if kind is InitKind.SCALED_GAUSSIAN:
        return sample_gaussian(fan_out, fan_in, 0.0, var, rng)
    if kind is InitKind.SCALED_UNIFORM:
        return sample_uniform(fan_out, fan_in, math.sqrt(3.0 * var), rng)
    raise ValueError(f"init_scaled does not handle {kind!r}")


def init_orthogonal(n: int, sigma_w: float, rng: Rng) -> np.ndarray:
    """sigma_w times a Haar-like orthogonal matrix (square layers only)."""
    return sigma_w * qr_orthogonal(n, rng)


def init_bottleneck(
    n_in: int, n_out: int, n_b: int, rng: Rng
) -> np.ndarray:
    """Low-rank product W = V @ U / sqrt(N_b * N_mean) with inner dimension N_b.

    U, V have standard Gaussian entries, N_mean = (N_i + N_o) / 2, so
    N_mean * Var[W] = 1 (the norm-preserving scale) while rank(W) <= N_b.

    The scale preserves norms in the ensemble mean only.  Layers draw U and V
    independently, so through a stack of square bottleneck layers the squared
    norm a vector keeps per layer is ~ chi^2_{N_b} / N_b: mean 1, but at
    N_b = 1 the mean of its log10 is -0.55 (about 0.55 decade lost per
    layer in a typical network).
    """
    if not (1 <= n_b <= min(n_in, n_out)):
        raise ValueError(f"bottleneck dimension {n_b} out of range for {n_in}x{n_out}")
    u = sample_gaussian(n_b, n_in, 0.0, 1.0, rng)
    v = sample_gaussian(n_out, n_b, 0.0, 1.0, rng)
    n_mean = (n_in + n_out) / 2.0
    return (v @ u) / math.sqrt(n_b * n_mean)


@dataclass
class HouseholderStack:
    """Square orthogonal matrix represented as a product of n reflections.

    Row i of ``vectors`` is the (unnormalized) reflection vector v_i; the
    materialized matrix is H_n ... H_1 with H_i = I - 2 v v^T / (v^T v).
    Orthogonality holds for any nonzero vectors, so unconstrained gradient
    updates to the rows can never break it.  Every entry must be finite and
    every v^T v a normal float: a zero, subnormal or overflowing v^T v makes
    2 / (v^T v) meaningless and raises ``ValueError``.

    The stacks of R runs trained together are one stack whose ``vectors``
    are R x n x n; ``householder_materialize`` and ``householder_backward``
    act on each run's slice.
    """

    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("vectors must be an n x n array of reflection rows")
        if not np.all(np.isfinite(v)):
            raise ValueError("reflection vectors must be finite")
        sq = np.einsum("ij,ij->i", v, v)
        bad = np.flatnonzero(~((sq >= np.finfo(np.float64).tiny) & (sq < np.inf)))
        if bad.size:
            raise ValueError(
                f"reflection vector {bad[0] + 1} has v.v = {sq[bad[0]]:.3g}, outside the normal float range"
            )
        self.vectors = v

    @property
    def n(self) -> int:
        return self.vectors.shape[-1]

    @classmethod
    def unchecked(cls, vectors: np.ndarray) -> "HouseholderStack":
        """A stack of n x n or R x n x n rows taken from checked stacks, not
        checked again: training updates may since have made them non-finite."""
        stack = object.__new__(cls)
        stack.vectors = vectors
        return stack


def householder_init(n: int, rng: Rng) -> HouseholderStack:
    if n < 1:
        raise ValueError("n must be >= 1")
    return HouseholderStack(rng.normal(size=(n, n)))


def _unit_rows(vectors: np.ndarray):
    """The reflection rows u_i = v_i / |v_i| and the lengths |v_i| (as a
    column).  Each row is first divided by its largest entry, so no square
    overflows or underflows even after in-place updates have left the range
    ``HouseholderStack`` checks."""
    peak = np.abs(vectors).max(axis=-1, keepdims=True)
    u = vectors / peak
    norms = np.sqrt(np.einsum("...ij,...ij->...i", u, u))[..., None]
    return u / norms, peak * norms


def _wy_pivots(u: np.ndarray) -> np.ndarray:
    """A = tril(U U^T, -1) + diag(U U^T) / 2, lower triangular with diagonal
    |u_i|^2 / 2 > 0, so H_n ... H_1 = I - U^T A^-1 U (the compact-WY / UT
    form of the product; Schreiber & Van Loan 1989, Joffrain et al. 2006)."""
    a = np.tril(u @ u.swapaxes(-1, -2))
    np.einsum("...ii->...i", a)[...] *= 0.5
    return a


def householder_materialize(stack: HouseholderStack) -> np.ndarray:
    """W = H_n ... H_1 = I - U^T A^-1 U: one Gram product, one solve and one
    product, with no loop over the reflections."""
    u, _ = _unit_rows(stack.vectors)
    return np.eye(stack.n) - u.swapaxes(-1, -2) @ np.linalg.solve(_wy_pivots(u), u)


def householder_backward(stack: HouseholderStack, upstream_grad: np.ndarray) -> np.ndarray:
    """Gradients w.r.t. each reflection vector, given G = dLoss/dW of the
    materialized W = H_n ... H_1.  Returns an array shaped like
    ``stack.vectors``.

    With W = I - U^T S U, S = A^-1 (see ``_wy_pivots``), X = S U and
    Y = S^T U, the gradient w.r.t. the unit rows is
    (C + C^T) U - X G^T - Y G, where B = Y G X^T and
    C = tril(B, -1) + diag(B) / 2.  W depends on v_i only through
    u_i = v_i / |v_i| and that gradient is orthogonal to u_i, so v_i's
    gradient is row i divided by |v_i|.  One inverse and seven products,
    counting the Gram product.
    """
    g = np.asarray(upstream_grad, dtype=np.float64)
    if g.shape != stack.vectors.shape:
        raise ValueError(f"upstream gradient must be {stack.vectors.shape}, got {g.shape}")
    u, lengths = _unit_rows(stack.vectors)
    s = np.linalg.inv(_wy_pivots(u))
    x = s @ u
    yg = (s.swapaxes(-1, -2) @ u) @ g
    c = np.tril(yg @ x.swapaxes(-1, -2))
    np.einsum("...ii->...i", c)[...] *= 0.5
    return ((c + c.swapaxes(-1, -2)) @ u - x @ g.swapaxes(-1, -2) - yg) / lengths


def init_weight(spec: InitializerSpec, fan_in: int, fan_out: int, rng: Rng):
    """Build one layer's weight from an InitializerSpec.

    Returns either a dense matrix or a HouseholderStack (square layers only).
    Bottleneck and Householder apply to square layers; rectangular layers fall
    back to scaled Gaussian at the spec's sigma_w_sq.
    """
    if spec.kind in (InitKind.SCALED_GAUSSIAN, InitKind.SCALED_UNIFORM):
        return init_scaled(spec.kind, fan_in, fan_out, spec.sigma_w_sq, rng)
    if fan_in != fan_out:
        return init_scaled(InitKind.SCALED_GAUSSIAN, fan_in, fan_out, spec.sigma_w_sq, rng)
    if spec.kind is InitKind.ORTHOGONAL:
        return init_orthogonal(fan_in, math.sqrt(spec.sigma_w_sq), rng)
    if spec.kind is InitKind.BOTTLENECK:
        return init_bottleneck(fan_in, fan_out, spec.bottleneck_nb, rng)
    if spec.kind is InitKind.HOUSEHOLDER:
        return householder_init(fan_in, rng)
    raise ValueError(f"unknown initializer {spec.kind!r}")
