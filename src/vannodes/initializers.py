"""Weight initialization schemes: scaled i.i.d., orthogonal, low-rank
bottleneck, and the Householder product parametrization.

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
    updates to the rows can never break it.
    """

    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("vectors must be an n x n array of reflection rows")
        norms = np.linalg.norm(v, axis=1)
        if np.any(norms == 0):
            raise ValueError("reflection vectors must be nonzero")
        self.vectors = v

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def householder_init(n: int, rng: Rng) -> HouseholderStack:
    if n < 1:
        raise ValueError("n must be >= 1")
    return HouseholderStack(rng.normal(size=(n, n)))


def householder_materialize(stack: HouseholderStack) -> np.ndarray:
    w = np.eye(stack.n)
    for v in stack.vectors:
        w = w - np.outer(v, (2.0 / (v @ v)) * (v @ w))  # H_i @ W as a rank-1 update
    return w


def householder_backward(stack: HouseholderStack, upstream_grad: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Gradients w.r.t. each reflection vector, given dLoss/dW of the
    materialized matrix ``weight`` = H_n ... H_1.  Returns an array shaped
    like ``stack.vectors``.

    dLoss/dH_i = H_{i+1} ... H_n G H_1 ... H_{i-1}: one reverse sweep from
    M = G W^T right-reflects M by H_i (leaving dLoss/dH_i), reads v_i's
    gradient and left-reflects M by H_i, for i = n..1.  Two rank-1 updates
    per reflection: O(n^3) time and O(n^2) memory.
    """
    g = np.asarray(upstream_grad, dtype=np.float64)
    n = stack.n
    if g.shape != (n, n):
        raise ValueError(f"upstream gradient must be {n}x{n}, got {g.shape}")
    m = g @ weight.T
    grads = np.empty_like(stack.vectors)
    for i in range(n - 1, -1, -1):
        v = stack.vectors[i]
        s = v @ v
        m -= np.outer((2.0 / s) * (m @ v), v)  # now dLoss/dH_i
        ghv = m @ v
        ghtv = v @ m
        grads[i] = (-2.0 / s) * (ghv + ghtv) + (4.0 * (v @ ghtv) / (s * s)) * v
        m -= np.outer(v, (2.0 / s) * ghtv)
    return grads


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
