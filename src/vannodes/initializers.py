"""Weight initialization schemes: scaled i.i.d., orthogonal, low-rank
bottleneck, and the Householder product parametrization.

A Householder layer is materialized, and its reflection vectors get their
gradients, in the compact-WY form H_n ... H_1 = I - U^T S U with S = A^-1
and A lower triangular: a few dense n x n products, with no loop over the n
reflections.  Materializing forms the factors (U, the row lengths, S and
S U) and keeps them on the stack beside W, so the backward pass that
follows reads them and makes no LAPACK call.  S comes from a 2 x 2-block
triangular inverse that hands only blocks of at most 16 rows to LAPACK.

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
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import Rng

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
        return rng.normal(size=(fan_out, fan_in), std=math.sqrt(var))
    if kind is InitKind.SCALED_UNIFORM:
        half_width = math.sqrt(3.0 * var)
        return rng.uniform(size=(fan_out, fan_in), low=-half_width, high=half_width)
    raise ValueError(f"init_scaled does not handle {kind!r}")


def init_orthogonal(n: int, sigma_w: float, rng: Rng) -> np.ndarray:
    """sigma_w times a Haar-like orthogonal matrix (square layers only): the
    QR of a Gaussian draw with the signs of R's diagonal folded into Q."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return sigma_w * (q * signs)


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
    u = rng.normal(size=(n_b, n_in))
    v = rng.normal(size=(n_out, n_b))
    n_mean = (n_in + n_out) / 2.0
    return (v @ u) / math.sqrt(n_b * n_mean)


class WYFactors(NamedTuple):
    """The compact-WY factors of the reflection vectors of a stack (see
    ``householder_materialize``), each with the stack's leading axes."""

    u: np.ndarray  # the unit reflection rows, n x n
    lengths: np.ndarray  # |v_i| as a column, n x 1
    s: np.ndarray  # A^-1, lower triangular
    x: np.ndarray  # S U


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

    ``factors`` are the WY factors of the vectors the last
    ``householder_materialize`` read, kept beside the W it returned.  A stack
    the constructor makes holds none until it is materialized, as every
    stacked network's stacks are when ``network.build_stack`` builds it, for
    all its runs at once; ``network._rows`` keeps the kept runs' factors.
    An in-place update of the vectors leaves both W and the factors stale
    until the next materialize.
    """

    vectors: np.ndarray = field(repr=False)
    factors: WYFactors | None = field(default=None, init=False, repr=False, compare=False)

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
    def unchecked(cls, vectors: np.ndarray, factors: WYFactors | None = None) -> "HouseholderStack":
        """A stack of n x n or R x n x n rows taken from checked stacks, not
        checked again: training updates may since have made them non-finite.
        ``factors``, when given, must be the WY factors of ``vectors``."""
        stack = object.__new__(cls)
        stack.vectors, stack.factors = vectors, factors
        return stack


def householder_init(n: int, rng: Rng) -> HouseholderStack:
    if n < 1:
        raise ValueError("n must be >= 1")
    return HouseholderStack(rng.normal(size=(n, n)))


@functools.cache
def _lower_mask(n: int) -> np.ndarray:
    """The n x n lower triangle, diagonal included, as a read-only mask."""
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _lower_half(a: np.ndarray) -> np.ndarray:
    """tril(a, -1) + diag(a) / 2 of each n x n slice, as a new array.  Entries
    above the diagonal become 0 whatever they hold, NaN too."""
    out = np.where(_lower_mask(a.shape[-1]), a, 0.0)
    np.einsum("...ii->...i", out)[...] *= 0.5
    return out


# Diagonal blocks of at most this many rows go to LAPACK's inverse.
_LEAF = 16


def _lower_inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of each lower-triangular n x n slice of ``a``, from the
    2 x 2 blocks [[A11, 0], [A21, A22]]^-1 = [[S11, 0], [-S22 A21 S11, S22]].
    Halves of equal size are inverted in one call, stacked, so all blocks of
    at most ``_LEAF`` rows at the bottom of the recursion reach LAPACK
    together; its pivoted LU of a whole triangular A costs more than the
    products do."""
    n = a.shape[-1]
    if n <= _LEAF:
        return np.linalg.inv(a)
    h = n // 2
    if n % 2:
        s11, s22 = _lower_inverse(a[..., :h, :h]), _lower_inverse(a[..., h:, h:])
    else:
        halves = _lower_inverse(np.concatenate((a[..., None, :h, :h], a[..., None, h:, h:]), axis=-3))
        s11, s22 = halves[..., 0, :, :], halves[..., 1, :, :]
    s = np.zeros_like(a)
    s[..., :h, :h] = s11
    s[..., h:, h:] = s22
    s[..., h:, :h] = -(s22 @ (a[..., h:, :h] @ s11))
    return s


def _unit_rows(vectors: np.ndarray):
    """The reflection rows u_i = v_i / |v_i| and the lengths |v_i| (as a
    column).  Each row is first divided by its largest entry, so no square
    overflows or underflows even after in-place updates have left the range
    ``HouseholderStack`` checks."""
    peak = np.abs(vectors).max(axis=-1, keepdims=True)
    u = vectors / peak
    norms = np.sqrt(np.einsum("...ij,...ij->...i", u, u))[..., None]
    return u / norms, peak * norms


def _wy_factors(vectors: np.ndarray) -> WYFactors:
    """U, the lengths, S = A^-1 and S U, where A = tril(U U^T, -1) +
    diag(U U^T) / 2 is lower triangular with diagonal |u_i|^2 / 2 > 0, so
    H_n ... H_1 = I - U^T S U (the compact-WY / UT form of the product;
    Schreiber & Van Loan 1989, Joffrain et al. 2006)."""
    u, lengths = _unit_rows(vectors)
    s = _lower_inverse(_lower_half(u @ u.swapaxes(-1, -2)))
    return WYFactors(u, lengths, s, s @ u)


def householder_materialize(stack: HouseholderStack) -> np.ndarray:
    """W = H_n ... H_1 = I - U^T (S U): one Gram product, one triangular
    inverse and two products, with no loop over the reflections.  The
    factors are kept on ``stack`` for ``householder_backward``."""
    stack.factors = f = _wy_factors(stack.vectors)
    return np.eye(stack.n) - f.u.swapaxes(-1, -2) @ f.x


def householder_backward(stack: HouseholderStack, upstream_grad: np.ndarray) -> np.ndarray:
    """Gradients w.r.t. each reflection vector, given G = dLoss/dW of the
    materialized W = H_n ... H_1.  Returns an array shaped like
    ``stack.vectors``.

    With W = I - U^T S U (see ``_wy_factors``), X = S U and Y = S^T U, the
    gradient w.r.t. the unit rows is (C + C^T) U - X G^T - Y G, where
    B = Y G X^T and C = tril(B, -1) + diag(B) / 2.  W depends on v_i only
    through u_i = v_i / |v_i| and that gradient is orthogonal to u_i, so
    v_i's gradient is row i divided by |v_i|.  Five products and no LAPACK
    call, reading the factors the last materialize kept; a stack that holds
    none forms them first.
    """
    g = np.asarray(upstream_grad, dtype=np.float64)
    if g.shape != stack.vectors.shape:
        raise ValueError(f"upstream gradient must be {stack.vectors.shape}, got {g.shape}")
    u, lengths, s, x = stack.factors if stack.factors is not None else _wy_factors(stack.vectors)
    yg = (s.swapaxes(-1, -2) @ u) @ g
    c = _lower_half(yg @ x.swapaxes(-1, -2))
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
