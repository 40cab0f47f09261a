"""Vanishing-node metrics: the node-correlation indicator computed four ways,
epsilon-effective node counts, and gradient-scale diagnostics.

The indicator (here ``vni``) is the weighted average of squared correlation
coefficients between output-layer nodes, weights sigma_i^2 sigma_j^2.  It
ranges from 1/N (independent nodes) to 1 (full collapse).  The covariance
form tr(C C^T)/tr(C)^2 is an exact identity with the correlation form; the
Jacobian and moment forms are the random-matrix approximations.  Like
``per_layer_gain``, ``vni_empirical`` also reads a stack of R runs at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import ActivationMoments
from .initializers import InitKind
from .linalg import sym_eigenvalues
from .network import NetworkState, backward, forward, headless, jacobian, output

__all__ = [
    "VniReport",
    "GradientDiagnostics",
    "Float32RangeError",
    "vni_empirical",
    "vni_from_covariance",
    "vni_from_jacobian",
    "vni_theoretical",
    "s1_for_ensemble",
    "epsilon_enn",
    "enn_from_rsq",
    "per_layer_gain",
    "gradient_diagnostics",
    "correlation_heatmap",
    "vni_report",
    "DEFAULT_ENN_EPSILONS",
]

DEFAULT_ENN_EPSILONS = (0.01, 0.1, 0.5, 0.9)


@dataclass
class VniReport:
    vni_empirical: float
    vni_covariance: float
    vni_jacobian: float | None
    vni_theoretical: float | None
    vni_theoretical_raw: float | None
    enn: dict = field(default_factory=dict)


@dataclass
class GradientDiagnostics:
    per_layer_gain: np.ndarray  # fan_in * Var[W_l] * mu_1 per backbone layer
    var_x_L: float
    var_input_grad: float
    predicted_var_x_L: float
    predicted_var_input_grad: float


# 2^24 x float32's smallest normal, 2^-126: float32 activations whose largest
# |x| is below this lie where float32 keeps fewer than its 24 bits, since the
# entries within 2^-24 of the largest are subnormal (or have underflowed).
_FLOAT32_FLOOR = 2.0**-102


class Float32RangeError(ValueError):
    """float32 activations that overflowed or underflowed: the indicator is
    refused, and a float64 pass of the same network keeps the range."""


def _corr_stats(activations: np.ndarray):
    """Sample covariance of a (batch >= 2) x N activation matrix, or of each
    in an R-stack, and its diagonal, in float64.  float32 activations (the
    probe pass's) are centred on their float64 mean straight into one
    float64 array, and raise a Float32RangeError when any is non-finite or
    the largest |x| is below ``_FLOAT32_FLOOR``."""
    a = np.asarray(activations)
    if a.dtype != np.float32:
        a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-2] < 2:
        raise ValueError("need a (batch >= 2) x N activation matrix, or a stack of them")
    if a.dtype == np.float32:
        largest = max(float(a.max()), -float(a.min()))
        if not _FLOAT32_FLOOR <= largest < math.inf:  # also when it is NaN
            raise Float32RangeError(
                f"float32 activations out of float32's range: largest |x| = {largest:.3g}, which is non-finite or "
                f"below 2^24 x float32's smallest normal ({_FLOAT32_FLOOR:.3g}); the pass overflowed or underflowed"
            )
    centered = a - a.mean(axis=-2, keepdims=True, dtype=np.float64)
    cov = (centered.swapaxes(-1, -2) @ centered) / (a.shape[-2] - 1)
    var = np.diagonal(cov, axis1=-2, axis2=-1).copy()
    if np.any(np.all(var == 0, axis=-1)):
        raise ValueError("all nodes are constant: correlations undefined")
    return cov, var


def _weighted_corr_sq(cov: np.ndarray, var: np.ndarray):
    """(indicator, squared correlations, variances) from ``_corr_stats``."""
    weights = var[..., :, None] * var[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # the pairs with a constant node are masked
        corr_sq = np.where(weights > 0, np.clip((cov / np.sqrt(weights)) ** 2, 0.0, 1.0), 0.0)
    value = np.sum(corr_sq * weights, axis=(-2, -1)) / np.sum(weights, axis=(-2, -1))
    return (float(value) if cov.ndim == 2 else value), corr_sq, var


def vni_empirical(activations: np.ndarray):
    """Indicator from sample statistics of an activation batch.

    Returns ``(value, corr_sq, node_variances)``.  Constant nodes contribute
    zero weight; their corr_sq entries are reported as 0.  An R x batch x N
    stack gives an array of R values, each run read alone.
    """
    return _weighted_corr_sq(*_corr_stats(activations))


def vni_from_covariance(c: np.ndarray) -> float:
    """tr(C C^T) / tr(C)^2 for a symmetric PSD covariance matrix."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("covariance must be square")
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c - c.T).max() > 1e-8 * scale:
        raise ValueError("covariance must be symmetric")
    trace = float(np.trace(c))
    if trace == 0:
        raise ValueError("covariance has zero trace")
    return float(np.sum(c * c) / trace**2)


def vni_from_jacobian(j: np.ndarray) -> float:
    """Moment form m_2 / (N m_1^2) from the spectrum of J J^T.

    The linearized covariance is C = sigma_x^2 J J^T; the input scale
    sigma_x^2 cancels in the ratio, so only J enters.
    """
    j = np.asarray(j, dtype=np.float64)
    jjt = j @ j.T
    lam = sym_eigenvalues(jjt)
    n = jjt.shape[0]
    m1 = float(lam.mean())
    m2 = float((lam**2).mean())
    if m1 == 0:
        raise ValueError("fully degenerate Jacobian: m_1 = 0")
    return m2 / (n * m1 * m1)


def vni_theoretical(depth: int, width: int, moments: ActivationMoments, s1: float):
    """Moment-based prediction 1/N + (L/N)(mu_2/mu_1^2 - 1 - s_1).

    Returns ``(clamped, raw)``; the raw value can leave [1/N, 1] when the
    width does not dominate the depth.
    """
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be >= 1")
    if moments.mu1 <= 0:
        raise ValueError("mu_1 must be positive")
    raw = 1.0 / width + (depth / width) * (moments.mu2 / moments.mu1**2 - 1.0 - s1)
    return min(max(raw, 1.0 / width), 1.0), raw


def s1_for_ensemble(kind: InitKind) -> float:
    """First S-transform series moment of the weight ensemble: -1 for i.i.d.
    Gaussian/uniform entries, 0 for orthogonal matrices."""
    if kind in (InitKind.SCALED_GAUSSIAN, InitKind.SCALED_UNIFORM):
        return -1.0
    if kind in (InitKind.ORTHOGONAL, InitKind.HOUSEHOLDER):
        # any product of reflections is orthogonal, so the same series applies
        return 0.0
    raise ValueError(f"no closed-form s_1 for ensemble {kind!r}")


def _enn_count(lam: np.ndarray, epsilon: float) -> int:
    """Count of descending eigenvalues ``lam`` >= epsilon * lambda_max."""
    if not (0 < epsilon <= 1):
        raise ValueError("epsilon must be in (0, 1]")
    lam1 = lam[0]
    if lam1 <= 0:
        raise ValueError("covariance has no positive eigenvalue")
    return int(np.sum(lam >= epsilon * lam1 - 1e-9 * lam1))


def epsilon_enn(c: np.ndarray, epsilon: float) -> int:
    """Count of covariance eigenvalues >= epsilon * lambda_max."""
    return _enn_count(sym_eigenvalues(np.asarray(c, dtype=np.float64)), epsilon)


def enn_from_rsq(width: int, r_sq: float, epsilon: float) -> float:
    """Effective node count from the indicator value via the extremal-spectrum
    quadratic [1 + (N_e - 1) eps]^2 = (1 + (N_e - 1) eps^2) / R."""
    if not (0 < epsilon <= 1):
        raise ValueError("epsilon must be in (0, 1]")
    if not (1.0 / width - 1e-9 <= r_sq <= 1.0 + 1e-9):
        raise ValueError(f"r_sq must be within [1/{width}, 1]")
    # R eps^2 t^2 + eps(2R - eps) t + (R - 1) = 0 with t = N_e - 1; the root
    # product is <= 0, so exactly one root is non-negative.
    a = r_sq * epsilon * epsilon
    b = epsilon * (2.0 * r_sq - epsilon)
    c = r_sq - 1.0
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise ValueError("no real solution for the effective node count")
    t = (-b + math.sqrt(disc)) / (2.0 * a)
    # the extremal two-level spectrum is not constrained to N nodes, so the
    # root can slightly exceed N - 1 near the 1/N floor; clamp to the
    # physically meaningful range
    return min(max(t + 1.0, 1.0), float(width))


def correlation_heatmap(corr_sq: np.ndarray):
    """Node ordering that clusters correlated nodes: sort by the leading
    eigenvector of corr_sq (ties broken by index).  Returns the permuted
    matrix and the permutation."""
    c = np.asarray(corr_sq, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("corr_sq must be square")
    _, vecs = sym_eigenvalues(0.5 * (c + c.T), return_vectors=True)
    lead = vecs[:, 0]
    if lead[np.argmax(np.abs(lead))] < 0:
        lead = -lead
    perm = np.argsort(-lead, kind="stable")
    return c[perm][:, perm], perm


def per_layer_gain(state: NetworkState, mu1: float) -> np.ndarray:
    """fan_in * Var[W_l] * mu_1 of each backbone layer: its backward gain.
    For a stacked state, one row of L gains per run."""
    spec = state.spec
    return np.stack([spec.fan_in(l) * w.var(axis=(-2, -1)) * mu1 for l, w in enumerate(state.weights)], axis=-1)


def gradient_diagnostics(
    state: NetworkState,
    probe_batch: np.ndarray,
    loss_grads: np.ndarray,
    mu1: float,
) -> GradientDiagnostics:
    """Empirical forward/backward variance scales vs the mean-field
    predictions sigma_x^2 (sigma_w^2 mu_1)^L etc.

    ``loss_grads`` is dLoss/dx_L (readout excluded), one row per probe sample.
    """
    probe = np.asarray(probe_batch, dtype=np.float64)
    if probe.size == 0:
        raise ValueError("probe batch must be nonempty")
    spec = state.spec
    sigma_x_sq = float(probe.var())
    backbone = headless(state)
    trace = forward(backbone, probe)
    grads = backward(backbone, trace, np.asarray(loss_grads, dtype=np.float64))
    x_l = trace.post[-1]
    var_x_l = float(((x_l - x_l.mean(axis=0)) ** 2).mean())
    var_in = float(grads.input_gradient.var())
    sigma_y_sq = float(np.asarray(loss_grads).var())
    gains = per_layer_gain(state, mu1)
    gain = float(np.median(gains))
    return GradientDiagnostics(
        per_layer_gain=gains,
        var_x_L=var_x_l,
        var_input_grad=var_in,
        predicted_var_x_L=sigma_x_sq * gain**spec.depth_L,
        predicted_var_input_grad=sigma_y_sq * gain**spec.depth_L,
    )


def vni_report(
    state: NetworkState,
    probe_batch: np.ndarray,
    moments: ActivationMoments | None = None,
    s1: float | None = None,
    with_jacobian: bool = False,
) -> VniReport:
    """All indicator routes on one probe batch, plus effective node counts at
    ``DEFAULT_ENN_EPSILONS``; the probe covariance and its spectrum are
    computed once."""
    backbone = headless(state)
    cov, var = _corr_stats(output(backbone, probe_batch))
    value = _weighted_corr_sq(cov, var)[0]
    cov_value = vni_from_covariance(cov)
    jac_value = None
    if with_jacobian:
        j = jacobian(backbone, np.asarray(probe_batch)[0])
        try:
            jac_value = vni_from_jacobian(j)
        except ValueError:  # J = 0: every unit of some layer is off at this row, so the route is undefined
            pass
    theo = theo_raw = None
    if moments is not None and s1 is not None:
        theo, theo_raw = vni_theoretical(state.spec.depth_L, state.spec.width_N, moments, s1)
    lam = sym_eigenvalues(cov)
    enn = {eps: _enn_count(lam, eps) for eps in DEFAULT_ENN_EPSILONS}
    return VniReport(value, cov_value, jac_value, theo, theo_raw, enn)
