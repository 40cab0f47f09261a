import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vannodes import activations as act
from vannodes.activations import ActivationKind
from vannodes.linalg import Rng

KINDS = list(ActivationKind)
SMOOTH_POINTS = np.array([-2.3, -0.7, -0.2, 0.4, 1.1, 3.0])  # away from kinks


def test_apply_values():
    h = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(act.apply(ActivationKind.LINEAR, h), h)
    assert np.array_equal(act.apply(ActivationKind.RELU, h), [0.0, 0.0, 0.0, 0.5, 2.0])
    assert np.array_equal(act.apply(ActivationKind.HARD_TANH, h), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(act.apply(ActivationKind.TANH, h), np.tanh(h))


@pytest.mark.parametrize("kind", KINDS)
def test_apply_out(kind):
    h = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    expected = act.apply(kind, h)
    out = np.empty_like(h)
    assert act.apply(kind, h, out=out) is out
    assert np.array_equal(out, expected)
    assert act.apply(kind, h, out=h) is h
    assert np.array_equal(h, expected)


@pytest.mark.parametrize("kind", KINDS)
def test_derivative_matches_finite_difference(kind):
    eps = 1e-6
    fd = (act.apply(kind, SMOOTH_POINTS + eps) - act.apply(kind, SMOOTH_POINTS - eps)) / (2 * eps)
    assert np.allclose(act.derivative(kind, act.apply(kind, SMOOTH_POINTS)), fd, atol=1e-6)


def test_derivative_at_kinks_is_zero():
    # saturation boundary convention: treat the kink as saturated
    relu, hard_tanh = ActivationKind.RELU, ActivationKind.HARD_TANH
    assert act.derivative(relu, act.apply(relu, np.array([0.0])))[0] == 0.0
    assert act.derivative(hard_tanh, act.apply(hard_tanh, np.array([1.0, -1.0]))).tolist() == [0.0, 0.0]


def _derivative_of_h(kind, h):
    # phi'(h) computed from the pre-activation h itself
    if kind is ActivationKind.LINEAR:
        return np.ones_like(h)
    if kind is ActivationKind.RELU:
        return (h > 0).astype(np.float64)
    if kind is ActivationKind.TANH:
        t = np.tanh(h)
        return 1.0 - t * t
    return (np.abs(h) < 1.0).astype(np.float64)


@pytest.mark.parametrize("kind", KINDS)
def test_derivative_of_phi_equals_derivative_of_h(kind):
    edges = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
    near = [np.nextafter(v, t) for v in (0.0, 1.0, -1.0) for t in (-np.inf, np.inf)]
    h = np.concatenate([Rng(36).normal(size=200_000), edges, near])
    with np.errstate(invalid="ignore"):
        got = act.derivative(kind, act.apply(kind, h))
        expected = _derivative_of_h(kind, h)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("kind,q", [(k, q) for k in KINDS for q in (0.1, 1.0, 4.0)])
def test_mean_sq_activation_against_monte_carlo(kind, q):
    z = Rng(31, (kind.value == "tanh",)).normal(size=2_000_000)
    mc = float(np.mean(act.apply(kind, math.sqrt(q) * z) ** 2))
    assert act.mean_sq_activation(kind, q) == pytest.approx(mc, rel=5e-3)


def test_mu_closed_forms():
    for q in (0.2, 1.0, 7.0):
        assert act.mu_quadrature(ActivationKind.LINEAR, q) == (1.0, 1.0)
        assert act.mu_quadrature(ActivationKind.RELU, q) == (0.5, 0.5)
        mu1, mu2 = act.mu_quadrature(ActivationKind.HARD_TANH, q)
        want = math.erf(1.0 / math.sqrt(2 * q))
        assert mu1 == pytest.approx(want, abs=1e-12)
        assert mu2 == pytest.approx(want, abs=1e-12)


def test_tanh_quadrature_against_monte_carlo():
    q = 1.3
    mu1, mu2 = act.mu_quadrature(ActivationKind.TANH, q)
    z = Rng(77).normal(size=4_000_000)
    d = 1.0 / np.cosh(math.sqrt(q) * z) ** 2
    assert mu1 == pytest.approx(float(np.mean(d**2)), rel=2e-3)
    assert mu2 == pytest.approx(float(np.mean(d**4)), rel=2e-3)


def test_moments_closed_form_path():
    m = act.moments(ActivationKind.RELU, 2.0)
    assert (m.mu1, m.mu2) == (0.5, 0.5)


@given(st.sampled_from(KINDS), st.floats(0.01, 10.0))
@settings(max_examples=60, deadline=None)
def test_mu2_le_mu1_le_one_for_bounded_slope(kind, q):
    mu1, mu2 = act.mu_quadrature(kind, q)
    # phi' in [0, 1] for all four kinds, so mu_2 <= mu_1 <= 1
    assert 0.0 <= mu2 <= mu1 + 1e-12
    assert mu1 <= 1.0 + 1e-12


class TestVarianceFixedPoint:
    def test_linear_closed_form(self):
        # q_{t+1} = sw2 * q_t: decays to 0 for sw2 < 1, and keeps q_0 at sw2 = 1
        assert act.variance_fixed_point(ActivationKind.LINEAR, 0.5, 1.0) == 0.0
        assert act.variance_fixed_point(ActivationKind.LINEAR, 1.0, 0.7) == 0.7
        assert act.variance_fixed_point(ActivationKind.RELU, 2.0, 0.7) == 0.7

    def test_is_a_fixed_point(self):
        # sw2 m'(0) > 1, so the recursion settles at a root above 0, from below and from above
        for kind in (ActivationKind.TANH, ActivationKind.HARD_TANH):
            for sigma_x_sq in (0.2, 5.0):
                q = act.variance_fixed_point(kind, 1.4, sigma_x_sq)
                nxt = 1.4 * act.mean_sq_activation(kind, q)
                assert q > 0.1 and nxt == pytest.approx(q, abs=1e-7)

    def test_divergence_raises(self):
        with pytest.raises(FloatingPointError):
            act.variance_fixed_point(ActivationKind.LINEAR, 2.0, 1.0)

    def test_empirical_forward_variance(self):
        # push a wide batch through one layer and compare variances
        kind = ActivationKind.TANH
        sw2, q0 = 1.5, 0.7
        rng = Rng(41)
        h = rng.normal(size=500_000, std=math.sqrt(q0))
        w_scale = math.sqrt(sw2)
        # E[ sw2 * phi(h)^2 ] is the one-step map
        got = w_scale**2 * float(np.mean(act.apply(kind, h) ** 2))
        want = sw2 * act.mean_sq_activation(kind, q0)
        assert got == pytest.approx(want, rel=5e-3)


class TestTune:
    def test_relu_norm_preserving(self):
        sw2, _ = act.tune_sigma_w_sq(ActivationKind.RELU, 1.0)
        assert sw2 == pytest.approx(2.0, abs=1e-6)

    def test_linear(self):
        sw2, q = act.tune_sigma_w_sq(ActivationKind.LINEAR, 0.5)
        assert sw2 == pytest.approx(1.0, abs=1e-6)
        assert q == pytest.approx(0.5, rel=1e-4)

    @pytest.mark.parametrize("kind", [ActivationKind.HARD_TANH, ActivationKind.TANH])
    def test_norm_preserving_condition(self, kind):
        sw2, q = act.tune_sigma_w_sq(kind, 0.1)
        mu1, _ = act.mu_quadrature(kind, q)
        assert sw2 * mu1 == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("kind", [ActivationKind.TANH, ActivationKind.HARD_TANH])
@pytest.mark.parametrize("q", [1e-4, 0.01, 0.1, 1.0, 4.0])
def test_mean_sq_activation_derivative_matches_finite_difference(kind, q):
    h = 1e-4 * q
    fd = (act.mean_sq_activation(kind, q + h) - act.mean_sq_activation(kind, q - h)) / (2 * h)
    assert act.mean_sq_activation_derivative(kind, q) == pytest.approx(fd, rel=1e-7)


class TestDirectSolves:
    @pytest.mark.parametrize("kind", [ActivationKind.TANH, ActivationKind.HARD_TANH])
    @pytest.mark.parametrize("sigma_x_sq", [0.1, 1.0])
    def test_tune_residual_and_bit_identical_q(self, kind, sigma_x_sq):
        sw2, q = act.tune_sigma_w_sq(kind, sigma_x_sq)
        mu1, _ = act.mu_quadrature(kind, q)
        assert abs(sw2 * mu1 - 1.0) <= 1e-12
        assert act.variance_fixed_point(kind, sw2, sigma_x_sq) == q

    def test_tanh_critical_point_is_zero(self):
        assert act.variance_fixed_point(ActivationKind.TANH, 1.0, 0.1) <= 1e-12

    def test_map_without_fixed_point_raises(self, monkeypatch):
        # 2 m(q) jumps over the diagonal at q = 5: F = q - 2 m(q) is -1 below and +1 above.
        monkeypatch.setattr(act, "mean_sq_activation", lambda kind, q: (q + 1.0 if q < 5.0 else q - 1.0) / 2)
        with pytest.raises(act.ConvergenceError):
            act.variance_fixed_point(ActivationKind.TANH, 2.0, 0.1)
