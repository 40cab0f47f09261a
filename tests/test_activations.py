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


def _phi(kind, h):
    return act.in_place(kind)(np.array(h, dtype=np.float64))


def test_in_place_values():
    h = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(_phi(ActivationKind.LINEAR, h), h)
    assert np.array_equal(_phi(ActivationKind.RELU, h), [0.0, 0.0, 0.0, 0.5, 2.0])
    assert np.array_equal(_phi(ActivationKind.HARD_TANH, h), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(_phi(ActivationKind.TANH, h), np.tanh(h))
    for kind in KINDS:
        g = h.copy()
        assert act.in_place(kind)(g) is g


@pytest.mark.parametrize("kind", KINDS)
def test_derivative_matches_finite_difference(kind):
    eps = 1e-6
    fd = (_phi(kind, SMOOTH_POINTS + eps) - _phi(kind, SMOOTH_POINTS - eps)) / (2 * eps)
    assert np.allclose(act.derivative(kind, _phi(kind, SMOOTH_POINTS)), fd, atol=1e-6)


@pytest.mark.parametrize("kind", KINDS)
def test_derivative_out(kind):
    phi = _phi(kind, np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]))
    expected = act.derivative(kind, phi)
    out = np.full_like(phi, np.nan)
    assert act.derivative(kind, phi, out=out) is out
    assert out.tobytes() == expected.tobytes()


def test_derivative_at_kinks_is_zero():
    # saturation boundary convention: treat the kink as saturated
    relu, hard_tanh = ActivationKind.RELU, ActivationKind.HARD_TANH
    assert act.derivative(relu, _phi(relu, np.array([0.0])))[0] == 0.0
    assert act.derivative(hard_tanh, _phi(hard_tanh, np.array([1.0, -1.0]))).tolist() == [0.0, 0.0]


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
        got = act.derivative(kind, _phi(kind, h))
        expected = _derivative_of_h(kind, h)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("kind,q", [(k, q) for k in KINDS for q in (0.1, 1.0, 4.0)])
def test_mean_sq_activation_against_monte_carlo(kind, q):
    z = Rng(31, (kind.value == "tanh",)).normal(size=2_000_000)
    mc = float(np.mean(_phi(kind, math.sqrt(q) * z) ** 2))
    assert act.mean_sq_activation(kind, q) == pytest.approx(mc, rel=5e-3)


def _hard_tanh_closed_form(q: float) -> float:
    """m(q) of hard-tanh as q (erf(a/sqrt 2) - a sqrt(2/pi) e^{-a^2/2}) + erfc(a/sqrt 2), a = 1/sqrt(q)."""
    a = 1.0 / math.sqrt(q)
    return q * (math.erf(a / math.sqrt(2.0)) - a * math.sqrt(2.0 / math.pi) * math.exp(-a * a / 2.0)) + math.erfc(a / math.sqrt(2.0))


def test_hard_tanh_series_meets_the_closed_form():
    # For q in (1, 4] the series is used and the closed form still loses at
    # most about 3 eps / a^2 = 12 eps to its cancellation: both agree there,
    # and on both sides of the switch at q = 1.
    for q in [*np.linspace(1.0, 4.0, 61)[1:], np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]:
        assert act.mean_sq_activation(ActivationKind.HARD_TANH, q) == pytest.approx(_hard_tanh_closed_form(q), rel=2e-15, abs=0)


@pytest.mark.parametrize("q", [1e6, 1e9, 1e13])
def test_hard_tanh_mean_square_at_large_variance(q):
    # 1 - m(q) = sqrt(2/pi) (2a/3 - a^3/15 + O(a^5)), a = 1/sqrt(q): the
    # closed form's cancellation loses it (2e-10 relative at 1e6, 3e-3 at 1e13).
    a = 1.0 / math.sqrt(q)
    want = math.sqrt(2.0 / math.pi) * (2.0 * a / 3.0 - a**3 / 15.0)
    assert 1.0 - act.mean_sq_activation(ActivationKind.HARD_TANH, q) == pytest.approx(want, rel=1e-9)


def test_mu_closed_forms():
    for q in (0.2, 1.0, 7.0):
        assert act.mu_quadrature(ActivationKind.LINEAR, q) == (1.0, 1.0)
        assert act.mu_quadrature(ActivationKind.RELU, q) == (0.5, 0.5)
        mu1, mu2 = act.mu_quadrature(ActivationKind.HARD_TANH, q)
        want = math.erf(1.0 / math.sqrt(2 * q))
        assert mu1 == pytest.approx(want, abs=1e-12)
        assert mu2 == pytest.approx(want, abs=1e-12)


def test_moments_at_zero_variance_are_one():
    # q* = 0 (tanh and hard-tanh at sigma_w^2 = 1, as the Householder cells
    # of `orth` run): phi'(0) = 1, so both moments are exactly 1.
    for kind in (ActivationKind.TANH, ActivationKind.HARD_TANH):
        assert act.mu_quadrature(kind, 0.0) == (1.0, 1.0)


def test_tanh_quadrature_against_monte_carlo():
    q = 1.3
    mu1, mu2 = act.mu_quadrature(ActivationKind.TANH, q)
    z = Rng(77).normal(size=4_000_000)
    d = 1.0 / np.cosh(math.sqrt(q) * z) ** 2
    assert mu1 == pytest.approx(float(np.mean(d**2)), rel=2e-3)
    assert mu2 == pytest.approx(float(np.mean(d**4)), rel=2e-3)


def test_moments_closed_form_path():
    m = act.ActivationMoments(*act.mu_quadrature(ActivationKind.RELU, 2.0), 2.0)
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
        got = w_scale**2 * float(np.mean(_phi(kind, h) ** 2))
        want = sw2 * act.mean_sq_activation(kind, q0)
        assert got == pytest.approx(want, rel=5e-3)


@pytest.mark.parametrize(
    "kind,sigma_w_sq",
    [(ActivationKind.LINEAR, 1.0), (ActivationKind.RELU, 2.0), (ActivationKind.TANH, 1.0), (ActivationKind.HARD_TANH, 1.0)],
)
@pytest.mark.parametrize("sigma_x_sq", [0.1, 2 / 3, 1.0])
def test_tune_is_the_closed_form(kind, sigma_w_sq, sigma_x_sq):
    # sigma_w^2 = 1 / mu_1(0): linear and ReLU keep q_0 there, and tanh and
    # hard-tanh sit at the critical point, where the map decays to q_star = 0.
    q_star = sigma_x_sq if kind in (ActivationKind.LINEAR, ActivationKind.RELU) else 0.0
    assert act.tune_sigma_w_sq(kind, sigma_x_sq) == (sigma_w_sq, q_star)


class TestDirectSolves:
    @pytest.mark.parametrize("kind", list(ActivationKind))
    @pytest.mark.parametrize("sigma_x_sq", [0.1, 1.0])
    def test_tune_residual_and_bit_identical_q(self, kind, sigma_x_sq):
        sw2, q = act.tune_sigma_w_sq(kind, sigma_x_sq)
        mu1, _ = act.mu_quadrature(kind, q)
        assert sw2 * mu1 - 1.0 == 0.0
        assert act.variance_fixed_point(kind, sw2, sigma_x_sq) == q

    @pytest.mark.parametrize("kind", [ActivationKind.TANH, ActivationKind.HARD_TANH])
    @pytest.mark.parametrize("sigma_w_sq", [1 + 1e-6, 1.01, 1.4, 2.0, 5.0, 50.0])
    def test_one_root_at_rounding_level_from_every_start(self, kind, sigma_w_sq, monkeypatch):
        # The attracting root in (0, sigma_w^2) does not depend on q_0.
        m, calls = act.mean_sq_activation, []
        monkeypatch.setattr(act, "mean_sq_activation", lambda kind, q: calls.append(q) or m(kind, q))
        roots = set()
        for sigma_x_sq in (0.1, 1.0, 30.0):
            calls.clear()
            roots.add(act.variance_fixed_point(kind, sigma_w_sq, sigma_x_sq))
            assert len(calls) <= 64
        [q] = roots
        mapped = sigma_w_sq * m(kind, q)
        assert 0.0 < q < sigma_w_sq
        assert abs(q - mapped) <= 16 * np.finfo(np.float64).eps * (q + mapped)

    @pytest.mark.parametrize("kind", [ActivationKind.TANH, ActivationKind.HARD_TANH])
    @pytest.mark.parametrize("sigma_w_sq", [1e9, 1e13])
    def test_root_at_rounding_level_at_a_large_gain(self, kind, sigma_w_sq):
        # Hard-tanh's m(q) is summed without cancellation at large q, so its
        # root is bisected to rounding level as tanh's is.
        q = act.variance_fixed_point(kind, sigma_w_sq, 0.1)
        mapped = sigma_w_sq * act.mean_sq_activation(kind, q)
        assert 0.0 < q < sigma_w_sq
        assert abs(q - mapped) <= 16 * np.finfo(np.float64).eps * (q + mapped)

    def test_map_without_fixed_point_raises(self, monkeypatch):
        # 2 m(q) jumps over the diagonal at q = 5: F = q - 2 m(q) is -1 below and +1 above.
        monkeypatch.setattr(act, "mean_sq_activation", lambda kind, q: (q + 1.0 if q < 5.0 else q - 1.0) / 2)
        with pytest.raises(act.ConvergenceError):
            act.variance_fixed_point(ActivationKind.TANH, 2.0, 0.1)


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_a_negative_variance_raises_a_value_error_that_names_it(kind):
    with pytest.raises(ValueError, match="variance q must be non-negative"):
        act.mean_sq_activation(kind, -0.5)
    with pytest.raises(ValueError, match="q_star must be non-negative"):
        act.mu_quadrature(kind, -0.5)


@pytest.mark.parametrize(
    "call, error, phrase",
    [
        (lambda: act.in_place("tanh"), ValueError, "unknown activation 'tanh'"),
        (lambda: act.derivative("tanh", np.zeros(3)), ValueError, "unknown activation 'tanh'"),
        (lambda: act.mean_sq_activation("tanh", 0.5), ValueError, "unknown activation 'tanh'"),
        (lambda: act.mu_quadrature("tanh", 0.5), ValueError, "unknown activation 'tanh'"),
        (lambda: act.variance_fixed_point(ActivationKind.TANH, 0.0, 0.1), ValueError, "sigma_w_sq must be positive"),
        (lambda: act.variance_fixed_point(ActivationKind.RELU, -1.0, 0.1), ValueError, "sigma_w_sq must be positive"),
    ],
    ids=["in_place_kind", "derivative_kind", "mean_sq_kind", "mu_kind", "zero_gain", "negative_gain"],
)
def test_bad_input_raises_an_error_that_names_it(call, error, phrase):
    # A kind given by its name, not an ActivationKind, is unknown.
    with pytest.raises(error, match=phrase):
        call()


@pytest.mark.parametrize("kind", list(ActivationKind))
def test_mean_square_at_zero_variance_is_zero(kind):
    assert act.mean_sq_activation(kind, 0.0) == 0.0
