import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vannodes import analysis as an
from vannodes.activations import ActivationMoments, ActivationKind, mu_quadrature, tune_sigma_w_sq
from vannodes.initializers import InitKind, InitializerSpec
from vannodes.linalg import Rng
from vannodes import initializers, training
from vannodes.data import gaussian_probe, synthetic_task
from vannodes.network import (
    NetworkSpec,
    backward,
    build_network,
    build_stack,
    forward,
    headless,
    jacobian,
    layers,
    run_state,
    streamed_layers,
)


def make_activations(n_samples=4000, width=20, seed=0):
    return Rng(seed).normal(size=(n_samples, width))


class TestEmpirical:
    def test_independent_nodes_near_floor(self):
        v, corr_sq, _ = an.vni_empirical(make_activations(20000, 25, seed=1))
        assert v == pytest.approx(1.0 / 25, abs=0.01)
        assert corr_sq.shape == (25, 25)
        assert np.allclose(np.diag(corr_sq), 1.0)

    def test_identical_nodes_give_one(self):
        base = Rng(2).normal(size=(500, 1))
        x = np.repeat(base, 10, axis=1) * np.arange(1, 11)  # copies at all scales
        v, _, _ = an.vni_empirical(x)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # two unit-variance nodes with correlation 1/2:
        # (2 * 1 + 2 * 0.25) / 4 = 0.625
        rng = Rng(3)
        a = rng.normal(size=400000)
        b = 0.5 * a + np.sqrt(0.75) * rng.normal(size=400000)
        v, _, _ = an.vni_empirical(np.stack([a, b], axis=1))
        assert v == pytest.approx(0.625, abs=0.005)

    def test_dead_nodes_ignored(self):
        x = make_activations(3000, 6, seed=4)
        x[:, 2] = 7.0  # constant node carries zero variance weight
        v, _, variances = an.vni_empirical(x)
        assert variances[2] == pytest.approx(0.0, abs=1e-20)
        v_without, _, _ = an.vni_empirical(np.delete(x, 2, axis=1))
        assert v == pytest.approx(v_without, abs=1e-12)

    def test_all_constant_rejected(self):
        with pytest.raises(ValueError):
            an.vni_empirical(np.ones((100, 5)))

    def test_scale_and_shift_invariance(self):
        x = make_activations(2000, 8, seed=5)
        v0, _, _ = an.vni_empirical(x)
        v1, _, _ = an.vni_empirical(x * 3.0 - 2.0)
        assert v1 == pytest.approx(v0, abs=1e-12)

    @pytest.mark.parametrize("runs", [1, 4])
    def test_stack_equals_each_run_alone(self, runs):
        # Each run of an R x batch x N stack is read alone, bit for bit; the
        # stack holds dead nodes, a run with one live node, and a NaN row.
        x = Rng(9).normal(size=(runs, 50, 7)) * np.array([1e-3, 1.0, 1e3, 2.0])[:runs, None, None]
        x[0, :, 1] = 4.0
        if runs > 1:
            x[1, :, :6] = -1.0
            x[2, 10] = np.nan
        value, corr_sq, variances = an.vni_empirical(x)
        assert value.shape == (runs,) and corr_sq.shape == (runs, 7, 7) and variances.shape == (runs, 7)
        for r in range(runs):
            v, c, var = an.vni_empirical(x[r])
            assert type(v) is float and v.hex() == float(value[r]).hex()
            assert c.tobytes() == corr_sq[r].tobytes() and var.tobytes() == variances[r].tobytes()
        if runs > 1:
            assert np.isnan(value[2]) and np.isfinite(value[[0, 1, 3]]).all()

    def test_stack_with_an_all_constant_run_rejected(self):
        x = make_activations(300, 5, seed=10).reshape(3, 100, 5)
        x[1] = 2.0
        with pytest.raises(ValueError, match="constant"):
            an.vni_empirical(x)

    def test_float32_activations_read_as_their_float64_values(self):
        # float32 activations are centred straight into one float64 array:
        # the bits of the same values handed over in float64, with no second
        # full-size copy.
        x = make_activations(2000, 50, seed=11).astype(np.float32)
        tracemalloc.start()
        try:
            value, corr_sq, variances = an.vni_empirical(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.size * 8, peak
        want = an.vni_empirical(x.astype(np.float64))
        assert value.hex() == want[0].hex()
        assert corr_sq.tobytes() == want[1].tobytes() and variances.tobytes() == want[2].tobytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "tiny"])
    def test_float32_activations_out_of_range_rejected(self, bad):
        # A float32 pass that overflowed (a non-finite value) or underflowed
        # (largest |x| below 2^24 x float32's smallest normal, 1.97e-31) is
        # refused; float64 activations are not checked.
        x = make_activations(100, 5, seed=12)
        if bad == "tiny":
            x *= 1e-32
        else:
            x[3, 2] = float(bad)
        with pytest.raises(ValueError, match="float32"):
            an.vni_empirical(x.astype(np.float32))
        with np.errstate(invalid="ignore"):
            an.vni_empirical(x)


@pytest.mark.parametrize("kind", list(ActivationKind))
@pytest.mark.parametrize("init_kind", [InitKind.SCALED_GAUSSIAN, InitKind.ORTHOGONAL, InitKind.HOUSEHOLDER])
def test_float32_probe_pass_reads_the_float64_indicator(kind, init_kind, one_blas):
    # The probe pass rounds the probe and the weights to float32 and steps
    # in float32; at the critical gain its indicator stays within 1e-6 of
    # the built network's float64 pass at every 30th layer up to L = 120.
    sigma_x_sq = 0.1
    sigma_w_sq = 1.0 if init_kind is InitKind.HOUSEHOLDER else tune_sigma_w_sq(kind, sigma_x_sq)[0]
    init = InitializerSpec(init_kind, sigma_w_sq)
    for width in (32, 128):
        spec = NetworkSpec(120, width, width, 0, kind)
        probe = gaussian_probe(1000, width, sigma_x_sq, Rng(60))
        float64 = layers(build_network(spec, init, Rng(61, (width,))), probe)
        for depth, (x64, x32) in enumerate(zip(float64, streamed_layers(spec, init, Rng(61, (width,)), probe)), 1):
            if depth % 30 == 0:
                assert x32.dtype == np.float32
                assert abs(an.vni_empirical(x32)[0] - an.vni_empirical(x64)[0]) <= 1e-6, (width, depth)


def test_a_float32_pass_that_underflows_raises(one_blas):
    # tanh far below its critical gain (sigma_w^2 = sigma_x^2 = 0.1, N = 64):
    # |x_l| shrinks about 10^-0.5 a layer.  At L = 60 (largest |x| 9.6e-31)
    # the float32 pass reads the float64 indicator; at L = 120 the float64
    # pass reads 0.90 from values about 1e-60, the float32 ones underflow to
    # zero, and reading them raises instead of reporting "all nodes are
    # constant".
    init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 0.1)
    probe = gaussian_probe(1000, 64, 0.1, Rng(62))
    spec = NetworkSpec(120, 64, 64, 0, ActivationKind.TANH)
    float64 = layers(build_network(spec, init, Rng(63)), probe)
    for depth, (x64, x32) in enumerate(zip(float64, streamed_layers(spec, init, Rng(63), probe)), 1):
        if depth == 60:
            assert abs(an.vni_empirical(x32)[0] - an.vni_empirical(x64)[0]) <= 1e-6
    assert an.vni_empirical(x64)[0] == pytest.approx(0.9014, abs=1e-4)
    assert not x32.any()
    with pytest.raises(ValueError, match="float32"):
        an.vni_empirical(x32)


class TestCovarianceRoute:
    def test_identity_matrix(self):
        assert an.vni_from_covariance(np.eye(30)) == pytest.approx(1.0 / 30, abs=1e-14)

    def test_rank_one(self):
        u = Rng(6).normal(size=12)
        assert an.vni_from_covariance(np.outer(u, u)) == pytest.approx(1.0, abs=1e-12)

    def test_equals_empirical_route(self):
        # same quantity via correlations/variances and via tr(C^2)/tr(C)^2
        x = make_activations(1500, 10, seed=7)
        x[:, 3] *= 5.0
        c = np.cov(x.T)
        v_emp, _, _ = an.vni_empirical(x)
        assert an.vni_from_covariance(c) == pytest.approx(v_emp, abs=1e-10)

    @given(st.integers(2, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bounds(self, n, seed):
        x = Rng(seed).normal(size=(3 * n, n))
        c = np.cov(x.T)
        v = an.vni_from_covariance(c)
        assert 1.0 / n - 1e-12 <= v <= 1.0 + 1e-12


class TestJacobianRoute:
    def test_matches_covariance_on_linear_network(self):
        # for a linear network C = sigma_x^2 J J^T exactly, so both
        # routes coincide up to the finite-sample covariance
        spec = NetworkSpec(4, 10, 10, 0, ActivationKind.LINEAR)
        state = build_network(spec, InitializerSpec(InitKind.SCALED_GAUSSIAN, 0.9), Rng(8))
        j = jacobian(state, np.zeros(10))
        v_jac = an.vni_from_jacobian(j)
        c_exact = 0.5 * j @ j.T
        assert v_jac == pytest.approx(an.vni_from_covariance(c_exact), abs=1e-12)

    def test_spectral_moments(self):
        j = np.diag([2.0, 1.0, 1.0])  # JJ^T eigenvalues 4, 1, 1
        # m_1 = (4+1+1)/3 = 2, m_2 = (16+1+1)/3 = 6
        assert an.vni_from_jacobian(j) == pytest.approx(6.0 / (3 * 4.0))


class TestTheory:
    def test_linear_orthogonal_is_floor(self):
        # mu2/mu1^2 - 1 - s1 = 0 for linear + orthogonal: indicator stays 1/N
        m = ActivationMoments(1.0, 1.0, 1.0)
        clamped, raw = an.vni_theoretical(50, 20, m, s1=0.0)
        assert raw == pytest.approx(1.0 / 20)
        assert clamped == raw

    def test_linear_gaussian_slope(self):
        # mu2/mu1^2 - 1 - (-1) = 1: indicator = 1/N + L/N
        m = ActivationMoments(1.0, 1.0, 1.0)
        _, raw = an.vni_theoretical(7, 100, m, s1=-1.0)
        assert raw == pytest.approx(8.0 / 100)

    def test_clamped_at_one(self):
        m = ActivationMoments(1.0, 1.0, 1.0)
        clamped, raw = an.vni_theoretical(500, 20, m, s1=-1.0)
        assert raw > 1.0
        assert clamped == 1.0

    def test_s1_values(self):
        assert an.s1_for_ensemble(InitKind.SCALED_GAUSSIAN) == -1.0
        assert an.s1_for_ensemble(InitKind.SCALED_UNIFORM) == -1.0
        assert an.s1_for_ensemble(InitKind.ORTHOGONAL) == 0.0
        assert an.s1_for_ensemble(InitKind.HOUSEHOLDER) == 0.0
        with pytest.raises(ValueError):
            an.s1_for_ensemble(InitKind.BOTTLENECK)


class TestEffectiveNodes:
    def test_counting(self):
        c = np.diag([1.0, 0.5, 0.05, 0.001])
        assert an.epsilon_enn(c, 0.01) == 3
        assert an.epsilon_enn(c, 0.1) == 2
        assert an.epsilon_enn(c, 0.9) == 1

    def test_rank_one_collapse(self):
        u = Rng(9).normal(size=15)
        for eps in an.DEFAULT_ENN_EPSILONS:
            assert an.epsilon_enn(np.outer(u, u), eps) == 1

    def test_quadratic_endpoints(self):
        assert an.enn_from_rsq(40, 1.0, 0.5) == pytest.approx(1.0)
        # at the floor R = 1/N the root exceeds N - 1 slightly and is clamped
        assert an.enn_from_rsq(40, 1.0 / 40, 0.5) == pytest.approx(40.0)

    def test_two_level_spectrum_round_trip(self):
        # the extremal spectrum (1, eps, ..., eps, 0, ...) makes the bound
        # tight; for k equal top eigenvalues the counted value can never
        # exceed the bound
        assert an.enn_from_rsq(20, an.vni_from_covariance(np.diag([1.0, 0.5, 0.5, 0.5] + [0.0] * 16)), 0.5) == pytest.approx(4.0)
        for k in (2, 5, 8):
            lam = np.zeros(20)
            lam[:k] = 1.0
            c = np.diag(lam)
            r = an.vni_from_covariance(c)
            assert r == pytest.approx(1.0 / k)
            n_e = an.enn_from_rsq(20, r, 0.5)
            assert an.epsilon_enn(c, 0.5) == k
            assert k <= n_e + 1e-9  # the quadratic caps the counted number

    @given(st.floats(0.05, 1.0), st.floats(0.05, 0.95), st.integers(2, 100))
    @settings(max_examples=60, deadline=None)
    def test_quadratic_properties(self, r, eps, n):
        r = max(r, 1.0 / n)
        n_e = an.enn_from_rsq(n, r, eps)
        assert 1.0 - 1e-9 <= n_e <= n + 1e-9


def test_correlation_heatmap_clusters_blocks():
    # two interleaved groups of perfectly correlated nodes: after the
    # eigenvector ordering each group should be contiguous
    rng = Rng(10)
    g1 = rng.normal(size=(2000, 1))
    g2 = rng.normal(size=(2000, 1))
    cols = [g1, g2, g1, g2, g1, g2]
    x = np.concatenate(cols, axis=1) + 0.01 * rng.normal(size=(2000, 6))
    _, corr_sq, _ = an.vni_empirical(x)
    permuted, order = an.correlation_heatmap(corr_sq)
    groups = [0, 1, 0, 1, 0, 1]
    reordered = [groups[i] for i in order]
    assert reordered in ([0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0])
    assert permuted.shape == (6, 6)


class TestGradientDiagnostics:
    def test_gain_definition(self):
        spec = NetworkSpec(4, 30, 30, 0, ActivationKind.LINEAR)
        state = build_network(spec, InitializerSpec(InitKind.SCALED_GAUSSIAN, 1.0), Rng(11))
        probe = Rng(12).normal(size=(200, 30))
        g = Rng(13).normal(size=(200, 30))
        d = an.gradient_diagnostics(state, probe, g, mu1=1.0)
        assert d.per_layer_gain.shape == (4,)
        for l, w in enumerate(state.weights):
            assert d.per_layer_gain[l] == pytest.approx(30 * w.var(), rel=1e-10)

    @pytest.mark.parametrize("kind", [InitKind.SCALED_GAUSSIAN, InitKind.HOUSEHOLDER])
    def test_stacked_gain_equals_each_run_alone(self, kind):
        # A rectangular first layer, then square ones (reflection stacks for
        # Householder, materialized in one stacked call).
        spec = NetworkSpec(4, 17, 5, 3, ActivationKind.TANH)
        rngs = [Rng(21, (r,)) for r in range(3)]
        runs = [build_network(spec, InitializerSpec(kind, 1.3), rng) for rng in rngs]
        state = build_stack(spec, InitializerSpec(kind, 1.3), rngs)
        state.rematerialize()
        gains = an.per_layer_gain(state, 0.7)
        assert gains.shape == (3, 4)
        for r, run in enumerate(runs):
            assert gains[r].tobytes() == an.per_layer_gain(run, 0.7).tobytes()
            assert gains[r].tobytes() == an.per_layer_gain(run_state(state, r), 0.7).tobytes()

    def test_input_gradient_skips_the_reflection_gradients(self, monkeypatch):
        # Only the optimizer maps a weight gradient to reflection vectors:
        # backward, the diagnostics and the training statistics' input
        # gradient run on Householder networks without that map, and the
        # diagnostics read the input gradient backward gives.
        def refuse(*args):
            raise AssertionError("householder_backward called")

        monkeypatch.setattr(initializers, "householder_backward", refuse)
        monkeypatch.setattr(training, "householder_backward", refuse)
        spec = NetworkSpec(3, 8, 5, 2, ActivationKind.TANH)
        state = build_network(spec, InitializerSpec(InitKind.HOUSEHOLDER, 1.0), Rng(31))
        assert all(s is not None for s in state.stacks[1:])
        probe = Rng(32).normal(size=(50, 5))
        g = Rng(33).normal(size=(50, 8))
        backbone = headless(state)
        full = backward(backbone, forward(backbone, probe), g)
        d = an.gradient_diagnostics(state, probe, g, mu1=1.0)
        assert d.var_input_grad == float(full.input_gradient.var())
        ds = synthetic_task("and4")
        runs = build_stack(NetworkSpec(3, 4, 4, 4), InitializerSpec(InitKind.HOUSEHOLDER), [Rng(34, (r,)) for r in range(2)])
        records = training._epoch_stats(runs, 0, None, ds, ds, None, None, 1.0)
        assert all(math.isfinite(r.input_grad_log_norm) for r in records)

    def test_forward_variance_prediction(self):
        # linear net at sigma_w^2 = 1: Var[x_L] should stay near Var[x_0]
        spec = NetworkSpec(6, 100, 100, 0, ActivationKind.LINEAR)
        state = build_network(spec, InitializerSpec(InitKind.SCALED_GAUSSIAN, 1.0), Rng(14))
        probe = Rng(15).normal(size=(500, 100)) * np.sqrt(0.5)
        g = Rng(16).normal(size=(500, 100))
        d = an.gradient_diagnostics(state, probe, g, mu1=1.0)
        assert d.predicted_var_x_L == pytest.approx(0.5, rel=0.05)
        assert d.var_x_L == pytest.approx(d.predicted_var_x_L, rel=0.5)


def test_vni_report_routes_agree():
    spec = NetworkSpec(10, 40, 40, 0, ActivationKind.HARD_TANH)
    state = build_network(spec, InitializerSpec(InitKind.SCALED_GAUSSIAN, 1.0), Rng(17))
    probe = Rng(18).normal(size=(2000, 40)) * np.sqrt(0.1)
    m = ActivationMoments(*mu_quadrature(ActivationKind.HARD_TANH, 0.1), 0.1)
    rep = an.vni_report(state, probe, moments=m, s1=-1.0, with_jacobian=True)
    assert rep.vni_covariance == pytest.approx(rep.vni_empirical, abs=1e-10)
    assert rep.vni_jacobian == pytest.approx(rep.vni_empirical, rel=0.5)
    assert rep.vni_theoretical is not None
    for eps in an.DEFAULT_ENN_EPSILONS:
        assert 1 <= rep.enn[eps] <= 40


def test_vni_report_one_eigensolve(monkeypatch):
    # the effective node counts at every epsilon share one spectrum of the
    # probe covariance and equal epsilon_enn on that covariance
    spec = NetworkSpec(6, 30, 30, 0, ActivationKind.TANH)
    state = build_network(spec, InitializerSpec(InitKind.SCALED_GAUSSIAN, 1.0), Rng(19))
    probe = Rng(20).normal(size=(400, 30))
    solves = []
    solve = an.sym_eigenvalues

    def counted(a, *args, **kwargs):
        solves.append(a.shape)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(an, "sym_eigenvalues", counted)
    rep = an.vni_report(state, probe)
    assert solves == [(30, 30)]
    monkeypatch.undo()
    acts = forward(state, probe).post[-1]
    cov = np.cov(acts.T)
    for eps in an.DEFAULT_ENN_EPSILONS:
        assert rep.enn[eps] == an.epsilon_enn(cov, eps)


def test_vni_report_keeps_no_layer_trace():
    # The indicator reads layer L alone, so the report's peak stays within a
    # few activation arrays (1000 x 100 float64 each) at any depth; a
    # per-layer trace would hold 120 of them.
    spec = NetworkSpec(60, 100, 100, 0, ActivationKind.HARD_TANH)
    state = build_network(spec, InitializerSpec(InitKind.SCALED_GAUSSIAN, 1.0), Rng(21))
    probe = Rng(22).normal(size=(1000, 100)) * np.sqrt(0.1)
    tracemalloc.start()
    try:
        an.vni_report(state, probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * probe.nbytes


@pytest.mark.parametrize(
    "case, phrase",
    [
        ("rectangular", "covariance must be square"),
        ("vector", "covariance must be square"),
        ("asymmetric", "covariance must be symmetric"),
        ("zero_trace", "covariance has zero trace"),
        ("empty_probe", "probe batch must be nonempty"),
    ],
)
def test_bad_input_raises_a_value_error_that_names_it(case, phrase):
    state = build_network(NetworkSpec(2, 4, 4, 0), InitializerSpec(InitKind.SCALED_GAUSSIAN, 1.0), Rng(23))
    calls = {
        "rectangular": lambda: an.vni_from_covariance(np.zeros((2, 3))),
        "vector": lambda: an.vni_from_covariance(np.ones(3)),
        "asymmetric": lambda: an.vni_from_covariance(np.array([[1.0, 0.5], [0.0, 1.0]])),
        "zero_trace": lambda: an.vni_from_covariance(np.zeros((3, 3))),
        "empty_probe": lambda: an.gradient_diagnostics(state, np.zeros((0, 4)), np.zeros((0, 4)), mu1=1.0),
    }
    with pytest.raises(ValueError, match=phrase):
        calls[case]()
