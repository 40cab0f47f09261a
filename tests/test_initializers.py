import hashlib
import re

import numpy as np
import pytest

from vannodes import initializers as ini
from vannodes.initializers import HouseholderStack, InitKind, InitializerSpec
from vannodes.linalg import Rng
from vannodes.network import NetworkSpec, backward, build_stack, forward, run_state
from vannodes.training import Optimizer, _flatten, _gradients, _step_buffers


def test_scaled_gaussian_variance():
    w = ini.init_scaled(InitKind.SCALED_GAUSSIAN, 400, 400, 1.5, Rng(1))
    assert w.shape == (400, 400)
    assert w.var() == pytest.approx(1.5 / 400, rel=0.02)
    assert abs(w.mean()) < 0.001


def test_scaled_uniform_variance_and_bounds():
    w = ini.init_scaled(InitKind.SCALED_UNIFORM, 400, 400, 1.5, Rng(2))
    half = np.sqrt(3 * 1.5 / 400)
    assert np.abs(w).max() <= half
    assert w.var() == pytest.approx(1.5 / 400, rel=0.02)


def test_orthogonal_init():
    w = ini.init_orthogonal(30, np.sqrt(1.3), Rng(3))
    assert np.allclose(w @ w.T, 1.3 * np.eye(30), atol=1e-10)


def test_qr_orthogonal():
    q = ini.init_orthogonal(15, 1.0, Rng(2))
    assert np.allclose(q @ q.T, np.eye(15), atol=1e-10)
    assert np.allclose(q.T @ q, np.eye(15), atol=1e-10)


def test_qr_haar_sign_symmetry():
    # first entry should not have a sign bias (the raw QR of a Gaussian
    # matrix does, without the R-diagonal sign fix)
    signs = [np.sign(ini.init_orthogonal(3, 1.0, Rng(s))[0, 0]) for s in range(400)]
    assert abs(np.mean(signs)) < 0.15


def test_bottleneck_rank_and_scale():
    w = ini.init_bottleneck(60, 40, 2, Rng(4))
    assert w.shape == (40, 60)
    s = np.linalg.svd(w, compute_uv=False)
    assert np.sum(s > 1e-10) == 2
    # entries are sums of nb products scaled by 1/sqrt(nb * n_mean):
    # elementwise variance 1/n_mean with n_mean = (60 + 40) / 2
    assert w.var() == pytest.approx(1.0 / 50, rel=0.1)


def test_bottleneck_forces_identical_outputs():
    # rank-1 weight: every output node is a scalar multiple of the same
    # projection, so post-activation rows are perfectly correlated (up to sign)
    w = ini.init_bottleneck(50, 50, 1, Rng(6))
    x = Rng(7).normal(size=(200, 50))
    h = x @ w.T
    c = np.corrcoef(h.T)
    assert np.allclose(np.abs(c), 1.0, atol=1e-8)


def _near_parallel(n, rng):
    return rng.normal(size=n) + 1e-8 * rng.normal(size=(n, n))


def _repeated_pairs(n, rng):
    v = rng.normal(size=(n, n))
    v[1::2] = v[: n - n % 2 : 2]  # H_{2k+1} H_{2k} = I
    return v


def _near_one_hot(n, rng):
    v = 1e-9 * rng.normal(size=(n, n))
    v[:, 0] += 1.0
    return v


ADVERSARIAL_STACKS = {
    "rows_scaled_1e-6_to_1e6": lambda n, rng: rng.normal(size=(n, n)) * np.logspace(-6, 6, n)[:, None],
    "near_parallel": _near_parallel,
    "repeated_pairs": _repeated_pairs,
    "near_one_hot": _near_one_hot,
}


def dense_reflection_product_and_grads(vectors, g_out):
    """W = H_n ... H_1 and each v_i's gradient from dense reflection
    matrices: dL/dH_i = S_i^T G P_{i-1}^T with S_i = H_n ... H_{i+1} and
    P_{i-1} = H_{i-1} ... H_1, contracted with dH_i/dv_i."""
    n = len(vectors)
    eye = np.eye(n)
    hs = [eye - 2.0 * np.outer(v, v) / (v @ v) for v in vectors]
    suffixes = [eye]  # suffixes[k] = H_n ... H_{n-k+1}
    for h in reversed(hs):
        suffixes.append(suffixes[-1] @ h)
    grads = np.empty_like(vectors)
    p_prev = eye
    for i, v in enumerate(vectors):
        gh = suffixes[n - 1 - i].T @ g_out @ p_prev.T
        s = v @ v
        # dH[a, b]/dv[k] = -2/s (d_ak v_b + v_a d_bk) + 4 v_a v_b v_k / s^2
        grads[i] = (-2.0 / s) * (gh @ v + gh.T @ v) + (4.0 * (v @ gh @ v) / (s * s)) * v
        p_prev = hs[i] @ p_prev
    return p_prev, grads


class TestHouseholder:
    def test_materialized_is_orthogonal(self):
        st = ini.householder_init(12, Rng(8))
        w = ini.householder_materialize(st)
        assert np.allclose(w @ w.T, np.eye(12), atol=1e-10)

    def test_determinant_sign(self):
        # product of n reflections
        for n in (3, 4, 7):
            w = ini.householder_materialize(ini.householder_init(n, Rng(n)))
            assert np.linalg.det(w) == pytest.approx((-1.0) ** n, abs=1e-8)

    def test_scale_invariance(self):
        st = ini.householder_init(6, Rng(9))
        scaled = HouseholderStack(st.vectors * 3.7)
        assert np.allclose(
            ini.householder_materialize(st), ini.householder_materialize(scaled), atol=1e-12
        )

    def test_backward_matches_finite_difference(self):
        n = 5
        st = ini.householder_init(n, Rng(10))
        g_out = Rng(11).normal(size=(n, n))  # dLoss/dW, arbitrary
        grad = ini.householder_backward(st, g_out)
        assert grad.shape == (n, n)
        eps = 1e-6
        for i in range(n):
            for j in range(n):
                vp = st.vectors.copy()
                vm = st.vectors.copy()
                vp[i, j] += eps
                vm[i, j] -= eps
                lp = np.sum(g_out * ini.householder_materialize(HouseholderStack(vp)))
                lm = np.sum(g_out * ini.householder_materialize(HouseholderStack(vm)))
                assert grad[i, j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_backward_matches_dense_oracle(self, n):
        # dL/dH_i = S_i^T G P_{i-1}^T with S_i = H_n ... H_{i+1} and
        # P_{i-1} = H_{i-1} ... H_1 built as dense reflection matrices, then
        # contracted with the explicit tensor dH_i/dv_i.
        st = ini.householder_init(n, Rng(20 + n))
        g_out = Rng(30 + n).normal(size=(n, n))
        grad = ini.householder_backward(st, g_out)
        eye = np.eye(n)
        hs = [eye - 2.0 * np.outer(v, v) / (v @ v) for v in st.vectors]
        for i, v in enumerate(st.vectors):
            s_i, p_prev = eye, eye
            for h in hs[i + 1 :]:
                s_i = h @ s_i
            for h in hs[:i]:
                p_prev = h @ p_prev
            gh = s_i.T @ g_out @ p_prev.T
            s = v @ v
            # dH[a, b]/dv[k] = -2/s (d_ak v_b + v_a d_bk) + 4 v_a v_b v_k / s^2
            dh = (-2.0 / s) * (
                np.einsum("ak,b->abk", eye, v) + np.einsum("a,bk->abk", v, eye)
            ) + (4.0 / (s * s)) * np.einsum("a,b,k->abk", v, v, v)
            oracle = np.einsum("ab,abk->k", gh, dh)
            # a reflection depends on v / |v| only, so |G| / |v| sets the scale
            # of v's gradient (the exact gradient is 0 at n = 1)
            scale = np.linalg.norm(g_out) / np.sqrt(s)
            assert np.abs(grad[i] - oracle).max() <= 1e-12 * scale

    def test_orthogonal_after_updates(self):
        # the parametrization cannot leave the orthogonal group, whatever
        # gradient steps do to the vectors
        st = ini.householder_init(10, Rng(12))
        rng = Rng(13)
        vecs = st.vectors
        for _ in range(100):
            vecs = vecs - 0.05 * rng.normal(size=vecs.shape)
            w = ini.householder_materialize(HouseholderStack(vecs))
            assert np.allclose(w @ w.T, np.eye(10), atol=1e-9)

    def test_zero_vector_rejected(self):
        v = Rng(14).normal(size=(4, 4))
        v[2] = 0.0
        with pytest.raises(ValueError):
            HouseholderStack(v)

    @pytest.mark.parametrize(
        "entry, scale, match",
        [
            (np.nan, 1.0, "finite"),
            (np.inf, 1.0, "finite"),
            (1.0, 1e-161, "vector 3 has v.v"),  # v.v about 1e-322, a subnormal
            (1.0, 1e160, "vector 3 has v.v = inf"),  # finite entries, v.v overflows
        ],
        ids=["nan", "inf", "subnormal", "overflow"],
    )
    def test_unusable_vector_rejected(self, entry, scale, match):
        v = Rng(14).normal(size=(4, 4))
        v[2, 1] = entry
        v[2] *= scale
        with pytest.raises(ValueError, match=match):
            HouseholderStack(v)

    def test_rows_beyond_the_checked_range_after_construction(self):
        # in-place updates skip the constructor's check; the reflections
        # depend on v / |v| only, so rows of any finite scale keep working
        st = ini.householder_init(6, Rng(15))
        g_out = Rng(16).normal(size=(6, 6))
        w, grad = ini.householder_materialize(st), ini.householder_backward(st, g_out)
        st.vectors[0] *= 1e200
        st.vectors[3] *= 1e-200
        assert np.abs(ini.householder_materialize(st) - w).max() <= 1e-14
        scaled_grad = ini.householder_backward(st, g_out)
        assert np.allclose(scaled_grad[0] * 1e200, grad[0], rtol=1e-12, atol=1e-14)
        assert np.allclose(scaled_grad[3] * 1e-200, grad[3], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 128])
    @pytest.mark.parametrize("kind", sorted(ADVERSARIAL_STACKS))
    def test_adversarial_stack_matches_dense_reflections(self, kind, n):
        vectors = ADVERSARIAL_STACKS[kind](n, Rng(40 + n))
        g_out = Rng(50 + n).normal(size=(n, n))
        st = HouseholderStack(vectors)
        w = ini.householder_materialize(st)
        grad = ini.householder_backward(st, g_out)
        w_dense, grad_dense = dense_reflection_product_and_grads(vectors, g_out)
        assert np.abs(w - w_dense).max() <= 1e-12
        assert np.abs(w.T @ w - np.eye(n)).max() <= 1e-12
        scale = np.linalg.norm(g_out) / np.linalg.norm(vectors, axis=1)
        assert np.all(np.abs(grad - grad_dense).max(axis=1) <= 1e-12 * scale)

    def test_orthogonal_after_ten_thousand_sgd_updates(self):
        # the gate for the Householder layer: |W^T W - I| <= 1e-12 after
        # 10^4 SGD steps driven by random upstream gradients at n = 64
        st = ini.householder_init(64, Rng(17))
        rng = Rng(18)
        start = st.vectors.copy()
        for _ in range(10_000):
            st.vectors -= 0.05 * ini.householder_backward(st, rng.normal(size=(64, 64)))
        assert np.abs(st.vectors - start).max() > 1.0  # the rows really moved
        w = ini.householder_materialize(st)
        assert np.abs(w.T @ w - np.eye(64)).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 8, 64])
def test_stacked_runs_equal_each_run_alone(n):
    # The stacks of R runs trained together, R x n x n, go through one call
    # of each function; every run's slice is bit for bit its call alone.
    rng = np.random.default_rng(n)
    vectors, g_out = rng.normal(size=(3, n, n)), rng.normal(size=(3, n, n))
    stacked = HouseholderStack.unchecked(vectors)
    w, grad = ini.householder_materialize(stacked), ini.householder_backward(stacked, g_out)
    for r in range(3):
        alone = HouseholderStack(vectors[r])
        assert w[r].tobytes() == ini.householder_materialize(alone).tobytes()
        assert grad[r].tobytes() == ini.householder_backward(alone, g_out[r]).tobytes()
    with pytest.raises(ValueError, match="upstream gradient"):
        ini.householder_backward(stacked, g_out[0])



@pytest.mark.parametrize("n", [4, 17, 64, 100])
def test_block_inverse_of_a_stack_equals_each_slice_alone(n):
    # The recursion splits down to LAPACK blocks of at most 16 rows; a stack
    # of R pivot matrices gives each slice the bits of its own inverse.
    u, _ = ini._unit_rows(np.random.default_rng(n).normal(size=(3, n, n)))
    a = ini._lower_half(u @ u.swapaxes(-1, -2))
    s = ini._lower_inverse(a)
    for r in range(3):
        assert s[r].tobytes() == ini._lower_inverse(a[r]).tobytes()
        assert np.abs(s[r] @ a[r] - np.eye(n)).max() <= 1e-12


def test_lower_half_zeroes_everything_above_the_diagonal():
    a = np.full((3, 3), np.nan)
    a[np.tril_indices(3)] = 2.0
    assert ini._lower_half(a).tolist() == [[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, 2.0, 1.0]]


@pytest.mark.parametrize("n", [4, 64, 100])
@pytest.mark.parametrize("kind", sorted(ADVERSARIAL_STACKS))
def test_materialized_w_stays_near_the_solve_form(kind, n):
    # W = I - U^T (S U) from one inverse S and the solve form
    # I - U^T solve(A, U) are two products of inner dimension n apart, so
    # their entries (all of size <= 1) may differ by at most 2 n eps.
    vectors = ADVERSARIAL_STACKS[kind](n, Rng(60 + n))
    u, _ = ini._unit_rows(vectors)
    solve_form = np.eye(n) - u.T @ np.linalg.solve(ini._lower_half(u @ u.T), u)
    w = ini.householder_materialize(HouseholderStack(vectors))
    assert np.abs(w - solve_form).max() <= 2 * n * np.finfo(np.float64).eps


class _NoLinalg:
    def __getattr__(self, name):
        raise AssertionError(f"np.linalg.{name} called")


def test_backward_after_materialize_makes_no_lapack_call(monkeypatch):
    st = ini.householder_init(64, Rng(70))
    g_out = Rng(71).normal(size=(64, 64))
    fresh = ini.householder_backward(HouseholderStack(st.vectors.copy()), g_out)
    ini.householder_materialize(st)
    monkeypatch.setattr(np, "linalg", _NoLinalg())
    assert ini.householder_backward(st, g_out).tobytes() == fresh.tobytes()
    with pytest.raises(AssertionError, match="np.linalg"):  # a stack without factors forms them
        ini.householder_backward(HouseholderStack(st.vectors.copy()), g_out)


def test_backward_reads_the_factors_of_the_last_update():
    # Two runs stacked, two SGD steps, each followed by rematerialize: the
    # backward that reads the kept factors, alone and as the reflection
    # gradient the step writes to the gradient buffer, has the bits of one
    # on a fresh stack of the same vectors, which forms its own.
    spec = NetworkSpec(3, 20, 20, 0)
    init = InitializerSpec(InitKind.HOUSEHOLDER)
    state = build_stack(spec, init, [Rng(80, (run,)) for run in range(2)])
    params = _flatten(state)
    rate, grads, out = _step_buffers(state, np.array([0.1, 0.1]))
    batch, g = Rng(81).normal(size=(2, 5, 20)), Rng(82).normal(size=(2, 5, 20))
    opt = Optimizer(rate)
    for _ in range(2):
        _gradients(state, forward(state, batch), g, out)
        opt.step(params, grads)
        state.rematerialize()
    g_w = Rng(83).normal(size=(2, 20, 20))
    trace = forward(state, batch)
    weight_grads = backward(state, trace, g).weights
    _gradients(state, trace, g, out)
    for l, stack in enumerate(state.stacks):
        assert stack.factors is not None
        fresh = HouseholderStack.unchecked(stack.vectors.copy())
        assert ini.householder_backward(stack, g_w).tobytes() == ini.householder_backward(fresh, g_w).tobytes()
        assert np.shares_memory(stack.vectors, params) and np.shares_memory(out.weights[l], grads)
        assert out.weights[l].tobytes() == ini.householder_backward(fresh, weight_grads[l]).tobytes()


def test_build_stack_carries_the_factors_of_built_runs(monkeypatch):
    # The build forms the factors of the stacked vectors once, bit for bit
    # those that the vectors form, so the first training step's backward
    # and reflection gradients form none; a run taken out of the stack
    # holds none.
    spec = NetworkSpec(3, 20, 20, 0)
    state = build_stack(spec, InitializerSpec(InitKind.HOUSEHOLDER), [Rng(84, (run,)) for run in range(3)])
    _flatten(state)
    _, grads, out = _step_buffers(state, np.full(3, 0.1))
    batch, g = Rng(85).normal(size=(3, 5, 20)), Rng(86).normal(size=(3, 5, 20))
    trace = forward(state, batch)
    weight_grads = backward(state, trace, g).weights
    fresh = [HouseholderStack.unchecked(s.vectors.copy()) for s in state.stacks]
    want = [ini.householder_backward(s, w).tobytes() for s, w in zip(fresh, weight_grads, strict=True)]
    for stack in state.stacks:
        for kept, formed in zip(stack.factors, ini._wy_factors(stack.vectors), strict=True):
            assert kept.tobytes() == formed.tobytes()
    monkeypatch.setattr(np, "linalg", _NoLinalg())
    _gradients(state, trace, g, out)
    assert [grad.tobytes() for grad in out.weights] == want
    assert all(np.shares_memory(grad, grads) for grad in out.weights)
    assert all(s.factors is None for r in range(3) for s in run_state(state, r).stacks)


class TestDispatch:
    def test_square_kinds(self):
        rng = Rng(15)
        spec = InitializerSpec(InitKind.ORTHOGONAL, 1.0)
        w = ini.init_weight(spec, 20, 20, rng)
        assert np.allclose(w @ w.T, np.eye(20), atol=1e-10)

    def test_householder_returns_stack(self):
        w = ini.init_weight(InitializerSpec(InitKind.HOUSEHOLDER), 20, 20, Rng(16))
        assert isinstance(w, HouseholderStack)

    def test_rectangular_falls_back_to_gaussian(self):
        # orthogonal / bottleneck / reflection kinds only apply to square
        # layers; rectangular layers get the scaled Gaussian at sigma_w_sq
        for kind in (InitKind.ORTHOGONAL, InitKind.BOTTLENECK, InitKind.HOUSEHOLDER):
            w = ini.init_weight(InitializerSpec(kind, 1.0), 300, 200, Rng(17))
            assert isinstance(w, np.ndarray)
            assert w.shape == (200, 300)
            assert w.var() == pytest.approx(1.0 / 300, rel=0.05)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            InitializerSpec(InitKind.SCALED_GAUSSIAN, -1.0)
        with pytest.raises(ValueError):
            InitializerSpec(InitKind.BOTTLENECK, 1.0, bottleneck_nb=0)


# The first 16 hex digits of the SHA-256 of each kind's draw at Rng(5, (1,)),
# sigma_w^2 = 1.3 and N_b = 2, for a square 7 x 7 layer and a rectangular
# 5 -> 3 one (every kind falls back to the scaled Gaussian there).  A change
# to any draw, its order or its scale shows here.
INIT_DIGESTS = {
    InitKind.SCALED_GAUSSIAN: ("fd30811a4703b1e8", "4bfb1777c68014af"),
    InitKind.SCALED_UNIFORM: ("2ae53b2c7a6223c4", "5abb957e966f3ee4"),
    InitKind.ORTHOGONAL: ("1592f2685064ccc0", "4bfb1777c68014af"),
    InitKind.BOTTLENECK: ("ac68baf55dc4aef1", "4bfb1777c68014af"),
    InitKind.HOUSEHOLDER: ("242bc5f0135ab62f", "4bfb1777c68014af"),
}


@pytest.mark.parametrize("kind", list(InitKind), ids=lambda k: k.value)
def test_init_weight_draws_are_pinned(kind):
    digests = []
    for fan_in, fan_out in ((7, 7), (5, 3)):
        w = ini.init_weight(InitializerSpec(kind, 1.3, 2), fan_in, fan_out, Rng(5, (1,)))
        a = w.vectors if isinstance(w, HouseholderStack) else w
        digests.append(hashlib.sha256(a.tobytes()).hexdigest()[:16])
    assert tuple(digests) == INIT_DIGESTS[kind]


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 3), (4,)], ids=["rectangular", "stacked", "vector"])
def test_non_square_vectors_raise_a_value_error_that_names_them(shape):
    with pytest.raises(ValueError, match="vectors must be an n x n array of reflection rows"):
        HouseholderStack(np.ones(shape))


@pytest.mark.parametrize(
    "call, phrase",
    [
        (lambda: ini.init_scaled(InitKind.SCALED_GAUSSIAN, 0, 3, 1.0, Rng(1)), "dimensions must be >= 1"),
        (lambda: ini.init_scaled(InitKind.SCALED_UNIFORM, 3, 0, 1.0, Rng(1)), "dimensions must be >= 1"),
        (lambda: ini.init_scaled(InitKind.ORTHOGONAL, 3, 3, 1.0, Rng(1)), "init_scaled does not handle"),
        (lambda: ini.init_orthogonal(0, 1.0, Rng(1)), "n must be >= 1"),
        (lambda: ini.householder_init(0, Rng(1)), "n must be >= 1"),
        (lambda: ini.init_bottleneck(3, 4, 0, Rng(1)), "bottleneck dimension 0 out of range for 3x4"),
        (lambda: ini.init_bottleneck(3, 4, 4, Rng(1)), "bottleneck dimension 4 out of range for 3x4"),
        (lambda: ini.init_weight(InitializerSpec("orthogonal"), 3, 3, Rng(1)), "unknown initializer 'orthogonal'"),
    ],
    ids=["no_fan_in", "no_fan_out", "unscaled_kind", "orthogonal_n", "householder_n", "rank_zero", "rank_above", "weight_kind"],
)
def test_bad_input_raises_a_value_error_that_names_it(call, phrase):
    # A kind given by its name, not an InitKind, is unknown.
    with pytest.raises(ValueError, match=re.escape(phrase)):
        call()
