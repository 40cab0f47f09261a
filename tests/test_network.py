import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from vannodes import cpus as cpus_module, network
from vannodes.activations import ActivationKind, derivative as act_derivative, in_place as act_in_place
from vannodes.initializers import InitKind, InitializerSpec, _wy_factors, householder_backward
from vannodes.linalg import Rng
from vannodes.network import (
    Gradients,
    NetworkSpec,
    backward,
    build_network,
    forward,
    jacobian,
    layers,
    output,
    build_stack,
    run_state,
    streamed_layers,
)

GAUSS = InitializerSpec(InitKind.SCALED_GAUSSIAN, 1.2)


def forward_oracle(state, batch):
    """Straight-line reimplementation, one sample at a time."""
    outs = []
    for x in batch:
        v = x.copy()
        for w, b in zip(state.weights, state.biases):
            h = np.array([float(w[i] @ v) + b[i] for i in range(w.shape[0])])
            v = act_in_place(state.spec.activation)(h)
        outs.append(v)
    return np.array(outs)


def total_loss(state, batch, g):
    # linear functional of the top activations (or logits): sum(g * out)
    t = forward(state, batch)
    out = t.logits if t.logits is not None else t.post[-1]
    return float(np.sum(g * out))


def test_forward_matches_oracle():
    spec = NetworkSpec(3, 6, 4, 0, ActivationKind.TANH)
    state = build_network(spec, GAUSS, Rng(1))
    batch = Rng(2).normal(size=(5, 4))
    got = forward(state, batch).post[-1]
    assert np.allclose(got, forward_oracle(state, batch), atol=1e-12)


def test_forward_shapes_and_validation():
    spec = NetworkSpec(2, 5, 3, 4, ActivationKind.RELU)
    state = build_network(spec, GAUSS, Rng(3))
    t = forward(state, Rng(4).normal(size=(7, 3)))
    assert [p.shape for p in t.post] == [(7, 5), (7, 5)]
    assert t.logits.shape == (7, 4)
    with pytest.raises(ValueError):
        forward(state, Rng(4).normal(size=(7, 2)))


@pytest.mark.parametrize("kind", list(ActivationKind))
@pytest.mark.parametrize("num_classes", [0, 3])
@pytest.mark.parametrize("input_dim", [5, 6], ids=["rectangular", "square"])
@pytest.mark.parametrize("init", [GAUSS, InitializerSpec(InitKind.HOUSEHOLDER)], ids=["gauss", "householder"])
def test_output_equals_forward(kind, num_classes, input_dim, init):
    spec = NetworkSpec(4, 6, input_dim, num_classes, kind)
    state = build_network(spec, init, Rng(30))
    householder = init.kind is InitKind.HOUSEHOLDER  # a reflection stack per square layer
    assert [s is not None for s in state.stacks] == [householder and input_dim == 6] + [householder] * 3
    batch = Rng(31).normal(size=(9, input_dim))
    before = batch.copy()
    got = output(state, batch)
    t = forward(state, batch)
    assert np.array_equal(got, t.logits if num_classes else t.post[-1])
    assert np.array_equal(batch, before)


@pytest.mark.parametrize("kind", list(ActivationKind))
@pytest.mark.parametrize(
    "init",
    [
        GAUSS,
        InitializerSpec(InitKind.HOUSEHOLDER),
        InitializerSpec(InitKind.SCALED_UNIFORM, 1.2),
        InitializerSpec(InitKind.ORTHOGONAL, 1.1),
        InitializerSpec(InitKind.BOTTLENECK, bottleneck_nb=2),
    ],
    ids=["gauss", "householder", "uniform", "orthogonal", "bottleneck"],
)
def test_layers_equal_forward_post(kind, init, one_blas):
    # streamed_layers draws each layer from the stream build_network draws it
    # from and leaves out the readout, drawn last from its own stream: its x_l
    # are the built network's, stepped in float32 or in float64, byte for
    # byte, the sign of a zero included.
    for input_dim in (6, 5):  # square, then a rectangular first layer
        spec = NetworkSpec(4, 6, input_dim, 3, kind)
        state = build_network(spec, init, Rng(32))
        batch = Rng(33).normal(size=(9, input_dim))
        before = batch.copy()
        got = list(layers(state, batch))  # every yielded array stays valid
        post = forward(state, batch).post
        assert len(got) == len(post)
        assert all(np.array_equal(a, b) for a, b in zip(got, post))
        streamed = streamed_layers(spec, init, Rng(32), batch)
        assert [x.tobytes() for x in streamed] == [x.tobytes() for x in float32_layers(state, batch)]
        float64 = streamed_layers(spec, init, Rng(32), batch, np.float64)
        assert [x.tobytes() for x in float64] == [x.tobytes() for x in got]
        assert np.array_equal(batch, before)


def float32_layers(state, batch) -> list:
    """x_1..x_L of a built network's backbone with its weights and the batch
    rounded to float32 and every layer stepped in float32: the probe pass's
    reference."""
    phi, bias = act_in_place(state.spec.activation), np.zeros(state.spec.width_N, np.float32)
    x, out = batch.astype(np.float32), []
    for w in state.weights:
        x = network._layer_step(phi, x, w.astype(np.float32), bias)
        out.append(x)
    return out


@pytest.mark.parametrize("kind", list(InitKind))
def test_shallow_network_is_prefix_of_deep(kind):
    # Layer l is drawn from its own stream, so a depth-L build is the first L
    # layers of a deeper one and the deep network's x_L is its output.
    init = InitializerSpec(kind, 1.1, bottleneck_nb=2)
    rng = Rng(34)
    deep = build_network(NetworkSpec(5, 6, 5, 0, ActivationKind.TANH), init, rng)
    batch = Rng(35).normal(size=(7, 5))
    for depth, x in enumerate(layers(deep, batch), 1):
        shallow = build_network(NetworkSpec(depth, 6, 5, 0, ActivationKind.TANH), init, rng)
        assert all(np.array_equal(a, b) for a, b in zip(shallow.weights, deep.weights[:depth], strict=True))
        assert np.array_equal(output(shallow, batch), x)


def test_output_validates_like_forward(one_blas):
    spec = NetworkSpec(2, 5, 3, 4, ActivationKind.RELU)
    state = build_network(spec, GAUSS, Rng(3))
    for bad in (Rng(4).normal(size=(7, 2)), Rng(4).normal(size=3), Rng(4).normal(size=(1, 7, 3))):
        with pytest.raises(ValueError) as from_forward:
            forward(state, bad)
        with pytest.raises(ValueError) as from_output:
            output(state, bad)
        with pytest.raises(ValueError) as from_streamed:
            next(streamed_layers(spec, GAUSS, Rng(3), bad))
        assert str(from_output.value) == str(from_streamed.value) == str(from_forward.value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_streamed_pass_holds_one_layer_not_the_network(dtype, one_blas):
    # N = 128, L = 64: the built network's weights alone take 8.4 MB, while a
    # streamed pass, in either precision, holds one 131 kB weight (and its
    # float32 cast), the draw's temporaries and a few 256 x 128 activation
    # arrays.
    spec = NetworkSpec(64, 128, 128, 0, ActivationKind.TANH)
    batch = Rng(38).normal(size=(256, 128))
    bound = 4 * 128 * 128 * 8 + 4 * batch.nbytes
    tracemalloc.start()
    try:
        for x in streamed_layers(spec, GAUSS, Rng(39), batch, dtype):
            pass
        _, streamed_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        build_network(spec, GAUSS, Rng(39))
        _, built_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert streamed_peak < bound < built_peak, (streamed_peak, bound, built_peak)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_streamed_pass_frees_the_probe_once_layer_1_replaces_it(dtype, one_blas):
    # The pass keeps no reference to the probe after its first layer (a
    # float64 pass steps the probe itself, uncopied), so a caller that drops
    # its own frees it for the rest of the pass.
    spec = NetworkSpec(3, 8, 8, 0, ActivationKind.TANH)
    probe = Rng(40).normal(size=(16, 8))
    ref = weakref.ref(probe)
    pass_ = streamed_layers(spec, GAUSS, Rng(41), probe, dtype)
    del probe
    x_1 = next(pass_)
    assert ref() is None
    assert x_1.shape == (16, 8) and len([x_1, *pass_]) == 3


@pytest.fixture
def forks(monkeypatch):
    """Fan-outs see two CPUs and fork whatever their work, while the caller
    runs BLAS at two threads (its count is restored after the test); the
    returned list gets one entry per fork."""
    blas = cpus_module._openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS is not found, so every fan-out runs in-process")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cpus_module, "_FAN_OUT_FLOOR", 0)
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(2)
    try:
        yield forked
    finally:
        set_threads(threads)


@pytest.mark.parametrize("width", [16, 32, 50, 64, 100, 200, 300])
@pytest.mark.parametrize("kind", list(ActivationKind))
@pytest.mark.parametrize("init", [GAUSS, InitializerSpec(InitKind.HOUSEHOLDER)], ids=["gauss", "householder"])
def test_a_forked_pass_keeps_the_bits_of_one_blas_thread(width, kind, init, forks):
    # The same pass made by the parent and by a forked child of one fan-out,
    # while the caller runs two BLAS threads, steps at one BLAS thread and
    # has the bits of the pass made in-process at one thread: a probe pass's
    # bits depend on neither the CPU count nor the caller's BLAS thread
    # count, and the caller gets its count back.
    get_threads = cpus_module._openblas_threads()[0]
    spec = NetworkSpec(3, width, width, 0, kind)
    batch = Rng(42).normal(size=(1000, width))

    def pass_():
        return get_threads(), [x.tobytes() for x in streamed_layers(spec, init, Rng(43), batch)]

    with cpus_module.one_blas_thread():
        serial = pass_()
    assert serial[0] == 1
    assert list(cpus_module.fan_out([(1, pass_), (1, pass_)])) == [serial, serial]
    assert forks == [1]
    assert get_threads() == 2


@pytest.mark.parametrize("num_classes", [0, 3])
def test_backward_matches_finite_difference(num_classes):
    spec = NetworkSpec(3, 4, 3, num_classes, ActivationKind.TANH)
    state = build_network(spec, GAUSS, Rng(5))
    batch = Rng(6).normal(size=(2, 3))
    out_dim = num_classes if num_classes else 4
    g = Rng(7).normal(size=(2, out_dim))
    trace = forward(state, batch)
    grads = backward(state, trace, g)
    eps = 1e-6
    for l in range(spec.depth_L):
        w = state.weights[l]
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                w[i, j] += eps
                lp = total_loss(state, batch, g)
                w[i, j] -= 2 * eps
                lm = total_loss(state, batch, g)
                w[i, j] += eps
                assert grads.weights[l][i, j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)
        b = state.biases[l]
        for i in range(b.shape[0]):
            b[i] += eps
            lp = total_loss(state, batch, g)
            b[i] -= 2 * eps
            lm = total_loss(state, batch, g)
            b[i] += eps
            assert grads.biases[l][i] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)


def test_input_gradient_matches_finite_difference():
    spec = NetworkSpec(3, 4, 4, 0, ActivationKind.TANH)
    state = build_network(spec, GAUSS, Rng(8))
    batch = Rng(9).normal(size=(3, 4))
    g = Rng(10).normal(size=(3, 4))
    grads = backward(state, forward(state, batch), g)
    eps = 1e-6
    for n in range(3):
        for j in range(4):
            batch[n, j] += eps
            lp = total_loss(state, batch, g)
            batch[n, j] -= 2 * eps
            lm = total_loss(state, batch, g)
            batch[n, j] += eps
            assert grads.input_gradient[n, j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)


def test_householder_backward_through_network():
    spec = NetworkSpec(2, 4, 4, 0, ActivationKind.TANH)
    state = build_network(spec, InitializerSpec(InitKind.HOUSEHOLDER), Rng(11))
    assert state.stacks is not None
    batch = Rng(12).normal(size=(2, 4))
    g = Rng(13).normal(size=(2, 4))
    grads = backward(state, forward(state, batch), g)
    vector_grads = [householder_backward(state.stacks[l], grads.weights[l]) for l in range(2)]
    eps = 1e-6
    for l in range(2):
        vecs = state.stacks[l].vectors
        for i in range(4):
            for j in range(4):
                vecs[i, j] += eps
                state.rematerialize()
                lp = total_loss(state, batch, g)
                vecs[i, j] -= 2 * eps
                state.rematerialize()
                lm = total_loss(state, batch, g)
                vecs[i, j] += eps
                state.rematerialize()
                assert vector_grads[l][i, j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)


class TestJacobian:
    def test_matches_finite_difference(self):
        spec = NetworkSpec(3, 5, 5, 0, ActivationKind.TANH)
        state = build_network(spec, GAUSS, Rng(14))
        x0 = Rng(15).normal(size=5)
        j = jacobian(state, x0)
        assert j.shape == (5, 5)
        eps = 1e-6
        for col in range(5):
            xp, xm = x0.copy(), x0.copy()
            xp[col] += eps
            xm[col] -= eps
            fd = (forward(state, xp[None]).post[-1][0] - forward(state, xm[None]).post[-1][0]) / (2 * eps)
            assert np.allclose(j[:, col], fd, atol=1e-5)

    def test_linearization(self):
        # x_L(x0 + dx) - x_L(x0) ~= J dx for small dx
        spec = NetworkSpec(4, 6, 6, 0, ActivationKind.TANH)
        state = build_network(spec, GAUSS, Rng(16))
        x0 = Rng(17).normal(size=6) * 0.3
        j = jacobian(state, x0)
        dx = Rng(18).normal(size=6) * 1e-5
        lhs = forward(state, (x0 + dx)[None]).post[-1][0] - forward(state, x0[None]).post[-1][0]
        assert np.allclose(lhs, j @ dx, atol=1e-12, rtol=1e-3)

    def test_linear_network_is_weight_product(self):
        spec = NetworkSpec(3, 4, 4, 0, ActivationKind.LINEAR)
        state = build_network(spec, GAUSS, Rng(19))
        j = jacobian(state, np.zeros(4))
        assert np.allclose(j, state.weights[2] @ state.weights[1] @ state.weights[0], atol=1e-12)


def test_jacobian_of_a_stacked_state_names_run_state():
    spec = NetworkSpec(3, 5, 5, 0, ActivationKind.TANH)
    state = build_stack(spec, GAUSS, [Rng(19, (run,)) for run in range(2)])
    with pytest.raises(ValueError, match="run_state"):
        jacobian(state, np.zeros(5))
    assert jacobian(run_state(state, 1), np.zeros(5)).shape == (5, 5)


@pytest.mark.parametrize("num_classes", [0, 2])
@pytest.mark.parametrize("kind", list(InitKind))
def test_run_state_returns_each_run_bit_for_bit(kind, num_classes):
    # Each run taken out of a stack is the run build_network draws from its
    # rng, to the bit, and owns its arrays: writing to it leaves the stack as
    # it was.
    spec, init = NetworkSpec(3, 4, 4, num_classes, ActivationKind.TANH), InitializerSpec(kind, 1.1)
    rngs = [Rng(50, (run,)) for run in range(3)]
    runs = [build_network(spec, init, rng) for rng in rngs]
    state = build_stack(spec, init, rngs)
    batch = Rng(51).normal(size=(6, 4))
    for r, run in enumerate(runs):
        got = run_state(state, r)
        assert got.spec == spec
        pairs = [*zip(got.weights, run.weights, strict=True), *zip(got.biases, run.biases, strict=True)]
        if num_classes:
            pairs += [(got.readout_weight, run.readout_weight), (got.readout_bias, run.readout_bias)]
        else:
            assert got.readout_weight is None and got.readout_bias is None
        householder = [kind is InitKind.HOUSEHOLDER] * spec.depth_L
        assert [s is not None for s in got.stacks] == [s is not None for s in run.stacks] == householder
        for a, b in zip(got.stacks, run.stacks, strict=True):
            if a is not None:
                pairs.append((a.vectors, b.vectors))
        for a, b in pairs:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        whole = [*state.weights, *state.biases, *(s.vectors for s in state.stacks if s is not None)]
        assert not any(np.shares_memory(a, w) for a, _ in pairs for w in whole)
        assert output(got, batch).tobytes() == output(run, batch).tobytes()


@pytest.mark.parametrize("num_classes", [0, 2])
@pytest.mark.parametrize("kind", list(InitKind))
def test_build_stack_holds_each_run_built_alone(kind, num_classes):
    # Slice r of every stacked array has the bits build_network(spec, init,
    # rngs[r]) gives, and slice r of every Householder layer's WY factors
    # those that the run's reflection vectors form.
    spec, init = NetworkSpec(3, 4, 4, num_classes, ActivationKind.TANH), InitializerSpec(kind, 1.1)
    rngs = [Rng(56, (run,)) for run in range(3)]
    state = build_stack(spec, init, rngs)
    assert state.spec == spec
    for r, rng in enumerate(rngs):
        run = build_network(spec, init, rng)
        pairs = [(a[r], b) for a, b in zip(state.weights, run.weights, strict=True)]
        pairs += [(a[r, 0], b) for a, b in zip(state.biases, run.biases, strict=True)]
        if num_classes:
            pairs += [(state.readout_weight[r], run.readout_weight), (state.readout_bias[r, 0], run.readout_bias)]
        else:
            assert state.readout_weight is None and state.readout_bias is None
        householder = [kind is InitKind.HOUSEHOLDER] * spec.depth_L
        assert [s is not None for s in state.stacks] == [s is not None for s in run.stacks] == householder
        for a, b in zip(state.stacks, run.stacks, strict=True):
            if a is not None:
                pairs += [(a.vectors[r], b.vectors), *((x[r], y) for x, y in zip(a.factors, _wy_factors(b.vectors), strict=True))]
        for a, b in pairs:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", list(InitKind))
def test_stacked_forward_and_backward_equal_each_run_alone(kind):
    # A stacked state applied to one batch per run, or to one batch that all
    # runs share, gives each run's own activations, logits and gradients.
    spec, init = NetworkSpec(3, 5, 4, 2, ActivationKind.TANH), InitializerSpec(kind, 1.1)
    rngs = [Rng(52, (run,)) for run in range(3)]
    runs = [build_network(spec, init, rng) for rng in rngs]
    batches = Rng(53).normal(size=(3, 6, 4))
    g_out = Rng(54).normal(size=(3, 6, 2))
    alone = []
    for run, batch, g in zip(runs, batches, g_out):
        trace = forward(run, batch)
        alone.append((trace, backward(run, trace, g)))
    state = build_stack(spec, init, rngs)
    trace = forward(state, batches)
    grads = backward(state, trace, g_out)
    for r, (t, gr) in enumerate(alone):
        assert np.allclose(trace.logits[r], t.logits, rtol=0, atol=1e-12)
        assert all(np.allclose(a[r], b, rtol=0, atol=1e-12) for a, b in zip(trace.post, t.post, strict=True))
        assert all(np.allclose(a[r], b, rtol=0, atol=1e-12) for a, b in zip(grads.weights, gr.weights, strict=True))
        assert all(np.allclose(a[r], b, rtol=0, atol=1e-12) for a, b in zip(grads.biases, gr.biases, strict=True))
        for l, (a, b) in enumerate(zip(state.stacks, runs[r].stacks, strict=True)):
            assert (a is None) == (b is None)
            if a is not None:
                got = householder_backward(a, grads.weights[l])[r]
                assert np.allclose(got, householder_backward(b, gr.weights[l]), rtol=0, atol=1e-12)
        assert np.allclose(grads.readout_weight[r], gr.readout_weight, rtol=0, atol=1e-12)
        assert np.allclose(grads.input_gradient[r], gr.input_gradient, rtol=0, atol=1e-12)
    shared = output(state, batches[0])
    assert shared.shape == (3, 6, 2)
    for r, run in enumerate(runs):
        assert np.allclose(shared[r], output(run, batches[0]), rtol=0, atol=1e-12)


def test_stacked_state_refuses_a_batch_for_another_number_of_runs():
    spec = NetworkSpec(2, 4, 3, 0, ActivationKind.TANH)
    state = build_stack(spec, GAUSS, [Rng(55, (run,)) for run in range(3)])
    with pytest.raises(ValueError, match=r"batch must be \(n, 3\) or \(3, n, 3\), got \(2, 5, 3\)"):
        forward(state, np.zeros((2, 5, 3)))
    with pytest.raises(ValueError, match=r"got \(3, 5, 4\)"):
        output(state, np.zeros((3, 5, 4)))


@pytest.mark.parametrize("stacked", [False, True], ids=["network", "stack"])
@pytest.mark.parametrize("kind", list(ActivationKind))
def test_one_row_bias_gradient_is_the_reduced_one(kind, stacked):
    # For one row, backward makes phi'(h) g in the bias gradient's array
    # instead of summing it over the rows: the bias gradients of a
    # straight-line loop that sums, from the same trace.
    spec = NetworkSpec(3, 6, 4, 3, kind)
    rngs = [Rng(59, (run,)) for run in range(2)]
    state = build_stack(spec, GAUSS, rngs) if stacked else build_network(spec, GAUSS, rngs[0])
    lead = (2,) if stacked else ()
    trace = forward(state, Rng(60).normal(size=(*lead, 1, 4)))
    g = Rng(61).normal(size=(*lead, 1, 3))
    got = backward(state, trace, g).biases
    g = g @ state.readout_weight
    for l in range(spec.depth_L - 1, -1, -1):
        gh = act_derivative(kind, trace.post[l]) * g
        want = gh.sum(axis=-2, keepdims=stacked)
        assert got[l].shape == want.shape and np.array_equal(got[l], want)
        g = gh @ state.weights[l]


def _views_of_one_buffer(grads: Gradients) -> Gradients:
    """Arrays shaped like ``grads``' parameter gradients, NaN-filled views
    of one buffer, each starting one float past a 64-byte boundary."""
    arrays = [*grads.weights, *grads.biases, grads.readout_weight, grads.readout_bias]
    buf = np.full(sum(a.size for a in arrays) + 1, np.nan)
    ends = np.cumsum([1] + [a.size for a in arrays]).tolist()
    views = [buf[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends[1:])]
    depth = len(grads.weights)
    return Gradients(views[:depth], views[depth : 2 * depth], *views[2 * depth :], None)


@pytest.mark.parametrize("stacked", [False, True], ids=["network", "stack"])
@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("kind", list(InitKind))
def test_backward_into_out_has_the_bits_of_the_allocating_backward(kind, rows, stacked):
    # backward(..., out=) writes each gradient into views of one buffer and
    # returns them with the input gradient: the bits of the arrays that
    # backward allocates, at batch 1 (broadcast products) and above.
    spec, init = NetworkSpec(3, 6, 4, 3, ActivationKind.TANH), InitializerSpec(kind, 1.1)
    rngs = [Rng(56, (run,)) for run in range(3)]
    state = build_stack(spec, init, rngs) if stacked else build_network(spec, init, rngs[0])
    lead = (3,) if stacked else ()
    trace = forward(state, Rng(57).normal(size=(*lead, rows, 4)))
    g_out = Rng(58).normal(size=(*lead, rows, 3))
    want = backward(state, trace, g_out)
    out = _views_of_one_buffer(want)
    views = [*out.weights, *out.biases, out.readout_weight, out.readout_bias]
    got = backward(state, trace, g_out, out=out)
    assert got is out
    have = [*got.weights, *got.biases, got.readout_weight, got.readout_bias, got.input_gradient]
    wanted = [*want.weights, *want.biases, want.readout_weight, want.readout_bias, want.input_gradient]
    assert all(a is b for a, b in zip(have, views))
    for a, b in zip(have, wanted, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "case, phrase",
    [
        ("depth", "depth_L, width_N and input_dim must be >= 1"),
        ("width", "depth_L, width_N and input_dim must be >= 1"),
        ("input_dim", "depth_L, width_N and input_dim must be >= 1"),
        ("num_classes", "num_classes must be >= 0"),
        ("jacobian_x0", "x0 must have length 3"),
        ("trace_depth", "trace does not match network state"),
        ("trace_rows", "trace does not match network state"),
        ("loss_grad_readout", "loss gradient must be (5, 2), got (5, 4)"),
        ("loss_grad_headless", "loss gradient must be (5, 4), got (5, 2)"),
    ],
)
def test_bad_input_raises_a_value_error_that_names_it(case, phrase):
    nets = {k: build_network(NetworkSpec(2, 4, 3, k, ActivationKind.TANH), GAUSS, Rng(70)) for k in (0, 2)}
    x = Rng(71).normal(size=(5, 3))
    traces = {k: forward(n, x) for k, n in nets.items()}
    calls = {
        "depth": lambda: NetworkSpec(0, 4, 3),
        "width": lambda: NetworkSpec(2, 0, 3),
        "input_dim": lambda: NetworkSpec(2, 4, 0),
        "num_classes": lambda: NetworkSpec(2, 4, 3, -1),
        "jacobian_x0": lambda: jacobian(nets[0], np.zeros(4)),
        "trace_depth": lambda: backward(nets[0], network.ForwardTrace(x, traces[0].post[1:]), np.zeros((5, 4))),
        "trace_rows": lambda: backward(nets[0], network.ForwardTrace(x[1:], traces[0].post), np.zeros((5, 4))),
        "loss_grad_readout": lambda: backward(nets[2], traces[2], np.zeros((5, 4))),
        "loss_grad_headless": lambda: backward(nets[0], traces[0], np.zeros((5, 2))),
    }
    with pytest.raises(ValueError, match=re.escape(phrase)):
        calls[case]()
