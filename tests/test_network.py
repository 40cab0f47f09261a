import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vannodes.activations import ActivationKind, apply as act_apply
from vannodes.initializers import InitKind, InitializerSpec
from vannodes.linalg import Rng
from vannodes.network import (
    NetworkSpec,
    backward,
    build_network,
    forward,
    jacobian,
    layers,
    load_checkpoint,
    output,
    run_state,
    save_checkpoint,
    stack_states,
)

GAUSS = InitializerSpec(InitKind.SCALED_GAUSSIAN, 1.2)
UNUSABLE_FLOAT_BYTES = [struct.pack("<d", x) for x in (np.nan, np.inf, -np.inf, 0.0, 5e-324, 1e-161, 1e160)]


def forward_oracle(state, batch):
    """Straight-line reimplementation, one sample at a time."""
    outs = []
    for x in batch:
        v = x.copy()
        for w, b in zip(state.weights, state.biases):
            h = np.array([float(w[i] @ v) + b[i] for i in range(w.shape[0])])
            v = act_apply(state.spec.activation, h)
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
    assert (state.stacks is not None) == (init.kind is InitKind.HOUSEHOLDER)
    batch = Rng(31).normal(size=(9, input_dim))
    before = batch.copy()
    got = output(state, batch)
    t = forward(state, batch)
    assert np.array_equal(got, t.logits if num_classes else t.post[-1])
    assert np.array_equal(batch, before)


@pytest.mark.parametrize("kind", list(ActivationKind))
@pytest.mark.parametrize("init", [GAUSS, InitializerSpec(InitKind.HOUSEHOLDER)], ids=["gauss", "householder"])
def test_layers_equal_forward_post(kind, init):
    state = build_network(NetworkSpec(4, 6, 6, 3, kind), init, Rng(32))
    batch = Rng(33).normal(size=(9, 6))
    before = batch.copy()
    got = list(layers(state, batch))  # every yielded array stays valid
    post = forward(state, batch).post
    assert len(got) == len(post)
    assert all(np.array_equal(a, b) for a, b in zip(got, post))
    assert np.array_equal(batch, before)


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


def test_output_validates_like_forward():
    state = build_network(NetworkSpec(2, 5, 3, 4, ActivationKind.RELU), GAUSS, Rng(3))
    for bad in (Rng(4).normal(size=(7, 2)), Rng(4).normal(size=3)):
        with pytest.raises(ValueError) as from_forward:
            forward(state, bad)
        with pytest.raises(ValueError) as from_output:
            output(state, bad)
        assert str(from_output.value) == str(from_forward.value)


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
                assert grads.stacks[l][i, j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)


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
    state = stack_states([build_network(spec, GAUSS, Rng(19, (run,))) for run in range(2)])
    with pytest.raises(ValueError, match="run_state"):
        jacobian(state, np.zeros(5))
    assert jacobian(run_state(state, 1), np.zeros(5)).shape == (5, 5)


HOUSEHOLDER = InitializerSpec(InitKind.HOUSEHOLDER)


@pytest.mark.parametrize(
    "first, second, match",
    [
        (GAUSS, (ActivationKind.RELU, 2, GAUSS), "activation ActivationKind.RELU, run 0 has ActivationKind.TANH"),
        (GAUSS, (ActivationKind.TANH, 3, GAUSS), "num_classes 3, run 0 has 2"),
        (GAUSS, (ActivationKind.TANH, 2, HOUSEHOLDER), "layer 1 is dense in run 0 and Householder in run 1"),
        (HOUSEHOLDER, (ActivationKind.TANH, 2, GAUSS), "layer 1 is Householder in run 0 and dense in run 1"),
    ],
    ids=["activation", "num_classes", "dense-then-householder", "householder-then-dense"],
)
def test_stack_states_names_what_differs(first, second, match):
    kind, classes, init = second
    runs = [
        build_network(NetworkSpec(3, 4, 4, 2, ActivationKind.TANH), first, Rng(40)),
        build_network(NetworkSpec(3, 4, 4, classes, kind), init, Rng(41)),
    ]
    with pytest.raises(ValueError, match=match):
        stack_states(runs)


class TestCheckpoint:
    def test_stacked_state_is_not_written(self, tmp_path):
        spec = NetworkSpec(2, 3, 3, 2, ActivationKind.TANH)
        state = stack_states([build_network(spec, HOUSEHOLDER, Rng(23, (run,))) for run in range(2)])
        p = tmp_path / "net.ckpt"
        with pytest.raises(ValueError, match="run_state"):
            save_checkpoint(state, p)
        assert not p.exists()
        save_checkpoint(run_state(state, 1), p)
        assert load_checkpoint(p).stacks[0].vectors.tobytes() == state.stacks[0].vectors[1].tobytes()

    def test_round_trip(self, tmp_path):
        spec = NetworkSpec(3, 6, 4, 5, ActivationKind.HARD_TANH)
        state = build_network(spec, GAUSS, Rng(20))
        p = tmp_path / "net.ckpt"
        save_checkpoint(state, p)
        loaded = load_checkpoint(p)
        assert loaded.spec == spec
        for a, b in zip(loaded.weights, state.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.biases, state.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.readout_weight, state.readout_weight)
        x = Rng(21).normal(size=(3, 4))
        assert np.array_equal(forward(loaded, x).logits, forward(state, x).logits)

    def test_round_trip_householder(self, tmp_path):
        spec = NetworkSpec(2, 5, 5, 0, ActivationKind.TANH)
        state = build_network(spec, InitializerSpec(InitKind.HOUSEHOLDER), Rng(22))
        p = tmp_path / "net.ckpt"
        save_checkpoint(state, p)
        loaded = load_checkpoint(p)
        assert loaded.stacks is not None
        for a, b in zip(loaded.stacks, state.stacks):
            assert np.array_equal(a.vectors, b.vectors)
        assert np.allclose(loaded.weights[0], state.weights[0], atol=1e-15)

    def test_magic_check(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_truncated(self, tmp_path):
        spec = NetworkSpec(2, 4, 4, 0, ActivationKind.TANH)
        state = build_network(spec, GAUSS, Rng(23))
        p = tmp_path / "net.ckpt"
        save_checkpoint(state, p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_truncated_header(self, tmp_path):
        spec = NetworkSpec(2, 4, 4, 0, ActivationKind.TANH)
        p = tmp_path / "net.ckpt"
        save_checkpoint(build_network(spec, GAUSS, Rng(23)), p)
        p.write_bytes(p.read_bytes()[:14])  # magic + part of the 22-byte header
        with pytest.raises(ValueError, match="header"):
            load_checkpoint(p)

    def test_unknown_activation_code(self, tmp_path):
        spec = NetworkSpec(2, 4, 4, 0, ActivationKind.TANH)
        p = tmp_path / "net.ckpt"
        save_checkpoint(build_network(spec, GAUSS, Rng(23)), p)
        raw = bytearray(p.read_bytes())
        raw[4 + 20] = 200  # activation code byte, after magic and five uint32 fields
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="activation code"):
            load_checkpoint(p)

    def _dense(self, tmp_path):
        p = tmp_path / "net.ckpt"
        save_checkpoint(build_network(NetworkSpec(2, 4, 4, 0, ActivationKind.TANH), GAUSS, Rng(23)), p)
        return p, bytearray(p.read_bytes())

    def test_reflections_without_householder_flag(self, tmp_path):
        p, raw = self._dense(tmp_path)
        raw[4 + 22] = ord("H")  # layer 1 tag, after magic and header
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="layer 1 holds reflections"):
            load_checkpoint(p)

    def test_array_shape_against_header(self, tmp_path):
        # a 2x8 layer-1 weight where the header's spec gives 4x4: same size
        p, raw = self._dense(tmp_path)
        raw[4 + 22 + 1 + 4 : 4 + 22 + 1 + 12] = struct.pack("<II", 2, 8)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"layer 1 weight is stored as \(2, 8\)"):
            load_checkpoint(p)

    def test_non_finite_reflection_vector_names_the_layer(self, tmp_path):
        p = tmp_path / "net.ckpt"
        spec = NetworkSpec(2, 4, 4, 0, ActivationKind.TANH)
        save_checkpoint(build_network(spec, InitializerSpec(InitKind.HOUSEHOLDER), Rng(23)), p)
        raw = bytearray(p.read_bytes())
        # layer 2's vectors: after magic, header, layer 1 (tag, 4x4 array, bias) and layer 2's tag and shape
        start = 4 + 22 + (1 + 12 + 128 + 8 + 32) + 1 + 12
        raw[start : start + 8] = struct.pack("<d", float("nan"))
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="layer 2 reflection vectors: reflection vectors must be finite"):
            load_checkpoint(p)

    @pytest.mark.parametrize("init", [GAUSS, InitializerSpec(InitKind.HOUSEHOLDER)], ids=["dense", "householder"])
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_prefix_or_mutation_loads_or_raises_value_error(self, init, data, tmp_path):
        # Loading materializes the reflections with a linear solve, so a
        # corrupt stack must surface as ValueError, never as LinAlgError.
        p = tmp_path / "net.ckpt"
        save_checkpoint(build_network(NetworkSpec(2, 4, 4, 2, ActivationKind.TANH), init, Rng(23)), p)
        raw = bytearray(p.read_bytes())
        if data.draw(st.booleans(), label="cut"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="prefix")]
        else:
            # single random bytes, or the 8 bytes of a float no reflection can use
            patches = st.one_of(st.binary(min_size=1, max_size=1), st.sampled_from(UNUSABLE_FLOAT_BYTES))
            edits = st.tuples(st.integers(0, len(raw) - 1), patches)
            for i, patch in data.draw(st.lists(edits, min_size=1, max_size=8), label="mutations"):
                patch = patch[: len(raw) - i]
                raw[i : i + len(patch)] = patch
        p.write_bytes(bytes(raw))
        try:
            state = load_checkpoint(p)
        except ValueError:
            return
        spec = state.spec
        assert [w.shape for w in state.weights] == [(spec.width_N, spec.fan_in(l)) for l in range(spec.depth_L)]
        for stack, w in zip(state.stacks or [], state.weights):
            if stack is not None:
                assert np.abs(w.T @ w - np.eye(spec.width_N)).max() <= 1e-12

    @pytest.mark.parametrize("init", [GAUSS, InitializerSpec(InitKind.HOUSEHOLDER)], ids=["dense", "householder"])
    def test_every_prefix_and_byte_flip(self, init, tmp_path):
        # Every cut and every single-byte flip (three masks) either loads
        # arrays of the shapes its own header gives or raises ValueError:
        # no other exception, and no allocation the file's size does not back.
        p = tmp_path / "net.ckpt"
        save_checkpoint(build_network(NetworkSpec(2, 4, 4, 2, ActivationKind.TANH), init, Rng(23)), p)
        raw = p.read_bytes()
        variants = [raw[:cut] for cut in range(len(raw))]
        for i in range(len(raw)):
            for mask in (0x01, 0x80, 0xFF):
                flipped = bytearray(raw)
                flipped[i] ^= mask
                variants.append(bytes(flipped))
        loaded = 0
        for data in variants:
            p.write_bytes(data)
            try:
                state = load_checkpoint(p)
            except ValueError:
                continue
            loaded += 1
            spec = state.spec
            assert [w.shape for w in state.weights] == [(spec.width_N, spec.fan_in(l)) for l in range(spec.depth_L)]
            assert [b.shape for b in state.biases] == [(spec.width_N,)] * spec.depth_L
            assert state.readout_weight.shape == (spec.num_classes, spec.width_N)
            assert state.readout_bias.shape == (spec.num_classes,)
            for stack in state.stacks or []:
                assert stack is None or stack.vectors.shape == (spec.width_N, spec.width_N)
        assert loaded > 0  # flips of the float data load
