"""Feed-forward backbone: forward pass, back-propagation, input-output
Jacobian, and a binary checkpoint format.

The backbone is L layers of width N (layer 1 may be rectangular when
input_dim != N); an optional linear readout maps to num_classes.  Node
statistics (VNI etc.) are always taken at backbone layer L, before the
readout.

``layers`` is the one loop over the layers: ``output`` reads its last
post-activation and ``forward`` keeps them all.  Back-propagation and the
Jacobian read phi'(h_l) from the post-activations x_l alone
(``activations.derivative``), so no pre-activation is stored.

A state may also hold R networks of one spec stacked along a leading run
axis (``stack_states``), so that one call steps them all: ``forward``,
``layers``, ``output`` and ``backward`` then take an R x n x d batch, or an
n x d batch that every run sees, and work on each run's slice as they do on
a single network, bit for bit.  ``run_state`` is the one way a run leaves a
stack: it copies the run's arrays out.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import activations as act
from .activations import ActivationKind
from .initializers import (
    HouseholderStack,
    InitializerSpec,
    InitKind,
    householder_backward,
    householder_materialize,
    init_scaled,
    init_weight,
)
from .linalg import Rng

__all__ = [
    "NetworkSpec",
    "NetworkState",
    "ForwardTrace",
    "Gradients",
    "build_network",
    "stack_states",
    "run_state",
    "headless",
    "forward",
    "layers",
    "output",
    "backward",
    "jacobian",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"VNLB"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetworkSpec:
    depth_L: int
    width_N: int
    input_dim: int
    num_classes: int = 0  # 0 = no readout head
    activation: ActivationKind = ActivationKind.TANH

    def __post_init__(self):
        if self.depth_L < 1 or self.width_N < 1 or self.input_dim < 1:
            raise ValueError("depth_L, width_N and input_dim must be >= 1")
        if self.num_classes < 0:
            raise ValueError("num_classes must be >= 0")

    def fan_in(self, layer: int) -> int:
        return self.input_dim if layer == 0 else self.width_N


@dataclass
class NetworkState:
    """One network; in a stacked state every array has a leading run axis of
    length R, and each bias is R x 1 x its length, so that it broadcasts
    over a batch."""

    spec: NetworkSpec
    weights: list  # L materialized matrices (layer l: width_N x fan_in)
    biases: list  # L vectors of length width_N, zero at init
    stacks: list | None = None  # per layer: HouseholderStack or None
    readout_weight: np.ndarray | None = None  # num_classes x width_N
    readout_bias: np.ndarray | None = None

    def rematerialize(self):
        """Refresh materialized weights from Householder stacks after an
        update to the reflection vectors."""
        if self.stacks is None:
            return
        for l, stack in enumerate(self.stacks):
            if stack is not None:
                self.weights[l] = householder_materialize(stack)


@dataclass
class ForwardTrace:
    inputs: np.ndarray  # batch x input_dim (x_0)
    post: list  # x_1..x_L, each batch x width_N
    logits: np.ndarray | None = None


@dataclass
class Gradients:
    weights: list  # dLoss/dW_l for the materialized matrices
    biases: list
    stacks: list | None  # per layer: reflection-vector gradients or None
    readout_weight: np.ndarray | None
    readout_bias: np.ndarray | None
    input_gradient: np.ndarray  # dLoss/dx_0, batch x input_dim


def build_network(spec: NetworkSpec, init: InitializerSpec, rng: Rng) -> NetworkState:
    """Initialize all layers from an InitializerSpec; biases start at zero.

    For the Householder initializer, square backbone layers are stored as
    reflection stacks and stay exactly orthogonal under training updates.
    """
    weights, stacks = [], []
    any_stack = False
    for l in range(spec.depth_L):
        w = init_weight(init, spec.fan_in(l), spec.width_N, rng.spawn(l))
        if isinstance(w, HouseholderStack):
            stacks.append(w)
            weights.append(householder_materialize(w))
            any_stack = True
        else:
            stacks.append(None)
            weights.append(w)
    biases = [np.zeros(spec.width_N) for _ in range(spec.depth_L)]
    readout_w = readout_b = None
    if spec.num_classes > 0:
        readout_w = init_scaled(
            InitKind.SCALED_GAUSSIAN, spec.width_N, spec.num_classes, 1.0, rng.spawn(spec.depth_L)
        )
        readout_b = np.zeros(spec.num_classes)
    return NetworkState(
        spec=spec,
        weights=weights,
        biases=biases,
        stacks=stacks if any_stack else None,
        readout_weight=readout_w,
        readout_bias=readout_b,
    )


def stack_states(states: list) -> NetworkState:
    """The networks ``states``, of one spec and one kind of layers, as one
    state of copies stacked along a leading run axis."""
    first = states[0]
    stacks, readout = None, [None, None]
    if first.stacks is not None:
        stacks = [
            None if s is None else HouseholderStack.unchecked(np.stack([t.stacks[l].vectors for t in states]))
            for l, s in enumerate(first.stacks)
        ]
    if first.spec.num_classes > 0:
        readout = [np.stack([s.readout_weight for s in states]), np.stack([s.readout_bias for s in states])[:, None]]
    weights = [np.stack(layer) for layer in zip(*(s.weights for s in states))]
    biases = [np.stack(layer)[:, None] for layer in zip(*(s.biases for s in states))]
    return NetworkState(first.spec, weights, biases, stacks, *readout)


def run_state(state: NetworkState, r: int) -> NetworkState:
    """Run ``r`` of a stacked state as a single network that owns copies of
    its arrays, so that it holds nothing of the stack alive."""
    stacks = None
    if state.stacks is not None:
        stacks = [None if s is None else HouseholderStack.unchecked(s.vectors[r].copy()) for s in state.stacks]
    readout = [None, None]
    if state.spec.num_classes > 0:
        readout = [state.readout_weight[r].copy(), state.readout_bias[r, 0].copy()]
    weights = [w[r].copy() for w in state.weights]
    return NetworkState(state.spec, weights, [b[r, 0].copy() for b in state.biases], stacks, *readout)


def headless(state: NetworkState) -> NetworkState:
    """View of a network without the readout head; node statistics are taken
    at backbone layer L."""
    if state.spec.num_classes == 0:
        return state
    return replace(state, spec=replace(state.spec, num_classes=0), readout_weight=None, readout_bias=None)


def _as_batch(state: NetworkState, batch: np.ndarray) -> np.ndarray:
    """An n x input_dim batch, or for a stacked state also R x n x input_dim."""
    d = state.spec.input_dim
    runs = state.weights[0].shape[:-2]
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != d or x.shape[:-2] not in ((), runs):
        shapes = f"(n, {d})" + (f" or ({runs[0]}, n, {d})" if runs else "")
        raise ValueError(f"batch must be {shapes}, got {x.shape}")
    return x


def forward(state: NetworkState, batch: np.ndarray) -> ForwardTrace:
    """Forward pass keeping every layer's post-activation, which
    back-propagation and the Jacobian read."""
    x = _as_batch(state, batch)
    trace = ForwardTrace(inputs=x, post=list(layers(state, x)))
    if state.spec.num_classes > 0:
        trace.logits = trace.post[-1] @ state.readout_weight.swapaxes(-1, -2) + state.readout_bias
    return trace


def layers(state: NetworkState, batch: np.ndarray):
    """Yield the post-activations x_1..x_L of the backbone, keeping no
    per-layer trace: each layer is computed in place into a fresh array, so
    at most two activation arrays are alive while the caller holds only the
    latest."""
    spec = state.spec
    x = _as_batch(state, batch)
    for w, b in zip(state.weights, state.biases):
        h = x @ w.swapaxes(-1, -2)
        h += b
        x = act.apply(spec.activation, h, out=h)
        yield x


def output(state: NetworkState, batch: np.ndarray) -> np.ndarray:
    """The logits, or x_L when there is no readout, read from ``layers``."""
    spec = state.spec
    for x in layers(state, batch):
        pass
    if spec.num_classes > 0:
        return x @ state.readout_weight.swapaxes(-1, -2) + state.readout_bias
    return x


def _batch_outer(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g^T x over the batch rows.  For a batch of one row this is the
    broadcast product: the same values (a zero may differ in sign, which no
    update of a nonzero parameter sees), which makes a batch-1 layer-step
    1-13% faster at N = 32..100 than numpy's matmul of inner dimension 1
    (``BENCH_stacked_runs.json``)."""
    if g.shape[-2] == 1:
        return g.swapaxes(-1, -2) * x
    return g.swapaxes(-1, -2) @ x


def backward(state: NetworkState, trace: ForwardTrace, loss_grad_at_output: np.ndarray) -> Gradients:
    """Back-propagate a loss gradient (w.r.t. logits if a readout exists,
    otherwise w.r.t. x_L) to all parameters and to the input."""
    spec = state.spec
    g = np.asarray(loss_grad_at_output, dtype=np.float64)
    if len(trace.post) != spec.depth_L or trace.post[0].shape[-2] != trace.inputs.shape[-2]:
        raise ValueError("trace does not match network state")
    rows = trace.post[-1].shape[:-1]
    readout_gw = readout_gb = None
    if spec.num_classes > 0:
        if g.shape != (*rows, spec.num_classes):
            raise ValueError(f"loss gradient must be {(*rows, spec.num_classes)}, got {g.shape}")
        readout_gw = _batch_outer(g, trace.post[-1])
        readout_gb = g.sum(axis=-2, keepdims=g.ndim == 3)
        g = g @ state.readout_weight
    elif g.shape != (*rows, spec.width_N):
        raise ValueError(f"loss gradient must be {(*rows, spec.width_N)}, got {g.shape}")
    weight_grads = [None] * spec.depth_L
    bias_grads = [None] * spec.depth_L
    stack_grads = [None] * spec.depth_L if state.stacks is not None else None
    for l in range(spec.depth_L - 1, -1, -1):
        gh = g * act.derivative(spec.activation, trace.post[l])
        x_prev = trace.inputs if l == 0 else trace.post[l - 1]
        gw = _batch_outer(gh, x_prev)
        weight_grads[l] = gw
        bias_grads[l] = gh.sum(axis=-2, keepdims=gh.ndim == 3)
        if state.stacks is not None and state.stacks[l] is not None:
            stack_grads[l] = householder_backward(state.stacks[l], gw)
        g = gh @ state.weights[l]
    return Gradients(
        weights=weight_grads,
        biases=bias_grads,
        stacks=stack_grads,
        readout_weight=readout_gw,
        readout_bias=readout_gb,
        input_gradient=g,
    )


def jacobian(state: NetworkState, x0: np.ndarray) -> np.ndarray:
    """Input-output Jacobian of the backbone at x0: the ordered product of
    diag(phi'(h_l)) W_l, read from the post-activations (readout excluded)."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape[0] != state.spec.input_dim:
        raise ValueError(f"x0 must have length {state.spec.input_dim}")
    j = None
    for w, x in zip(state.weights, layers(state, x0[None, :])):
        dw = act.derivative(state.spec.activation, x[0])[:, None] * w
        j = dw if j is None else dw @ j
    return j


# -- checkpointing -----------------------------------------------------------

_ACT_CODES = {k: i for i, k in enumerate(ActivationKind)}
_ACT_FROM_CODE = {i: k for k, i in _ACT_CODES.items()}


def _write_array(f, a: np.ndarray):
    a = np.ascontiguousarray(a, dtype="<f8")
    f.write(struct.pack("<I", a.ndim))
    f.write(struct.pack(f"<{a.ndim}I", *a.shape))
    f.write(a.tobytes())


def _unpack(f, fmt: str, what: str) -> tuple:
    size = struct.calcsize(fmt)
    raw = f.read(size)
    if len(raw) != size:
        raise ValueError(f"truncated checkpoint file: {what} is cut short")
    return struct.unpack(fmt, raw)


def _read_array(f, shape: tuple, what: str) -> np.ndarray:
    """Read one array that the header's spec says is ``shape``.  Its stored
    shape is checked before its data is read, and the data's size against the
    bytes left in the file, so a corrupt size never allocates."""
    (ndim,) = _unpack(f, "<I", f"{what} header")
    if ndim != len(shape):
        raise ValueError(f"corrupt checkpoint: {what} has {ndim} dimensions, the header's spec gives {len(shape)}")
    stored = _unpack(f, f"<{ndim}I", f"{what} shape")
    if stored != shape:
        raise ValueError(f"corrupt checkpoint: {what} is stored as {stored}, the header's spec gives {shape}")
    size = 8 * math.prod(shape)
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size > left:
        raise ValueError(f"truncated checkpoint file: {what} needs {size} bytes, {left} are left")
    return np.frombuffer(f.read(size), dtype="<f8").reshape(shape).astype(np.float64)


def save_checkpoint(state: NetworkState, path):
    """Binary layout: magic "VNLB", version, spec fields, then row-major
    little-endian float64 arrays (stacks store reflection vectors)."""
    spec = state.spec
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(
            struct.pack(
                "<IIIIIBB",
                CHECKPOINT_VERSION,
                spec.depth_L,
                spec.width_N,
                spec.input_dim,
                spec.num_classes,
                _ACT_CODES[spec.activation],
                state.stacks is not None,
            )
        )
        for l in range(spec.depth_L):
            if state.stacks is not None and state.stacks[l] is not None:
                f.write(b"H")
                _write_array(f, state.stacks[l].vectors)
            else:
                f.write(b"D")
                _write_array(f, state.weights[l])
            _write_array(f, state.biases[l])
        if spec.num_classes > 0:
            _write_array(f, state.readout_weight)
            _write_array(f, state.readout_bias)


def load_checkpoint(path) -> NetworkState:
    """Load a checkpoint written by ``save_checkpoint``.  Every array is
    checked against the shape the header's spec gives; a corrupt or
    truncated file raises ``ValueError`` naming the part at fault."""
    with open(path, "rb") as f:
        if f.read(4) != CHECKPOINT_MAGIC:
            raise ValueError("not a network checkpoint (bad magic bytes)")
        version, depth, width, input_dim, num_classes, act_code, householder = _unpack(
            f, "<IIIIIBB", "header"
        )
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if act_code not in _ACT_FROM_CODE:
            raise ValueError(f"corrupt checkpoint: unknown activation code {act_code}")
        if householder not in (0, 1):
            raise ValueError(f"corrupt checkpoint: Householder flag {householder}")
        spec = NetworkSpec(depth, width, input_dim, num_classes, _ACT_FROM_CODE[act_code])
        weights, biases, stacks = [], [], []
        for l in range(depth):
            tag = f.read(1)
            shape = (width, spec.fan_in(l))
            if tag == b"H" and householder:
                vectors = _read_array(f, shape, f"layer {l + 1} reflection vectors")
                try:
                    stack = HouseholderStack(vectors)
                except ValueError as e:
                    raise ValueError(f"corrupt checkpoint: layer {l + 1} reflection vectors: {e}") from None
                stacks.append(stack)
                weights.append(householder_materialize(stack))
            elif tag == b"D":
                stacks.append(None)
                weights.append(_read_array(f, shape, f"layer {l + 1} weight"))
            elif tag == b"H":
                raise ValueError(f"corrupt checkpoint: layer {l + 1} holds reflections but the Householder flag is 0")
            else:
                raise ValueError(f"corrupt checkpoint: unknown tag {tag!r} for layer {l + 1}")
            biases.append(_read_array(f, (width,), f"layer {l + 1} bias"))
        readout_w = readout_b = None
        if num_classes > 0:
            readout_w = _read_array(f, (num_classes, width), "readout weight")
            readout_b = _read_array(f, (num_classes,), "readout bias")
        if f.read(1):
            raise ValueError("corrupt checkpoint: bytes left after the last array")
    return NetworkState(
        spec=spec,
        weights=weights,
        biases=biases,
        stacks=stacks if householder else None,
        readout_weight=readout_w,
        readout_bias=readout_b,
    )
