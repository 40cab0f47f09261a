"""Feed-forward backbone: forward pass, back-propagation and input-output
Jacobian.

The backbone is L layers of width N (layer 1 may be rectangular when
input_dim != N); an optional linear readout maps to num_classes.  Node
statistics (VNI etc.) are always taken at backbone layer L, before the
readout.  A state's ``stacks`` has one entry per layer: the reflection
stack of a Householder layer, None for a dense one.

``_layers`` is the one loop over layers, for built, stacked and streamed
networks alike.  ``layers`` yields a built network's post-activations,
``output`` reads the last of them and ``forward`` keeps them all.
``streamed_layers`` steps a network it draws one layer at a time, in float32
or float64, for a probe pass that needs no network afterwards: it holds at
most two layers' weights instead of L, and steps them in the calling thread.
Back-propagation and the Jacobian read phi'(h_l) from the post-activations
x_l alone (``activations.derivative``), so no pre-activation is stored.

``backward`` forms no reflection-vector gradient: training maps each
Householder layer's weight gradient to one (``householder_backward``).
Given ``out=``, it writes the parameter gradients into the caller's arrays
(training's views of one gradient buffer) instead of allocating them; for a
batch of one row it makes each layer's phi'(h) g in its bias gradient's
array, which for one row is that gradient.

A state may also hold R networks of one spec stacked along a leading run
axis, so that one call steps them all: ``forward``, ``layers``, ``output``
and ``backward`` then take an R x n x d batch, or an n x d batch that every
run sees, and work on each run's slice as they do on a single network, bit
for bit.  ``build_stack`` draws such a state (``build_network`` is its
one-run case), ``_rows`` keeps some of its runs, and ``run_state`` is the
one way a run leaves it: it copies the run's arrays out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import activations as act
from .activations import ActivationKind
from .initializers import (
    HouseholderStack,
    InitializerSpec,
    InitKind,
    WYFactors,
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
    "build_stack",
    "run_state",
    "headless",
    "forward",
    "layers",
    "streamed_layers",
    "output",
    "backward",
    "jacobian",
]


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
    stacks: list  # per layer: a HouseholderStack, or None for a dense layer
    readout_weight: np.ndarray | None = None  # num_classes x width_N
    readout_bias: np.ndarray | None = None

    def rematerialize(self):
        """Refresh materialized weights from Householder stacks after an
        update to the reflection vectors.  Each stack keeps the WY factors
        of its new W, which the next ``backward`` reads."""
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
    readout_weight: np.ndarray | None
    readout_bias: np.ndarray | None
    input_gradient: np.ndarray  # dLoss/dx_0, batch x input_dim


def build_network(spec: NetworkSpec, init: InitializerSpec, rng: Rng) -> NetworkState:
    """One network, initialized from an InitializerSpec: the one run of
    ``build_stack(spec, init, [rng])``, taken out of its stack.  It holds no
    WY factors; a backward that needs them forms them."""
    return run_state(build_stack(spec, init, [rng]), 0)


def _layer_weight(spec: NetworkSpec, init: InitializerSpec, rng: Rng, l: int):
    """Layer l's weight, drawn from its own stream ``rng.spawn(l)``: a dense
    matrix or a HouseholderStack."""
    return init_weight(init, spec.fan_in(l), spec.width_N, rng.spawn(l))


def build_stack(spec: NetworkSpec, init: InitializerSpec, rngs: list) -> NetworkState:
    """R networks of one spec, initialized from an InitializerSpec and
    stacked along a leading run axis: run r draws layer l from
    ``rngs[r].spawn(l)`` and the readout from ``rngs[r].spawn(L)``; biases
    start at zero.  Square Householder layers are reflection stacks, which
    stay exactly orthogonal under training updates; one ``rematerialize``
    forms their W and WY factors for the whole stack."""
    weights, stacks = [], []
    for l in range(spec.depth_L):
        drawn = [_layer_weight(spec, init, rng, l) for rng in rngs]
        reflections = isinstance(drawn[0], HouseholderStack)
        stacks.append(HouseholderStack.unchecked(np.stack([w.vectors for w in drawn])) if reflections else None)
        weights.append(None if reflections else np.stack(drawn))
    readout = [None, None]
    if spec.num_classes > 0:
        drawn = [init_scaled(InitKind.SCALED_GAUSSIAN, spec.width_N, spec.num_classes, 1.0, rng.spawn(spec.depth_L)) for rng in rngs]
        readout = [np.stack(drawn), np.zeros((len(rngs), 1, spec.num_classes))]
    biases = [np.zeros((len(rngs), 1, spec.width_N)) for _ in range(spec.depth_L)]
    state = NetworkState(spec, weights, biases, stacks, *readout)
    state.rematerialize()
    return state


def _rows(state: NetworkState, rows: list) -> NetworkState:
    """The runs ``rows`` of a stacked state, in that order, as a stack of
    their own: copies of each stacked array's rows, the Householder layers'
    WY factors included, so its first backward forms none."""
    stacks = [
        None if s is None else HouseholderStack.unchecked(s.vectors[rows], WYFactors._make(f[rows] for f in s.factors))
        for s in state.stacks
    ]
    readout = [None, None]
    if state.spec.num_classes > 0:
        readout = [state.readout_weight[rows], state.readout_bias[rows]]
    return NetworkState(state.spec, [w[rows] for w in state.weights], [b[rows] for b in state.biases], stacks, *readout)


def run_state(state: NetworkState, r: int) -> NetworkState:
    """Run ``r`` of a stacked state as a single network that owns copies of
    its arrays, so that it holds nothing of the stack alive."""
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


def _as_batch(spec: NetworkSpec, batch: np.ndarray, runs: tuple = ()) -> np.ndarray:
    """An n x input_dim batch, or for a stack of ``runs`` also R x n x input_dim."""
    d = spec.input_dim
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != d or x.shape[:-2] not in ((), runs):
        shapes = f"(n, {d})" + (f" or ({runs[0]}, n, {d})" if runs else "")
        raise ValueError(f"batch must be {shapes}, got {x.shape}")
    return x


def forward(state: NetworkState, batch: np.ndarray) -> ForwardTrace:
    """Forward pass keeping every layer's post-activation, which
    back-propagation and the Jacobian read."""
    x = _as_batch(state.spec, batch, state.weights[0].shape[:-2])
    trace = ForwardTrace(inputs=x, post=list(_layers(state.spec, x, state.weights, state.biases)))
    if state.spec.num_classes > 0:
        trace.logits = trace.post[-1] @ state.readout_weight.swapaxes(-1, -2) + state.readout_bias
    return trace


def layers(state: NetworkState, batch: np.ndarray):
    """Yield the post-activations x_1..x_L of the backbone, keeping no
    per-layer trace: each layer is computed in place into a fresh array, so
    at most two activation arrays are alive while the caller holds only the
    latest."""
    return _layers(state.spec, _as_batch(state.spec, batch, state.weights[0].shape[:-2]), state.weights, state.biases)


def streamed_layers(spec: NetworkSpec, init: InitializerSpec, rng: Rng, batch: np.ndarray, dtype=np.float32):
    """Yield the post-activations x_1..x_L, in ``dtype`` (float32 or
    float64), of the backbone that ``build_network(spec, init, rng)`` draws,
    over an n x input_dim batch, without building it: layer l's weight is
    drawn from ``rng.spawn(l)`` (a Householder layer materialized alone) for
    its step and dropped once the next is drawn.  So the pass holds at most
    two weights and a few activation arrays, O(N^2 + n N) instead of the
    network's O(L N^2).  No readout is drawn; ``build_network`` draws it
    last, from its own stream.

    The batch and each weight are cast to ``dtype`` once (a float64 pass
    copies neither) and every layer is stepped by ``_layers``, as the built
    network's are, with a zero bias that turns a product's -0.0 into +0.0:
    x_l is, bit for bit, that of the built network's weights and the batch
    cast to ``dtype`` and stepped the same way, so the float64 pass is
    ``layers(build_network(spec, init, rng), batch)``.  In float32 (an sgemm
    a layer) the indicator at the critical gain was within 8.1e-7 of the
    float64 pass's at every layer (N = 32..200, L <= 150); ``analysis``
    refuses float32 activations that have overflowed or underflowed.  The
    pass leaves BLAS's thread count alone: its callers step it inside
    ``cpus.fan_out``'s pin."""
    drawn = (_layer_weight(spec, init, rng, l) for l in range(spec.depth_L))
    weights = ((householder_materialize(w) if isinstance(w, HouseholderStack) else w).astype(dtype, copy=False) for w in drawn)
    return _layers(spec, _as_batch(spec, batch).astype(dtype, copy=False), weights, repeat(np.zeros(spec.width_N, dtype)))


def _layers(spec: NetworkSpec, x: np.ndarray, weights, biases):
    """The one loop over layers: yield x_l = phi(x_{l-1} W_l^T + b_l) for
    each (W_l, b_l) of ``weights`` and ``biases``, over a batch that
    ``_as_batch`` has already checked."""
    phi = act.in_place(spec.activation)
    for w, b in zip(weights, biases):
        x = _layer_step(phi, x, w, b)
        yield x


def _layer_step(phi, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one per-layer step, phi(x W^T + b), computed in place into a
    fresh array; ``phi`` is ``activations.in_place``'s."""
    h = x @ w.swapaxes(-1, -2)
    h += b
    return phi(h)


def output(state: NetworkState, batch: np.ndarray) -> np.ndarray:
    """The logits, or x_L when there is no readout, read from ``layers``."""
    spec = state.spec
    for x in layers(state, batch):
        pass
    if spec.num_classes > 0:
        return x @ state.readout_weight.swapaxes(-1, -2) + state.readout_bias
    return x


def _batch_outer(g: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """g^T x over the batch rows, written into ``out`` when given.  For a
    batch of one row this is the broadcast product: the same values (a zero
    may differ in sign, which no update of a nonzero parameter sees), which
    makes a batch-1 layer-step 1-13% faster at N = 32..100 than numpy's
    matmul of inner dimension 1 (``BENCH_stacked_runs.json``)."""
    if g.shape[-2] == 1:
        return np.multiply(g.swapaxes(-1, -2), x, out=out)
    return np.matmul(g.swapaxes(-1, -2), x, out=out)


def backward(
    state: NetworkState, trace: ForwardTrace, loss_grad_at_output: np.ndarray, out: Gradients | None = None
) -> Gradients:
    """Back-propagate a loss gradient (w.r.t. logits if a readout exists,
    otherwise w.r.t. x_L) to the materialized weights, the biases, the
    readout and the input.

    With ``out``, whose arrays have the shapes of the gradients, every
    gradient but the input's is written into out's arrays and ``out`` is
    returned with its input gradient set: the same bits, with no array
    allocated for them."""
    spec = state.spec
    g = np.asarray(loss_grad_at_output, dtype=np.float64)
    if len(trace.post) != spec.depth_L or trace.post[0].shape[-2] != trace.inputs.shape[-2]:
        raise ValueError("trace does not match network state")
    rows = trace.post[-1].shape[:-1]
    keep = g.ndim == 3  # a stack's bias gradients are R x 1 x n, as its biases are
    grads = out if out is not None else Gradients([None] * spec.depth_L, [None] * spec.depth_L, None, None, None)
    if spec.num_classes > 0:
        if g.shape != (*rows, spec.num_classes):
            raise ValueError(f"loss gradient must be {(*rows, spec.num_classes)}, got {g.shape}")
        grads.readout_weight = _batch_outer(g, trace.post[-1], grads.readout_weight)
        grads.readout_bias = np.add.reduce(g, axis=-2, keepdims=keep, out=grads.readout_bias)
        g = g @ state.readout_weight
    elif g.shape != (*rows, spec.width_N):
        raise ValueError(f"loss gradient must be {(*rows, spec.width_N)}, got {g.shape}")
    one_row = rows[-1] == 1
    for l in range(spec.depth_L - 1, -1, -1):
        slot = grads.biases[l]
        if one_row and slot is not None:  # one row's phi'(h) g is its bias gradient: made in its slot
            gh = act.derivative(spec.activation, trace.post[l], out=slot if keep else slot[None])
        else:
            gh = act.derivative(spec.activation, trace.post[l])
        np.multiply(g, gh, out=gh)
        grads.weights[l] = _batch_outer(gh, trace.inputs if l == 0 else trace.post[l - 1], grads.weights[l])
        if not one_row:
            grads.biases[l] = np.add.reduce(gh, axis=-2, keepdims=keep, out=slot)
        elif slot is None:
            grads.biases[l] = gh if keep else gh[0]
        g = gh @ state.weights[l]
    grads.input_gradient = g
    return grads


def jacobian(state: NetworkState, x0: np.ndarray) -> np.ndarray:
    """Input-output Jacobian of the backbone at x0: the ordered product of
    diag(phi'(h_l)) W_l, read from the post-activations (readout excluded)."""
    if state.weights[0].ndim != 2:
        raise ValueError("jacobian takes one network, not a stack of runs: take each run out with run_state")
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape[0] != state.spec.input_dim:
        raise ValueError(f"x0 must have length {state.spec.input_dim}")
    j = None
    for w, x in zip(state.weights, layers(state, x0[None, :])):
        dw = act.derivative(state.spec.activation, x[0])[:, None] * w
        j = dw if j is None else dw @ j
    return j

