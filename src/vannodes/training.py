"""Plain SGD, softmax cross-entropy, and the instrumented training engine.

Every run owns an Rng stream derived from (master_seed, run key), so runs are
bit-reproducible.  ``train`` steps the runs of one shape together, in stacks
along a leading run axis that fit one memory budget, and every operation
acts on each run's slice alone, so a run's result does not depend on the
runs it is stacked with.  A run leaves its stack, at its end or its last
epoch, as a copy (``network.run_state``).

A stack's parameters live in one buffer that its arrays view
(``_flatten``); each step's ``backward`` writes its gradients into a
gradient buffer of the same layout, and SGD is one update of the whole
buffer.  After each epoch the engine records loss/accuracy, the
node-correlation indicator on a fixed probe, the per-layer gain
sigma_w^2 mu_1, and the log-norm of the input gradient, each read for all
runs of a stack at once, from one forward pass over the task inputs where
the probe and the test set allow it (``_epoch_stats``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import per_layer_gain, vni_empirical
from .data import Dataset
from .initializers import InitializerSpec, InitKind, householder_backward
from .network import (
    Gradients,
    NetworkSpec,
    NetworkState,
    _rows,
    backward,
    build_stack,
    forward,
    headless,
    output,
    run_state,
)

__all__ = [
    "Optimizer",
    "SuccessCriterion",
    "TrainRecord",
    "TrainResult",
    "softmax_cross_entropy",
    "train",
    "evaluate",
]


# Rows per forward pass in ``evaluate``, and of the task inputs that are the
# default probe and the input-gradient batch of the epoch statistics.
_EVAL_BATCH = 1000
# Floats (32 MB) that the per-run arrays of a stack of runs trained together
# may hold: every layer's post-activations kept by a training step and by the
# statistics' input-gradient pass, the probe activations with the two copies
# the indicator makes of them, an evaluation chunk's, and the WY factors
# (U, S and S U) that each Householder layer keeps.  ``train`` splits its
# runs into stacks that fit.
_TRACE_FLOATS = 1 << 22


class Optimizer:
    """Plain SGD, in place, on the one buffer that holds the parameters of a
    stack of runs (``_flatten``).  Householder layers hold their reflection
    vectors there, so the materialized weights stay exactly orthogonal.

    ``learning_rate`` is one float shared by every parameter, or an array
    of the buffer's shape that holds each parameter's rate."""

    def __init__(self, learning_rate):
        self.learning_rate = learning_rate

    def step(self, params: np.ndarray, grads: np.ndarray):
        """One update ``params -= learning_rate * grads`` of every parameter;
        ``grads`` is scratch, scaled in place."""
        if params.shape != grads.shape:
            raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
        grads *= self.learning_rate
        params -= grads


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its logits gradient (softmax - onehot)/batch.
    ``logits`` is batch x classes, or R x batch x classes for R stacked runs,
    whose losses are then an array of R."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim not in (2, 3):
        raise ValueError(f"logits must be (n, classes) or (runs, n, classes), got {logits.shape}")
    if labels.shape != logits.shape[:-1]:
        raise ValueError(f"labels must have shape {logits.shape[:-1]}")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[-1]):
        raise ValueError(f"labels outside [0, {logits.shape[-1]})")
    loss, grad = _cross_entropy(logits, labels)
    return (float(loss) if logits.ndim == 2 else loss), grad


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """``softmax_cross_entropy`` without its checks, for labels already
    checked; the loss is a numpy scalar or array."""
    classes, n = logits.shape[-1], logits.shape[-2]
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=-1))
    rows, flat_labels = np.arange(labels.size), labels.reshape(-1)
    picked = shifted.reshape(-1, classes)[rows, flat_labels].reshape(log_z.shape)
    loss = np.add.reduce(log_z - picked, axis=-1) / n  # the mean, without ndarray.mean's wrapper
    probs = np.exp(shifted - log_z[..., None])
    probs.reshape(-1, classes)[rows, flat_labels] -= 1.0
    probs /= n
    return loss, probs


@dataclass
class SuccessCriterion:
    metric: str = "test_accuracy"  # or "train_accuracy"
    threshold: float = 0.99
    max_epochs: int = 100

    def __post_init__(self):
        if not (0 < self.threshold <= 1):
            raise ValueError("threshold must be in (0, 1]")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.metric not in ("train_accuracy", "test_accuracy"):
            raise ValueError(f"unknown success metric {self.metric!r}")


@dataclass
class TrainRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    test_accuracy: float
    vni: float
    per_layer_gain: np.ndarray = field(repr=False)
    input_grad_log_norm: float = math.nan


@dataclass
class TrainResult:
    records: list
    success: bool
    reason: str  # "converged", "max_epochs", "diverged"
    converged_epoch: int | None = None
    final_state: NetworkState | None = None


def _param_arrays(state: NetworkState) -> list:
    """The arrays SGD updates, in the order of the parameter buffer: each
    layer's weight (a Householder layer's reflection vectors) and bias,
    then the readout."""
    arrays = [a for w, s, b in zip(state.weights, state.stacks, state.biases) for a in (w if s is None else s.vectors, b)]
    if state.spec.num_classes > 0:
        arrays += [state.readout_weight, state.readout_bias]
    return arrays


def _flatten(state: NetworkState) -> np.ndarray:
    """Copy the parameters of a stacked state into one buffer, each array a
    contiguous block that holds every run's copy, and rebind the state's
    arrays to views of it; returns the buffer."""
    arrays = _param_arrays(state)
    params = np.concatenate([a.reshape(-1) for a in arrays])
    views = iter(_blocks(params, [a.shape for a in arrays]))
    for l, s in enumerate(state.stacks):
        w, state.biases[l] = next(views), next(views)
        if s is None:
            state.weights[l] = w
        else:
            s.vectors = w
    if state.spec.num_classes > 0:
        state.readout_weight, state.readout_bias = views
    return params


def _step_buffers(state: NetworkState, lrs: np.ndarray) -> tuple:
    """For a state whose parameters ``_flatten`` laid out: each parameter's
    learning rate, from the runs' rates ``lrs`` (one float when they are
    equal, the cheaper product), a gradient buffer of the parameter
    buffer's layout, and the ``Gradients`` whose arrays view it, for
    ``backward(..., out=)``."""
    arrays = _param_arrays(state)
    sizes = [a[0].size for a in arrays]
    rate = lrs[0] if np.all(lrs == lrs[0]) else np.repeat(np.tile(lrs, len(sizes)), np.repeat(sizes, len(lrs)))
    grads = np.empty(sum(a.size for a in arrays))
    g, L = _blocks(grads, [a.shape for a in arrays]), state.spec.depth_L
    return rate, grads, Gradients(g[: 2 * L : 2], g[1 : 2 * L : 2], *(g[2 * L :] or [None, None]), None)


def _blocks(buffer: np.ndarray, shapes: list) -> list:
    """Consecutive blocks of a flat buffer, viewed as arrays of the shapes
    ``shapes``."""
    ends = np.cumsum([math.prod(s) for s in shapes]).tolist()
    return [buffer[end - math.prod(s) : end].reshape(s) for s, end in zip(shapes, ends)]


def _gradients(state: NetworkState, trace, loss_grad: np.ndarray, out: Gradients):
    """Write backward's gradients into ``out`` (``_step_buffers``'), then map
    each Householder layer's dL/dW, in its slot, to the gradient of its
    reflection vectors, read from the WY factors its last materialize
    kept."""
    backward(state, trace, loss_grad, out=out)
    for stack, g in zip(state.stacks, out.weights):
        if stack is not None:
            g[...] = householder_backward(stack, g)


def _sgd_epoch(
    state: NetworkState,
    params: np.ndarray,
    lrs: np.ndarray,
    train_set: Dataset,
    orders: np.ndarray,
    batch_size: int,
    active: list,
) -> tuple:
    """One epoch of SGD steps of a stacked state whose parameters are the
    buffer ``params`` (``_flatten``), run r taking the training rows in the
    order ``orders[r]`` at the rate ``lrs[r]``; returns each run's summed
    batch loss and its count of correct predictions.  The gradient buffer
    lives for the epoch only, so the statistics and the runs' final copies
    are made without it.

    A run whose batch loss turns non-finite ends diverged with its state
    from before that batch, recorded in its result (``active``, one per
    run).  It stays in the stack to the end of the epoch; no operation mixes
    runs, so the others do not see it."""
    rate, grads, out = _step_buffers(state, lrs)
    opt = Optimizer(rate)
    epoch_loss, epoch_correct = 0.0, 0
    for start in range(0, orders.shape[1], batch_size):
        idx = orders[:, start : start + batch_size]
        y = train_set.labels[idx]
        trace = forward(state, train_set.inputs[idx])
        loss, grad = _cross_entropy(trace.logits, y)
        epoch_loss = epoch_loss + loss * idx.shape[1]
        if not np.isfinite(loss).all():
            for row in np.flatnonzero(~np.isfinite(loss)):
                if active[row].final_state is None:
                    active[row].final_state = run_state(state, row)
        epoch_correct = epoch_correct + (trace.logits.argmax(axis=-1) == y).sum(axis=-1)
        _gradients(state, trace, grad, out)
        opt.step(params, grads)
        state.rematerialize()
    return epoch_loss, epoch_correct


def _all_finite(state: NetworkState) -> np.ndarray:
    """Per run of a stacked state: every weight, bias and readout array holds
    finite values only."""
    arrays = state.weights + state.biases
    if state.spec.num_classes > 0:
        arrays += [state.readout_weight, state.readout_bias]
    return np.logical_and.reduce([np.isfinite(a).all(axis=(-2, -1)) for a in arrays])


def evaluate(state: NetworkState, dataset: Dataset):
    """(mean loss, accuracy) over a labeled dataset; for a stacked state, an
    array of each with one entry per run."""
    losses, correct = [], 0
    for start in range(0, dataset.num_samples, _EVAL_BATCH):
        x = dataset.inputs[start : start + _EVAL_BATCH]
        y = dataset.labels[start : start + _EVAL_BATCH]
        logits = output(state, x)
        loss, _ = softmax_cross_entropy(logits, np.broadcast_to(y, logits.shape[:-1]))
        losses.append(loss * x.shape[0])
        correct = correct + (logits.argmax(axis=-1) == y).sum(axis=-1)
    return sum(losses) / dataset.num_samples, correct / dataset.num_samples


def _epoch_stats(
    state: NetworkState,
    epoch: int,
    probe: np.ndarray | None,
    train_set: Dataset,
    test_set: Dataset | None,
    train_loss: np.ndarray | None,
    train_acc: np.ndarray | None,
    mu1: float,
) -> list:
    """One epoch's record of each run of a stacked state.  After epoch 0 a
    run's record is None when it has diverged: a non-finite parameter, loss,
    indicator or gain, all-constant probe activations, or an input-gradient
    log-norm of NaN or +inf (not -inf, which is a truly vanished gradient).

    One ``forward`` over the first ``_EVAL_BATCH`` task inputs gives the
    input gradient.  When those rows are the whole training set it also
    gives the training loss and accuracy (read when ``train_loss`` is None,
    as at epoch 0) and the test accuracy of a test set that is the training
    set; with ``probe`` None, the task inputs, its last layer is the probe
    activations.  Any other probe or test set gets its own pass.

    Every value is read from the stacked arrays, with one indicator call for
    the runs that have not diverged.  The fields are Python floats, and the
    log-norm is ``math.log10``'s, which ``np.log10`` does not match bit for
    bit."""
    x, y = train_set.inputs[:_EVAL_BATCH], train_set.labels[:_EVAL_BATCH]
    n = len(x)
    trace = forward(state, x)
    loss, grad = _cross_entropy(trace.logits, np.broadcast_to(y, trace.logits.shape[:-1]))
    g_in = backward(state, trace, grad).input_gradient
    whole = n == train_set.num_samples
    acc = (trace.logits.argmax(axis=-1) == y).sum(axis=-1) / n
    if train_loss is None:  # one chunk's loss, summed and averaged as evaluate does
        train_loss, train_acc = (loss * n / n, acc) if whole else evaluate(state, train_set)
    acts = trace.post[-1] if probe is None else output(headless(state), probe)
    if test_set is None:
        test_acc = np.full(len(acts), math.nan)
    else:
        test_acc = acc if whole and test_set is train_set else evaluate(state, test_set)[1]
    gains = per_layer_gain(state, mu1)
    live = (epoch == 0) | (_all_finite(state) & np.isfinite(train_loss) & np.any(acts != acts[:, :1], axis=(-2, -1)))
    vni = np.full(len(acts), math.nan)
    vni[live] = vni_empirical(acts if live.all() else acts[live])[0]  # a copy only when a run diverged
    sq_norm = np.sum(g_in * g_in, axis=(-2, -1)) / g_in.shape[-2]
    log_norm = [math.log10(s) if s != 0 else -math.inf for s in sq_norm.tolist()]
    live &= (epoch == 0) | (np.isfinite(vni) & np.isfinite(gains).all(axis=-1) & (np.array(log_norm) < math.inf))
    values = zip(train_loss.tolist(), train_acc.tolist(), test_acc.tolist(), vni.tolist(), gains, log_norm)
    return [TrainRecord(epoch, *v) if ok else None for ok, v in zip(live.tolist(), values)]


# Divergence is detected explicitly, so overflow and NaN are not warned about.
@np.errstate(over="ignore", invalid="ignore")
def train(
    spec: NetworkSpec,
    init: InitializerSpec,
    runs: list,
    train_set: Dataset,
    criterion: SuccessCriterion,
    test_set: Dataset | None = None,
    batch_size: int = 100,
    probe: np.ndarray | None = None,
    mu1: float = 1.0,
    early_stop: bool = False,
    epochs: int | None = None,
) -> list:
    """Instrumented training of the runs ``runs``, (learning rate, Rng)
    pairs of networks of one shape; returns one TrainResult per run, in order.

    ``probe`` defaults to the task inputs; a record is emitted at epoch 0
    (before any update) and after every epoch.  With ``early_stop`` a run
    ends at the first epoch meeting the criterion; otherwise it continues to
    ``epochs`` (default: criterion.max_epochs) and the success flag reflects
    whether the criterion was met at any epoch <= max_epochs.  A run whose
    batch loss turns non-finite gets no update from that batch on and ends
    as diverged.

    Each run draws its network from ``rng.spawn(0)`` and its data order from
    ``rng.spawn(1)``.  The runs are split into stacks that fit
    ``_TRACE_FLOATS``, each built by ``network.build_stack``, and the runs of
    a stack are stepped together; every operation acts on each run's slice
    alone, so each result is bit-identical to the run's trained alone.  A
    stack's parameters are moved into one buffer (``_flatten``) after its
    build and after runs leave it (``network._rows`` keeps the others, with
    their WY factors); a step writes the gradients into a
    buffer of the same layout and updates the parameters in one
    ``Optimizer.step``.
    """
    if spec.num_classes != train_set.num_classes:
        raise ValueError("network num_classes does not match dataset")
    if criterion.metric == "test_accuracy" and test_set is None:
        raise ValueError("a test_accuracy criterion needs a test_set")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if epochs is not None and epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not all(lr > 0 for lr, _ in runs):  # NaN too
        raise ValueError(f"learning rates must be positive, got {[lr for lr, _ in runs]}")
    max_epochs = criterion.max_epochs if epochs is None else epochs
    n = train_set.num_samples
    # rows of width_N floats per run: the gradient pass's 3 back-propagation arrays, the probe's 3 (with copies)
    grad_rows = min(_EVAL_BATCH, n)
    probe_rows = grad_rows if probe is None else len(probe)
    rows = spec.depth_L * (min(batch_size, n) + grad_rows) + 3 * grad_rows + 3 * probe_rows + _EVAL_BATCH
    if init.kind is InitKind.HOUSEHOLDER:  # 3 n x n factors per layer
        rows += 3 * spec.depth_L * spec.width_N
    size = max(1, _TRACE_FLOATS // (rows * spec.width_N))
    if len(runs) > size:  # one stack after another
        args = (train_set, criterion, test_set, batch_size, probe, mu1, early_stop, epochs)
        return [res for a in range(0, len(runs), size) for res in train(spec, init, runs[a : a + size], *args)]
    if not runs:
        return []
    results = [TrainResult([], False, "max_epochs") for _ in runs]
    state = build_stack(spec, init, [rng.spawn(0) for _, rng in runs])
    params = _flatten(state)
    lrs = np.array([lr for lr, _ in runs])
    data_rngs = [rng.spawn(1) for _, rng in runs]
    active = list(results)  # the run of each row of the stack

    for res, rec in zip(active, _epoch_stats(state, 0, probe, train_set, test_set, None, None, mu1)):
        res.records.append(rec)
    for epoch in range(1, max_epochs + 1):
        orders = np.stack([r.permutation(n) for r in data_rngs])
        epoch_loss, epoch_correct = _sgd_epoch(state, params, lrs, train_set, orders, batch_size, active)
        stats = _epoch_stats(state, epoch, probe, train_set, test_set, epoch_loss / n, epoch_correct / n, mu1)
        keep = []
        for row, (res, rec) in enumerate(zip(active, stats)):
            if rec is None:
                res.reason = "diverged"
            else:
                res.records.append(rec)
                metric = rec.train_accuracy if criterion.metric == "train_accuracy" else rec.test_accuracy
                if not res.success and epoch <= criterion.max_epochs and metric > criterion.threshold:
                    res.success, res.reason, res.converged_epoch = True, "converged", epoch
                if epoch < max_epochs and not (early_stop and res.success):
                    keep.append(row)
                    continue
            if res.final_state is None:
                res.final_state = run_state(state, row)
        if len(keep) < len(active):
            if not keep:
                break
            state = _rows(state, keep)
            params = _flatten(state)
            lrs = lrs[keep]
            active, data_rngs = [active[row] for row in keep], [data_rngs[row] for row in keep]
    return results
