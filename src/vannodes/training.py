"""Plain SGD, softmax cross-entropy, and the instrumented training engine.

Every run owns an Rng stream derived from (master_seed, run key), so runs are
bit-reproducible.  ``train`` steps the runs of one shape together, in stacks
along a leading run axis that fit one memory budget, and every operation
acts on each run's slice alone, so a run's result does not depend on the
runs it is stacked with.  A run leaves its stack, at its end or its last
epoch, as a copy (``network.run_state``).
After each epoch the engine records loss/accuracy, the node-correlation
indicator on a fixed probe, the per-layer gain sigma_w^2 mu_1, and the
log-norm of the input gradient, each read for all runs of a stack at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import per_layer_gain, vni_empirical
from .data import Dataset
from .initializers import InitializerSpec, InitKind
from .linalg import Rng
from .network import (
    NetworkSpec,
    NetworkState,
    backward,
    build_network,
    forward,
    headless,
    output,
    run_state,
    stack_states,
)

__all__ = [
    "OptimizerKind",
    "OptimizerSpec",
    "Optimizer",
    "SuccessCriterion",
    "TrainRecord",
    "TrainResult",
    "softmax_cross_entropy",
    "train",
    "evaluate",
]


class OptimizerKind(enum.Enum):
    SGD = "sgd"


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


@dataclass
class OptimizerSpec:
    kind: OptimizerKind = OptimizerKind.SGD
    learning_rate: float = 0.01

    def __post_init__(self):
        if self.kind is not OptimizerKind.SGD:
            raise ValueError(f"only plain SGD is implemented, got optimizer {self.kind!r}")
        if not self.learning_rate > 0:  # NaN too
            raise ValueError("learning_rate must be positive")


class Optimizer:
    """Plain SGD on a flat list of parameter arrays, in place.  Householder
    layers expose their reflection-vector arrays as leaves, so the
    materialized weights stay exactly orthogonal.

    ``learning_rate`` overrides the spec's; the trainer passes an R x 1 x 1
    array of per-run rates for leaves stacked along a leading run axis."""

    def __init__(self, spec: OptimizerSpec, learning_rate=None):
        self.learning_rate = spec.learning_rate if learning_rate is None else learning_rate

    def take(self, runs):
        """Keep the rates of the runs ``runs`` (indices along the run axis)."""
        if np.ndim(self.learning_rate):
            self.learning_rate = self.learning_rate[runs]

    def step(self, leaves: list):
        """``leaves`` is a list of (param, grad) array pairs of equal shape."""
        for p, g in leaves:
            if p.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            p -= self.learning_rate * g


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
    classes = logits.shape[-1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    rows, flat_labels = np.arange(labels.size), labels.reshape(-1)
    picked = shifted.reshape(-1, classes)[rows, flat_labels].reshape(log_z.shape)
    loss = (log_z - picked).mean(axis=-1)
    probs = np.exp(shifted - log_z[..., None])
    probs.reshape(-1, classes)[rows, flat_labels] -= 1.0
    return loss, probs / logits.shape[-2]


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
    reason: str  # "converged", "max_epochs", "diverged", "no_epochs"
    converged_epoch: int | None = None
    final_state: NetworkState | None = None


def _param_leaves(state: NetworkState, grads) -> list:
    leaves = []
    for l in range(state.spec.depth_L):
        if state.stacks is not None and state.stacks[l] is not None:
            leaves.append((state.stacks[l].vectors, grads.stacks[l]))
        else:
            leaves.append((state.weights[l], grads.weights[l]))
        leaves.append((state.biases[l], grads.biases[l]))
    if state.spec.num_classes > 0:
        leaves.append((state.readout_weight, grads.readout_weight))
        leaves.append((state.readout_bias, grads.readout_bias))
    return leaves


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


def _input_gradient(state: NetworkState, train_set: Dataset) -> np.ndarray:
    """dLoss/dx_0 on the first task inputs for each run of a stacked state.
    Only the input gradient is read, so the reflection-vector gradients are
    not computed."""
    part = replace(state, stacks=None)
    trace = forward(part, train_set.inputs[:_EVAL_BATCH])
    labels = np.broadcast_to(train_set.labels[:_EVAL_BATCH], trace.logits.shape[:-1])
    return backward(part, trace, _cross_entropy(trace.logits, labels)[1]).input_gradient


def _epoch_stats(
    state: NetworkState,
    epoch: int,
    probe: np.ndarray,
    train_set: Dataset,
    test_set: Dataset | None,
    train_loss: np.ndarray,
    train_acc: np.ndarray,
    mu1: float,
) -> list:
    """One epoch's record of each run of a stacked state.  After epoch 0 a
    run's record is None when it has diverged: a non-finite parameter, loss,
    indicator or gain, all-constant probe activations, or an input-gradient
    log-norm of NaN or +inf (not -inf, which is a truly vanished gradient).

    Every value is read from the stacked arrays, with one indicator call for
    the runs that have not diverged.  The fields are Python floats, and the
    log-norm is ``math.log10``'s, which ``np.log10`` does not match bit for
    bit."""
    acts = output(headless(state), probe)
    g_in = _input_gradient(state, train_set)
    test_acc = evaluate(state, test_set)[1] if test_set is not None else np.full(len(acts), math.nan)
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
    optimizer_spec: OptimizerSpec | list,
    train_set: Dataset,
    criterion: SuccessCriterion,
    rng: Rng | list,
    test_set: Dataset | None = None,
    batch_size: int = 100,
    probe: np.ndarray | None = None,
    mu1: float = 1.0,
    early_stop: bool = False,
    epochs: int | None = None,
) -> TrainResult | list:
    """Instrumented training of one run, or of several runs of one shape.

    ``probe`` defaults to the task inputs; a record is emitted at epoch 0
    (before any update) and after every epoch.  With ``early_stop`` the run
    ends at the first epoch meeting the criterion; otherwise it continues to
    ``epochs`` (default: criterion.max_epochs) and the success flag reflects
    whether the criterion was met at any epoch <= max_epochs.  A run whose
    batch loss turns non-finite gets no update from that batch on and ends
    as diverged.

    ``optimizer_spec`` and ``rng`` may instead be lists of equal length, one
    entry per run; a list of results is then
    returned.  Each run draws its network from ``rng.spawn(0)`` and its data
    order from ``rng.spawn(1)``.  The runs are split into stacks that fit
    ``_TRACE_FLOATS`` and the runs of a stack are stepped together; every
    operation acts on each run's slice alone, so each result is
    bit-identical to the run's trained alone.
    """
    many = isinstance(rng, list)
    if many != isinstance(optimizer_spec, list) or many and len(rng) != len(optimizer_spec):
        raise ValueError("optimizer_spec and rng must be lists of equal length, or neither a list")
    opt_specs, rngs = (optimizer_spec, rng) if many else ([optimizer_spec], [rng])
    if spec.num_classes != train_set.num_classes:
        raise ValueError("network num_classes does not match dataset")
    if criterion.metric == "test_accuracy" and test_set is None:
        raise ValueError("a test_accuracy criterion needs a test_set")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if epochs is not None and epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    max_epochs = criterion.max_epochs if epochs is None else epochs
    n = train_set.num_samples
    probe = train_set.inputs[:_EVAL_BATCH] if probe is None else probe
    # rows of width_N floats per run: the gradient pass's 3 back-propagation arrays, the probe's 3 (with copies)
    grad_rows = min(_EVAL_BATCH, n)
    rows = spec.depth_L * (min(batch_size, n) + grad_rows) + 3 * grad_rows + 3 * len(probe) + _EVAL_BATCH
    if init.kind is InitKind.HOUSEHOLDER:  # 3 n x n factors per layer
        rows += 3 * spec.depth_L * spec.width_N
    size = max(1, _TRACE_FLOATS // (rows * spec.width_N))
    if len(rngs) > size:  # one stack after another
        stacks = [slice(a, a + size) for a in range(0, len(rngs), size)]
        args = (test_set, batch_size, probe, mu1, early_stop, epochs)
        return [res for s in stacks for res in train(spec, init, opt_specs[s], train_set, criterion, rngs[s], *args)]
    results = [TrainResult([], False, "max_epochs" if max_epochs else "no_epochs") for _ in rngs]
    if max_epochs == 0 or not rngs:
        return results if many else results[0]
    state = stack_states([build_network(spec, init, r.spawn(0)) for r in rngs])
    lrs = np.array([o.learning_rate for o in opt_specs])
    # one rate for every run is kept a float: scaling by it is the cheaper product
    opt = Optimizer(opt_specs[0], lrs[0] if np.all(lrs == lrs[0]) else lrs[:, None, None])
    data_rngs = [r.spawn(1) for r in rngs]
    active = list(results)  # the run of each row of the stack

    loss0, acc0 = evaluate(state, train_set)
    for res, rec in zip(active, _epoch_stats(state, 0, probe, train_set, test_set, loss0, acc0, mu1)):
        res.records.append(rec)
    for epoch in range(1, max_epochs + 1):
        orders = np.stack([r.permutation(n) for r in data_rngs])
        epoch_loss, epoch_correct = 0.0, 0
        for start in range(0, n, batch_size):
            idx = orders[:, start : start + batch_size]
            y = train_set.labels[idx]
            trace = forward(state, train_set.inputs[idx])
            loss, grad = _cross_entropy(trace.logits, y)
            epoch_loss = epoch_loss + loss * idx.shape[1]
            if not np.isfinite(loss).all():
                # The run ends diverged with its state from before this batch.
                # It stays in the stack to the end of the epoch; no operation
                # mixes runs, so the others do not see it.
                for row in np.flatnonzero(~np.isfinite(loss)):
                    if active[row].final_state is None:
                        active[row].final_state = run_state(state, row)
            epoch_correct = epoch_correct + (trace.logits.argmax(axis=-1) == y).sum(axis=-1)
            opt.step(_param_leaves(state, backward(state, trace, grad)))
            state.rematerialize()
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
            state = stack_states([run_state(state, row) for row in keep])
            opt.take(keep)
            active, data_rngs = [active[row] for row in keep], [data_rngs[row] for row in keep]
    return results if many else results[0]
