"""Optimizers, softmax cross-entropy, and the instrumented training engine.

Every run owns an Rng stream derived from (master_seed, run key), so runs are
bit-reproducible.  ``train`` steps the runs of one shape together, stacked
along a leading run axis, and every operation acts on each run's slice
alone, so a run's result does not depend on the runs it is stacked with.
After each epoch the engine records loss/accuracy, the node-correlation
indicator on a fixed probe, the per-layer gain sigma_w^2 mu_1, and the
log-norm of the input gradient.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import per_layer_gain, vni_empirical
from .data import Dataset
from .initializers import InitializerSpec
from .linalg import Rng
from .network import (
    NetworkSpec,
    NetworkState,
    backward,
    build_network,
    forward,
    headless,
    output,
    run_states,
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
    SGD_MOMENTUM = "sgd_momentum"
    ADAM = "adam"
    RMSPROP = "rmsprop"


# Fixed optimizer hyperparameters; only the kind and the learning rate vary.
_MOMENTUM = 0.9
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_RMSPROP_DECAY = 0.9
_RMSPROP_EPS = 1e-8
# Rows per forward pass in ``evaluate``, and of the task inputs that are the
# default probe and the input-gradient batch of the epoch statistics.
_EVAL_BATCH = 1000
# Floats of forward trace (pre- and post-activations of every layer) that the
# epoch statistics' input-gradient pass keeps at once (32 MB): it takes the
# runs of a stack in groups that fit.
_TRACE_FLOATS = 1 << 22


@dataclass
class OptimizerSpec:
    kind: OptimizerKind = OptimizerKind.SGD
    learning_rate: float = 0.01

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class Optimizer:
    """Updates a flat list of parameter arrays in place.  Householder layers
    expose their reflection-vector arrays as leaves, so the materialized
    weights stay exactly orthogonal.

    ``learning_rate`` overrides the spec's; the trainer passes an R x 1 x 1
    array of per-run rates for leaves stacked along a leading run axis."""

    def __init__(self, spec: OptimizerSpec, learning_rate=None):
        self.spec = spec
        self.learning_rate = spec.learning_rate if learning_rate is None else learning_rate
        self.t = 0
        self._leaves = 0
        self._m: list = []
        self._v: list = []

    def take(self, runs):
        """Keep the state of the runs ``runs`` (indices along the run axis)."""
        self._m = [m[runs] for m in self._m]
        self._v = [v[runs] for v in self._v]
        if np.ndim(self.learning_rate):
            self.learning_rate = self.learning_rate[runs]

    def step(self, leaves: list):
        """``leaves`` is a list of (param, grad) array pairs of equal shape."""
        kind, lr = self.spec.kind, self.learning_rate
        if self.t == 0:  # moment arrays only for the kinds that keep them
            self._leaves = len(leaves)
            if kind in (OptimizerKind.SGD_MOMENTUM, OptimizerKind.ADAM):
                self._m = [np.zeros_like(p) for p, _ in leaves]
            if kind in (OptimizerKind.ADAM, OptimizerKind.RMSPROP):
                self._v = [np.zeros_like(p) for p, _ in leaves]
        if len(leaves) != self._leaves:
            raise ValueError("leaf count changed between optimizer steps")
        self.t += 1
        for i, (p, g) in enumerate(leaves):
            if p.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            if kind is OptimizerKind.SGD:
                p -= lr * g
            elif kind is OptimizerKind.SGD_MOMENTUM:
                self._m[i] = _MOMENTUM * self._m[i] + g
                p -= lr * self._m[i]
            elif kind is OptimizerKind.ADAM:
                self._m[i] = _ADAM_BETA1 * self._m[i] + (1 - _ADAM_BETA1) * g
                self._v[i] = _ADAM_BETA2 * self._v[i] + (1 - _ADAM_BETA2) * g * g
                m_hat = self._m[i] / (1 - _ADAM_BETA1**self.t)
                v_hat = self._v[i] / (1 - _ADAM_BETA2**self.t)
                p -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
            elif kind is OptimizerKind.RMSPROP:
                self._v[i] = _RMSPROP_DECAY * self._v[i] + (1 - _RMSPROP_DECAY) * g * g
                p -= lr * g / (np.sqrt(self._v[i]) + _RMSPROP_EPS)
            else:
                raise ValueError(f"unknown optimizer {kind!r}")


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


def _all_finite(state: NetworkState) -> bool:
    """Every weight, bias and readout array holds finite values only."""
    arrays = state.weights + state.biases
    if state.spec.num_classes > 0:
        arrays += [state.readout_weight, state.readout_bias]
    return all(np.all(np.isfinite(a)) for a in arrays)


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


def _input_gradient(state: NetworkState, runs: slice, train_set: Dataset) -> np.ndarray:
    """dLoss/dx_0 on the first task inputs for the runs ``runs`` of a stacked
    state.  Only the input gradient is read, so the reflection-vector
    gradients are not computed."""
    part = NetworkState(
        state.spec,
        [w[runs] for w in state.weights],
        [b[runs] for b in state.biases],
        readout_weight=state.readout_weight[runs],
        readout_bias=state.readout_bias[runs],
    )
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

    The probe, input-gradient and test passes run stacked; the checks, the
    indicator and the gains read each run's slice."""
    after = epoch > 0
    acts = output(headless(state), probe)
    spec, runs = state.spec, len(state.weights[0])
    rows = min(_EVAL_BATCH, train_set.num_samples)
    group = max(1, _TRACE_FLOATS // (2 * rows * spec.width_N * spec.depth_L))
    g_in = np.concatenate([_input_gradient(state, slice(a, a + group), train_set) for a in range(0, runs, group)])
    test_acc = evaluate(state, test_set)[1] if test_set is not None else None

    def record(r: int, run: NetworkState) -> TrainRecord | None:
        if after and not (math.isfinite(train_loss[r]) and _all_finite(run) and np.any(acts[r] != acts[r][0])):
            return None
        vni, _, _ = vni_empirical(acts[r])
        gains = per_layer_gain(run, mu1)
        sq_norm = float(np.sum(g_in[r] * g_in[r]) / g_in.shape[-2])
        log_norm = math.log10(sq_norm) if sq_norm != 0 else -math.inf
        if after and not (math.isfinite(vni) and np.all(np.isfinite(gains)) and log_norm < math.inf):
            return None
        test = math.nan if test_acc is None else float(test_acc[r])
        return TrainRecord(epoch, float(train_loss[r]), float(train_acc[r]), test, vni, gains, log_norm)

    return [record(r, run) for r, run in enumerate(run_states(state))]


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
    entry per run, all of one optimizer kind; a list of results is then
    returned.  Each run draws its network from ``rng.spawn(0)`` and its data
    order from ``rng.spawn(1)``.  The runs are stacked and stepped together;
    every operation acts on each run's slice alone, so each result is
    bit-identical to the run's trained alone.
    """
    many = isinstance(rng, list)
    if many != isinstance(optimizer_spec, list) or many and len(rng) != len(optimizer_spec):
        raise ValueError("optimizer_spec and rng must be lists of equal length, or neither a list")
    opt_specs, rngs = (optimizer_spec, rng) if many else ([optimizer_spec], [rng])
    if spec.num_classes != train_set.num_classes:
        raise ValueError("network num_classes does not match dataset")
    if len({o.kind for o in opt_specs}) > 1:
        raise ValueError("runs trained together must share one optimizer kind")
    max_epochs = criterion.max_epochs if epochs is None else epochs
    results = [TrainResult([], False, "max_epochs" if max_epochs else "no_epochs") for _ in rngs]
    if max_epochs == 0 or not rngs:
        return results if many else results[0]
    state = stack_states([build_network(spec, init, r.spawn(0)) for r in rngs])
    lrs = np.array([o.learning_rate for o in opt_specs])
    # one rate for every run is kept a float: scaling by it is the cheaper product
    opt = Optimizer(opt_specs[0], lrs[0] if np.all(lrs == lrs[0]) else lrs[:, None, None])
    data_rngs = [r.spawn(1) for r in rngs]
    n = train_set.num_samples
    probe = train_set.inputs[:_EVAL_BATCH] if probe is None else probe
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
                        active[row].final_state = copy.deepcopy(run_states(state)[row])
            epoch_correct = epoch_correct + (trace.logits.argmax(axis=-1) == y).sum(axis=-1)
            opt.step(_param_leaves(state, backward(state, trace, grad)))
            state.rematerialize()
        stats = _epoch_stats(state, epoch, probe, train_set, test_set, epoch_loss / n, epoch_correct / n, mu1)
        runs, keep = run_states(state), []
        for row, (res, rec) in enumerate(zip(active, stats)):
            if rec is None:
                res.reason = "diverged"
            else:
                res.records.append(rec)
                metric = rec.train_accuracy if criterion.metric == "train_accuracy" else rec.test_accuracy
                if not res.success and epoch <= criterion.max_epochs and metric > criterion.threshold:
                    res.success, res.reason, res.converged_epoch = True, "converged", epoch
                if not (early_stop and res.success):
                    keep.append(row)
                    continue
            if res.final_state is None:  # a copy: a view would keep the whole stack alive
                res.final_state = copy.deepcopy(runs[row])
        if len(keep) < len(active):
            if not keep:
                break
            state = stack_states([runs[row] for row in keep])
            opt.take(keep)
            active, data_rngs = [active[row] for row in keep], [data_rngs[row] for row in keep]
    else:  # the runs still in the stack after the last epoch
        for res, run in zip(active, run_states(state)):
            res.final_state = run
    return results if many else results[0]
