"""Optimizers, softmax cross-entropy, and the instrumented training loop.

Every run owns an Rng stream derived from (master_seed, run_index), so runs
are bit-reproducible and may execute concurrently.  After each epoch the loop
records loss/accuracy, the node-correlation indicator on a fixed probe, the
per-layer gain sigma_w^2 mu_1, and the log-norm of the input gradient.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import per_layer_gain, vni_empirical
from .data import Dataset
from .initializers import InitializerSpec
from .linalg import Rng
from .network import NetworkSpec, NetworkState, backward, build_network, forward, headless, output

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
# Rows per forward pass in ``evaluate``.
_EVAL_BATCH = 1000


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
    weights stay exactly orthogonal."""

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self.t = 0
        self._m: list = []
        self._v: list = []

    def step(self, leaves: list):
        """``leaves`` is a list of (param, grad) array pairs of equal shape."""
        s = self.spec
        if not self._m:
            self._m = [np.zeros_like(p) for p, _ in leaves]
            self._v = [np.zeros_like(p) for p, _ in leaves]
        if len(leaves) != len(self._m):
            raise ValueError("leaf count changed between optimizer steps")
        self.t += 1
        for i, (p, g) in enumerate(leaves):
            if p.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            if s.kind is OptimizerKind.SGD:
                p -= s.learning_rate * g
            elif s.kind is OptimizerKind.SGD_MOMENTUM:
                self._m[i] = _MOMENTUM * self._m[i] + g
                p -= s.learning_rate * self._m[i]
            elif s.kind is OptimizerKind.ADAM:
                self._m[i] = _ADAM_BETA1 * self._m[i] + (1 - _ADAM_BETA1) * g
                self._v[i] = _ADAM_BETA2 * self._v[i] + (1 - _ADAM_BETA2) * g * g
                m_hat = self._m[i] / (1 - _ADAM_BETA1**self.t)
                v_hat = self._v[i] / (1 - _ADAM_BETA2**self.t)
                p -= s.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
            elif s.kind is OptimizerKind.RMSPROP:
                self._v[i] = _RMSPROP_DECAY * self._v[i] + (1 - _RMSPROP_DECAY) * g * g
                p -= s.learning_rate * g / (np.sqrt(self._v[i]) + _RMSPROP_EPS)
            else:
                raise ValueError(f"unknown optimizer {s.kind!r}")


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its logits gradient (softmax - onehot)/batch."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"labels outside [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float((log_z - shifted[np.arange(n), labels]).mean())
    probs = np.exp(shifted - log_z[:, None])
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


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
    """(mean loss, accuracy) over a labeled dataset."""
    losses, correct = [], 0
    for start in range(0, dataset.num_samples, _EVAL_BATCH):
        x = dataset.inputs[start : start + _EVAL_BATCH]
        y = dataset.labels[start : start + _EVAL_BATCH]
        logits = output(state, x)
        loss, _ = softmax_cross_entropy(logits, y)
        losses.append(loss * x.shape[0])
        correct += int((logits.argmax(axis=1) == y).sum())
    return sum(losses) / dataset.num_samples, correct / dataset.num_samples


def _epoch_stats(
    state: NetworkState,
    epoch: int,
    probe: np.ndarray,
    eval_batch_x: np.ndarray,
    eval_batch_y: np.ndarray,
    test_set: Dataset | None,
    train_loss: float,
    train_acc: float,
    mu1: float,
) -> TrainRecord | None:
    """One epoch's record; after epoch 0, None when the run has diverged: a
    non-finite parameter, loss, indicator or gain, all-constant probe
    activations, or an input-gradient log-norm of NaN or +inf (not -inf,
    which is a truly vanished gradient)."""
    after = epoch > 0
    if after and not (math.isfinite(train_loss) and _all_finite(state)):
        return None
    acts = output(headless(state), probe)
    if after and np.all(acts == acts[0]):
        return None
    vni, _, _ = vni_empirical(acts)
    gains = per_layer_gain(state, mu1)
    trace = forward(state, eval_batch_x)
    _, grad = softmax_cross_entropy(trace.logits, eval_batch_y)
    g_in = backward(state, trace, grad).input_gradient
    sq_norm = float(np.sum(g_in * g_in) / g_in.shape[0])
    log_norm = math.log10(sq_norm) if sq_norm != 0 else -math.inf
    if after and not (math.isfinite(vni) and np.all(np.isfinite(gains)) and log_norm < math.inf):
        return None
    test_acc = math.nan
    if test_set is not None:
        _, test_acc = evaluate(state, test_set)
    return TrainRecord(
        epoch=epoch,
        train_loss=train_loss,
        train_accuracy=train_acc,
        test_accuracy=test_acc,
        vni=vni,
        per_layer_gain=gains,
        input_grad_log_norm=log_norm,
    )


# Divergence is detected explicitly, so overflow and NaN are not warned about.
@np.errstate(over="ignore", invalid="ignore")
def train(
    spec: NetworkSpec,
    init: InitializerSpec,
    optimizer_spec: OptimizerSpec,
    train_set: Dataset,
    criterion: SuccessCriterion,
    rng: Rng,
    test_set: Dataset | None = None,
    batch_size: int = 100,
    probe: np.ndarray | None = None,
    mu1: float = 1.0,
    early_stop: bool = False,
    epochs: int | None = None,
) -> TrainResult:
    """Instrumented training of one run.

    ``probe`` defaults to the task inputs; a record is emitted at epoch 0
    (before any update) and after every epoch.  With ``early_stop`` the run
    ends at the first epoch meeting the criterion; otherwise it continues to
    ``epochs`` (default: criterion.max_epochs) and the success flag reflects
    whether the criterion was met at any epoch <= max_epochs.
    """
    if spec.num_classes != train_set.num_classes:
        raise ValueError("network num_classes does not match dataset")
    max_epochs = criterion.max_epochs if epochs is None else epochs
    if max_epochs == 0:
        return TrainResult([], False, "no_epochs")
    state = build_network(spec, init, rng.spawn(0))
    opt = Optimizer(optimizer_spec)
    data_rng = rng.spawn(1)
    if probe is None:
        probe = train_set.inputs[: min(1000, train_set.num_samples)]
    eval_n = min(1000, train_set.num_samples)
    eval_x, eval_y = train_set.inputs[:eval_n], train_set.labels[:eval_n]

    def metric_of(rec: TrainRecord) -> float:
        return rec.train_accuracy if criterion.metric == "train_accuracy" else rec.test_accuracy

    loss0, acc0 = evaluate(state, train_set)
    records = [_epoch_stats(state, 0, probe, eval_x, eval_y, test_set, loss0, acc0, mu1)]
    success = False
    converged_epoch = None
    reason = "max_epochs"
    for epoch in range(1, max_epochs + 1):
        order = data_rng.permutation(train_set.num_samples)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, train_set.num_samples, batch_size):
            idx = order[start : start + batch_size]
            x, y = train_set.inputs[idx], train_set.labels[idx]
            trace = forward(state, x)
            loss, grad = softmax_cross_entropy(trace.logits, y)
            epoch_loss += loss * x.shape[0]
            if not math.isfinite(loss):
                break
            epoch_correct += int((trace.logits.argmax(axis=1) == y).sum())
            grads = backward(state, trace, grad)
            opt.step(_param_leaves(state, grads))
            state.rematerialize()
        rec = _epoch_stats(
            state,
            epoch,
            probe,
            eval_x,
            eval_y,
            test_set,
            epoch_loss / train_set.num_samples,
            epoch_correct / train_set.num_samples,
            mu1,
        )
        if rec is None:
            reason = "diverged"
            break
        records.append(rec)
        if not success and epoch <= criterion.max_epochs and metric_of(rec) > criterion.threshold:
            success = True
            converged_epoch = epoch
            reason = "converged"
            if early_stop:
                break
    return TrainResult(records, success, reason, converged_epoch, state)

