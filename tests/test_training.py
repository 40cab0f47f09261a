import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from vannodes import initializers as ini
from vannodes import network as net
from vannodes import training as tr
from vannodes.activations import ActivationKind
from vannodes.data import Dataset, synthetic_task
from vannodes.initializers import InitKind, InitializerSpec
from vannodes.linalg import Rng
from vannodes.network import NetworkSpec, build_stack


def step_scalar(learning_rate, w0, grads):
    """Drive the optimizer with a single 1x1 'parameter'."""
    opt = tr.Optimizer(learning_rate)
    w = np.array([[w0]])
    trail = []
    for g in grads:
        opt.step(w, np.array([[g]]))
        trail.append(w[0, 0])
    return trail


class TestOptimizers:
    def test_sgd(self):
        assert step_scalar(0.1, 1.0, [2.0, -1.0]) == pytest.approx([0.8, 0.9])

    def test_stacked_runs_step_at_their_own_rates(self):
        # _flatten lays each parameter array out as one contiguous block of
        # one buffer that holds every run's copy; _step_buffers gives each
        # parameter its run's rate (one float when the runs share it) and a
        # gradient buffer of the same layout.  One step moves each run's
        # parameters by its rate (the gradient is scratch), and the stack of
        # chosen runs that ``network._rows`` keeps takes their rates.
        spec = NetworkSpec(2, 3, 2, 2)
        state = build_stack(spec, InitializerSpec(InitKind.SCALED_GAUSSIAN), [Rng(9, (r,)) for r in range(3)])
        params = tr._flatten(state)
        rate, grads, out = tr._step_buffers(state, np.array([0.1, 0.5, 1.0]))
        views = [*state.weights, *state.biases, state.readout_weight, state.readout_bias]
        assert params.shape == rate.shape == grads.shape == (sum(w.size for w in views),)
        before = [w.copy() for w in views]
        grads[...] = 2.0
        tr.Optimizer(rate).step(params, grads)
        for w, g, b in zip(views, [*out.weights, *out.biases, out.readout_weight, out.readout_bias], before):
            assert w.flags.c_contiguous and np.shares_memory(w, params) and np.shares_memory(g, grads)
            assert np.allclose((b - w).reshape(3, -1), [[0.2], [1.0], [2.0]])
            assert np.allclose(g.reshape(3, -1), [[0.2], [1.0], [2.0]])
        kept = net._rows(state, [2, 0])
        params = tr._flatten(kept)
        rate, grads, out = tr._step_buffers(kept, np.array([1.0, 0.1]))
        grads[...] = 1.0
        tr.Optimizer(rate).step(params, grads)
        assert all((g.reshape(2, -1) == [[1.0], [0.1]]).all() for g in [*out.weights, *out.biases])
        assert tr._step_buffers(kept, np.array([0.3, 0.3]))[0] == 0.3

    def test_gradient_of_another_shape_rejected(self):
        opt = tr.Optimizer(0.1)
        with pytest.raises(ValueError, match="gradient shape"):
            opt.step(np.zeros((2, 3)), np.zeros((3, 2)))


class TestLoss:
    def test_uniform_logits(self):
        # equal logits: loss is ln(num_classes) no matter the labels
        logits = np.zeros((4, 7))
        labels = np.array([0, 3, 6, 2])
        loss, grad = tr.softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(math.log(7))
        assert grad.shape == (4, 7)

    def test_gradient_matches_finite_difference(self):
        rng = Rng(1)
        logits = rng.normal(size=(3, 5))
        labels = np.array([1, 4, 0])
        _, grad = tr.softmax_cross_entropy(logits, labels)
        eps = 1e-7
        for i in range(3):
            for j in range(5):
                lp = logits.copy()
                lm = logits.copy()
                lp[i, j] += eps
                lm[i, j] -= eps
                fd = (tr.softmax_cross_entropy(lp, labels)[0] - tr.softmax_cross_entropy(lm, labels)[0]) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, abs=1e-6)

    def test_large_logits_stable(self):
        loss, grad = tr.softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert loss == pytest.approx(0.0, abs=1e-12)


def xor_setup(depth=4, width=16, lr=0.1, epochs=60, metric="train_accuracy"):
    spec = NetworkSpec(depth, width, 2, 2, ActivationKind.TANH)
    init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 1.5)
    crit = tr.SuccessCriterion(metric, 0.99, epochs)
    return spec, init, lr, synthetic_task("xor2"), crit


class TestTrain:
    def test_learns_xor(self):
        spec, init, lr, ds, crit = xor_setup()
        [res] = tr.train(spec, init, [(lr, Rng(0))], ds, crit, test_set=ds, batch_size=4, epochs=60)
        assert res.success
        assert res.reason == "converged"
        assert res.records[-1].train_accuracy == 1.0

    def test_records(self):
        spec, init, lr, ds, crit = xor_setup(epochs=5)
        [res] = tr.train(spec, init, [(lr, Rng(0))], ds, crit, test_set=ds, batch_size=4, epochs=5)
        assert len(res.records) == 6  # epoch 0 snapshot + 5 epochs
        assert [r.epoch for r in res.records] == list(range(6))
        r = res.records[0]
        assert 1.0 / 16 <= r.vni <= 1.0
        assert len(r.per_layer_gain) == 4
        assert np.isfinite(r.input_grad_log_norm)

    def test_deterministic(self):
        spec, init, lr, ds, crit = xor_setup(epochs=8)
        [a] = tr.train(spec, init, [(lr, Rng(42))], ds, crit, test_set=ds, batch_size=4, epochs=8)
        [b] = tr.train(spec, init, [(lr, Rng(42))], ds, crit, test_set=ds, batch_size=4, epochs=8)
        assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]
        assert [r.vni for r in a.records] == [r.vni for r in b.records]

    def test_seed_changes_outcome(self):
        spec, init, lr, ds, crit = xor_setup(epochs=3)
        [a] = tr.train(spec, init, [(lr, Rng(1))], ds, crit, batch_size=4, epochs=3)
        [b] = tr.train(spec, init, [(lr, Rng(2))], ds, crit, batch_size=4, epochs=3)
        assert a.records[-1].train_loss != b.records[-1].train_loss

    @pytest.mark.parametrize("batch_size, epochs", [(0, 3), (-1, 3), (4, -2), (4, 0)])
    def test_bad_run_sizes_rejected(self, batch_size, epochs):
        spec, init, lr, ds, crit = xor_setup(epochs=3)
        name = "batch_size" if batch_size < 1 else "epochs"
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            tr.train(spec, init, [(lr, Rng(0))], ds, crit, batch_size=batch_size, epochs=epochs)

    @pytest.mark.parametrize("lr", [0.0, -0.1, math.nan])
    def test_non_positive_learning_rate_rejected(self, lr):
        spec, init, _, ds, crit = xor_setup(epochs=1)
        with pytest.raises(ValueError, match="learning rates must be positive"):
            tr.train(spec, init, [(0.1, Rng(0)), (lr, Rng(1))], ds, crit, batch_size=4)

    def test_test_accuracy_criterion_needs_a_test_set(self):
        # Without a test set the test accuracy is NaN, so the run could never
        # succeed, however well it learns the training set.
        spec, init, lr, ds, crit = xor_setup(depth=2, width=8, lr=0.5, epochs=30, metric="test_accuracy")
        with pytest.raises(ValueError, match="test_set"):
            tr.train(spec, init, [(lr, Rng(0))], ds, crit, batch_size=4)
        assert tr.train(spec, init, [(lr, Rng(0))], ds, crit, test_set=ds, batch_size=4)[0].success

    def test_early_stop(self):
        spec, init, lr, ds, crit = xor_setup(epochs=200)
        [res] = tr.train(spec, init, [(lr, Rng(0))], ds, crit, batch_size=4, epochs=200, early_stop=True)
        assert res.success
        assert len(res.records) < 201
        assert res.converged_epoch == res.records[-1].epoch

    def test_divergence_reported(self):
        # unbounded activation + huge step: loss overflows to non-finite
        spec = NetworkSpec(4, 16, 2, 2, ActivationKind.RELU)
        init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 2.0)
        crit = tr.SuccessCriterion("train_accuracy", 0.99, 20)
        with np.errstate(over="ignore", invalid="ignore"):
            [res] = tr.train(spec, init, [(1e12, Rng(0))], synthetic_task("xor2"), crit, batch_size=4, epochs=20)
        assert not res.success
        assert res.reason == "diverged"

    @pytest.mark.parametrize("leaf", ["hidden_bias", "readout_weight", "readout_bias"])
    def test_non_finite_bias_or_readout_diverges(self, leaf, monkeypatch):
        # Every hidden weight stays finite; one bias or readout array does not.
        states, flatten, step = [], tr._flatten, tr.Optimizer.step
        monkeypatch.setattr(tr, "_flatten", lambda state: states.append(state) or flatten(state))

        def poisoned_step(opt, params, grads):
            step(opt, params, grads)
            state = states[-1]
            arrays = {"hidden_bias": state.biases[0], "readout_weight": state.readout_weight}
            arrays.get(leaf, state.readout_bias)[0][0] = np.inf

        monkeypatch.setattr(tr.Optimizer, "step", poisoned_step)
        spec, init, lr, ds, crit = xor_setup(depth=2, width=4, epochs=1)
        with np.errstate(all="ignore"):
            [res] = tr.train(spec, init, [(lr, Rng(0))], ds, crit, batch_size=4, epochs=1)
        assert all(np.all(np.isfinite(w)) for w in res.final_state.weights)
        assert res.reason == "diverged"

    @pytest.mark.parametrize(
        "lr, seed",
        [(10.0, 0), (10.0, 1), (10.0, 2), (10.0, 3), (1.0, 2)],
        ids=["constant0", "constant1", "constant2", "constant3", "nan_indicator"],
    )
    def test_undefined_epoch_statistics_diverge(self, lr, seed):
        # At lr = 10 every ReLU probe node goes constant after epoch 1 (the
        # indicator has no correlations to read); at lr = 1 with seed 2 epoch 1
        # ends with finite parameters and loss but a NaN indicator and a +inf
        # gradient log-norm.  Both runs end as diverged, keeping epoch 0 only.
        spec = NetworkSpec(3, 32, 4, 4, ActivationKind.RELU)
        init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 2.0)
        crit = tr.SuccessCriterion("train_accuracy", 0.99, 10)
        with np.errstate(all="ignore"):
            [res] = tr.train(spec, init, [(lr, Rng(seed))], synthetic_task("and4"), crit, batch_size=1)
        assert res.reason == "diverged"
        assert [r.epoch for r in res.records] == [0]

    def test_divergence_is_quiet(self):
        # The nan_indicator run above, with warnings as errors: train detects
        # the overflow and NaN itself, so numpy has nothing to warn about.
        spec = NetworkSpec(3, 32, 4, 4, ActivationKind.RELU)
        init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 2.0)
        crit = tr.SuccessCriterion("train_accuracy", 0.99, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [res] = tr.train(spec, init, [(1.0, Rng(2))], synthetic_task("and4"), crit, batch_size=1)
        assert res.reason == "diverged"

    def test_undefined_indicator_alone_diverges(self):
        # A probe whose covariance overflows leaves the indicator NaN while the
        # parameters, the loss and the input gradient stay finite; the same run
        # on the task inputs converges.
        spec = NetworkSpec(2, 8, 2, 2, ActivationKind.RELU)
        init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 2.0)
        crit = tr.SuccessCriterion("train_accuracy", 0.99, 5)
        probe = Rng(1).normal(size=(16, 2)) * 1e200
        [res] = tr.train(spec, init, [(0.1, Rng(0))], synthetic_task("xor2"), crit, batch_size=4, probe=probe)
        assert res.reason == "diverged" and len(res.records) == 1
        assert math.isnan(res.records[0].vni) and math.isfinite(res.records[0].input_grad_log_norm)
        assert tr.train(spec, init, [(0.1, Rng(0))], synthetic_task("xor2"), crit, batch_size=4)[0].success

    def test_failure_reason(self):
        # 1 epoch of SGD will not solve xor
        spec, init, lr, ds, crit = xor_setup(epochs=1)
        [res] = tr.train(spec, init, [(lr, Rng(3))], ds, crit, batch_size=4, epochs=1)
        assert not res.success
        assert res.reason == "max_epochs"

    def test_householder_training_stays_orthogonal(self):
        spec = NetworkSpec(3, 4, 4, 4, ActivationKind.TANH)
        init = InitializerSpec(InitKind.HOUSEHOLDER)
        crit = tr.SuccessCriterion("train_accuracy", 0.99, 10)
        ds = synthetic_task("and4")
        [res] = tr.train(spec, init, [(0.05, Rng(4))], ds, crit, batch_size=4, epochs=10)
        w = res.final_state.weights[1]
        assert np.allclose(w @ w.T, np.eye(4), atol=1e-9)


# -- runs trained together --------------------------------------------------
#
# GOLDEN holds fingerprints of runs trained one at a time, recorded before
# the runs of one shape were stepped together: every record field and every
# final parameter array keeps its exact bits, alone or in a stack.  The
# householder entries are those of W = I - U^T (S U) with S from one
# triangular inverse.


def _record_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        scalars = (r.train_loss, r.train_accuracy, r.test_accuracy, r.vni, r.input_grad_log_norm)
        h.update(repr(r.epoch).encode())
        h.update(" ".join(f"{type(v).__name__}:{float(v).hex()}" for v in scalars).encode())
        h.update(str(r.per_layer_gain.shape).encode() + r.per_layer_gain.tobytes())
    return h.hexdigest()[:16]


def _state_arrays(state) -> list:
    arrays = [*state.weights, *state.biases]
    if state.stacks is not None:
        arrays += [s.vectors for s in state.stacks if s is not None]
    if state.spec.num_classes > 0:
        arrays += [state.readout_weight, state.readout_bias]
    return arrays


def _state_digest(state) -> str:
    h = hashlib.sha256()
    for a in _state_arrays(state):
        h.update(str(a.shape).encode() + np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _fingerprint(res) -> tuple:
    last = res.records[-1]
    return (
        res.success,
        res.reason,
        res.converged_epoch,
        len(res.records),
        float(last.train_loss).hex(),
        float(last.vni).hex(),
        _record_digest(res.records),
        _state_digest(res.final_state),
    )


def _case(name) -> tuple:
    """(train arguments, train keywords, runs) of one golden case; each run
    is a (learning rate, Rng) pair."""
    and4, xor2 = synthetic_task("and4"), synthetic_task("xor2")
    tanh, relu = ActivationKind.TANH, ActivationKind.RELU
    gauss = InitKind.SCALED_GAUSSIAN
    crit = tr.SuccessCriterion("train_accuracy", 0.99, 10)
    if name == "grid_tanh":  # the grid-tanh workload at one depth: its three learning rates
        args = (NetworkSpec(10, 32, 4, 4, tanh), InitializerSpec(gauss, 1.00101), and4, crit)
        runs = [(lr, Rng(7, (1, j, 0))) for j, lr in enumerate((0.01, 0.1, 1.0))]
        return args, dict(batch_size=1, mu1=0.99), runs
    if name == "relu_nan_indicator":  # diverges in epoch 1 on its statistics
        args = (NetworkSpec(3, 32, 4, 4, relu), InitializerSpec(gauss, 2.0), and4, crit)
        return args, dict(batch_size=1), [(1.0, Rng(2))]
    if name == "relu_overflow":  # the loss turns non-finite inside an epoch
        args = (NetworkSpec(4, 16, 2, 2, relu), InitializerSpec(gauss, 2.0), xor2, crit)
        return args, dict(batch_size=4, epochs=20), [(1e12, Rng(0))]
    if name == "xor2_early_stop":
        spec, init, _, ds, c = xor_setup(epochs=200)
        return (spec, init, ds, c), dict(batch_size=4, epochs=200, early_stop=True), [(0.1, Rng(0))]
    if name == "xor2_two_rates":  # two rates in one stack, scored on a test set
        spec, init, _, ds, c = xor_setup(epochs=5)
        runs = [(lr, Rng(5 + i)) for i, lr in enumerate((0.05, 0.2))]
        return (spec, init, ds, c), dict(test_set=ds, batch_size=4, epochs=5), runs
    if name == "householder":
        args = (NetworkSpec(3, 4, 4, 4, tanh), InitializerSpec(InitKind.HOUSEHOLDER), and4, crit)
        runs = [(0.05, Rng(4)), (0.2, Rng(5))]
        return args, dict(batch_size=4, test_set=and4), runs
    if name == "orthogonal":
        args = (NetworkSpec(3, 16, 4, 4, tanh), InitializerSpec(InitKind.ORTHOGONAL), and4, crit)
        return args, dict(batch_size=4, epochs=5), [(0.1, Rng(6))]
    raise KeyError(name)


def _train_case(name, together: bool) -> list:
    (spec, init, ds, crit), kw, runs = _case(name)
    if together:
        return tr.train(spec, init, runs, ds, crit, **kw)
    return [tr.train(spec, init, [run], ds, crit, **kw)[0] for run in runs]


GOLDEN = {
    'grid_tanh': [
        (True, 'converged', 10, 11, '0x1.018bffae58f3ap-2', '0x1.fb2beda93d088p-2', 'fe82bf87c82171b8', '526bef389bbbfe9f'),
        (False, 'max_epochs', None, 11, '0x1.70d732c661f87p-1', '0x1.9f40062685e54p-1', 'e3919af2fc11ec4e', 'cc5d1daa3dcf2ede'),
        (False, 'max_epochs', None, 11, '0x1.44adc5c5175b1p+4', '0x1.fffffffffffefp-1', '14acb67e0224d4db', '88aab56ff94f0992'),
    ],
    'relu_nan_indicator': [
        (False, 'diverged', None, 1, '0x1.8fdd3bbd33786p+0', '0x1.610d9c29b9affp-3', '789641c0d6134aa2', 'dd538aa2ad4d530f'),
    ],
    'relu_overflow': [
        (False, 'diverged', None, 2, '0x1.ce7b5d4280de0p+0', '0x1.fff0c38619ed9p-1', '382ac91c0b65a237', '3ca000a47850a77f'),
    ],
    'xor2_early_stop': [
        (True, 'converged', 13, 14, '0x1.0ea53a5d6702ap-1', '0x1.29e73183b767ap-1', 'a48a4943d731e609', 'bfd58be619c10681'),
    ],
    'xor2_two_rates': [
        (False, 'max_epochs', None, 6, '0x1.5362c60155e62p-1', '0x1.14440cb65f70bp-1', '5b75a0d11aa4a179', '83173315217eec6f'),
        (True, 'converged', 3, 6, '0x1.20396844fc242p-1', '0x1.f6e5ae6df316ep-2', '8709eeb39f27f5da', '5df7e44fd75b5a59'),
    ],
    'householder': [
        (False, 'max_epochs', None, 11, '0x1.d8e750dfff4cfp-1', '0x1.08426f1e25157p-2', '27882dcfcfd00265', 'a5505993bd2a03cd'),
        (False, 'max_epochs', None, 11, '0x1.af4a704a793ccp-1', '0x1.05dd7297286a1p-2', 'c23cb954030f5e7a', '4752d05f2c7d57fd'),
    ],
    'orthogonal': [
        (False, 'max_epochs', None, 6, '0x1.2f9dffcb7009fp-1', '0x1.40dfc18c8c6dfp-2', 'e20f34ef4452817a', 'e045c89d334826a8'),
    ],
}


@pytest.mark.parametrize("together", [False, True], ids=["alone", "together"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_runs_keep_their_golden_bits(name, together):
    assert [_fingerprint(r) for r in _train_case(name, together)] == GOLDEN[name]


def _assert_same_run(a, b):
    assert (a.success, a.reason, a.converged_epoch) == (b.success, b.reason, b.converged_epoch)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        for f in ("epoch", "train_loss", "train_accuracy", "test_accuracy", "vni", "input_grad_log_norm"):
            va, vb = getattr(ra, f), getattr(rb, f)
            assert type(va) is type(vb) and float(va).hex() == float(vb).hex(), f
        assert ra.per_layer_gain.tobytes() == rb.per_layer_gain.tobytes()
    for x, y in zip(_state_arrays(a.final_state), _state_arrays(b.final_state), strict=True):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("seed, batch_size", [(3, 1), (1, 3), (0, 3)])
def test_runs_trained_together_equal_runs_trained_alone(seed, batch_size):
    # One stack holds runs that stop early, runs that diverge (seed 3:
    # one on a non-finite batch loss inside epoch 1, one on its epoch-4
    # statistics) and a run that goes on to the last epoch; each run ends
    # as it does alone.
    spec = NetworkSpec(4, 16, 2, 2, ActivationKind.RELU)
    init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 2.0)
    ds = synthetic_task("xor2")
    crit = tr.SuccessCriterion("train_accuracy", 0.99, 15)
    runs = [(lr, Rng(seed, (run,))) for run, lr in enumerate((0.1, 1e12, 0.3, 1e-3))]
    kw = dict(test_set=ds, batch_size=batch_size, early_stop=True, mu1=0.5)
    together = tr.train(spec, init, runs, ds, crit, **kw)
    assert {"converged", "diverged", "max_epochs"} <= {r.reason for r in together}
    for run, res in zip(runs, together, strict=True):
        _assert_same_run(res, tr.train(spec, init, [run], ds, crit, **kw)[0])


def test_undefined_epoch_statistics_diverge_in_a_stack():
    # The five runs of test_undefined_epoch_statistics_diverge in one stack
    # with a healthy run: the five leave on their epoch-1 statistics, the
    # healthy run trains on, and each ends as it does alone.
    spec = NetworkSpec(3, 32, 4, 4, ActivationKind.RELU)
    init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 2.0)
    crit = tr.SuccessCriterion("train_accuracy", 0.99, 10)
    ds = synthetic_task("and4")
    runs = [(lr, Rng(seed)) for lr, seed in [(10.0, 0), (10.0, 1), (10.0, 2), (10.0, 3), (1.0, 2), (0.01, 0)]]
    with np.errstate(all="ignore"):
        together = tr.train(spec, init, runs, ds, crit, batch_size=1)
        alone = [tr.train(spec, init, [run], ds, crit, batch_size=1)[0] for run in runs]
    assert [len(r.records) for r in together] == [1] * 5 + [11]
    assert [r.reason for r in together[:5]] == ["diverged"] * 5 and together[5].reason != "diverged"
    for a, b in zip(together, alone, strict=True):
        _assert_same_run(a, b)


def test_train_of_no_runs_returns_no_results():
    spec, init, _, ds, crit = xor_setup(epochs=1)
    assert tr.train(spec, init, [], ds, crit, batch_size=4) == []


@pytest.mark.parametrize("name", ["grid_tanh", "householder"])
def test_statistics_take_the_runs_in_groups(name, monkeypatch):
    # A budget of one float trains each run in its own stack; every record
    # keeps its bits.
    monkeypatch.setattr(tr, "_TRACE_FLOATS", 1)
    assert [_fingerprint(r) for r in _train_case(name, together=True)] == GOLDEN[name]


def test_runs_that_leave_the_stack_own_their_final_state(monkeypatch):
    # Every run, whether it ends early or at the last epoch, keeps a copy of
    # its parameters, not a view that would hold the whole stack it left:
    # no final array shares memory with a parameter buffer train made.
    buffers, flatten = [], tr._flatten
    monkeypatch.setattr(tr, "_flatten", lambda state: buffers.append(flatten(state)) or buffers[-1])
    spec = NetworkSpec(4, 16, 2, 2, ActivationKind.RELU)
    init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 2.0)
    ds = synthetic_task("xor2")
    crit = tr.SuccessCriterion("train_accuracy", 0.99, 15)
    runs = [(lr, Rng(3, (run,))) for run, lr in enumerate((0.1, 1e12, 0.3, 1e-3))]
    results = tr.train(spec, init, runs, ds, crit, batch_size=1, early_stop=True, mu1=0.5)
    assert {r.reason for r in results} == {"converged", "diverged", "max_epochs"}
    results += _train_case("householder", together=True)  # runs that all reach the last epoch
    assert len(buffers) > 2  # the stacks shrank as runs left
    for res in results:
        assert all(a.base is None for a in _state_arrays(res.final_state))
        assert not any(np.shares_memory(a, b) for a in _state_arrays(res.final_state) for b in buffers)



def test_train_forms_the_factors_once_per_build_and_step(monkeypatch):
    # R runs of H reflection layers and S steps: the build forms the
    # factors once for the stack, each step's rematerialize once, and the
    # first backward reads the factors the build left.
    calls = []
    wy_factors = ini._wy_factors
    monkeypatch.setattr(ini, "_wy_factors", lambda v: calls.append(v.shape) or wy_factors(v))
    spec = NetworkSpec(3, 4, 4, 4, ActivationKind.TANH)
    crit = tr.SuccessCriterion("train_accuracy", 0.99, 4)
    runs = [(0.1, Rng(5, (r,))) for r in range(2)]
    tr.train(spec, InitializerSpec(InitKind.HOUSEHOLDER), runs, synthetic_task("and4"), crit, batch_size=8)
    layers, steps = 3, 4 * 2
    assert len(calls) == layers * (1 + steps)
    assert set(calls) == {(2, 4, 4)}


class _NoLinalg:
    def __getattr__(self, name):
        raise AssertionError(f"np.linalg.{name} called")


# Householder runs of which one leaves its stack early, by the reason it
# ends: (task, spec, learning rates, max epochs, batch size, early stop)
_LEAVING = {
    "converged": ("and2", NetworkSpec(3, 16, 2, 2, ActivationKind.TANH), (0.3, 0.01), 15, 1, True),
    "diverged": ("and4", NetworkSpec(3, 4, 4, 4, ActivationKind.TANH), (0.1, 1e12, 0.1), 6, 8, False),
}


@pytest.mark.parametrize("reason", sorted(_LEAVING))
def test_a_stack_keeps_the_factors_of_its_w_as_runs_leave(reason, monkeypatch):
    # At the start of every step (after the build, after the step before,
    # and after ``network._rows`` keeps the runs that go on), each
    # Householder layer of the stack holds the W and the WY factors of its
    # reflection vectors, bit for bit.  So the first step after a run leaves
    # makes no LAPACK call, and the L' reflection layers form their factors
    # L' (1 + steps) times: once at the build and once per step.
    task, spec, lrs, max_epochs, batch_size, early_stop = _LEAVING[reason]
    calls, trims, guarded, steps = [], [], [], 0
    wy_factors, rows, gradients = ini._wy_factors, tr._rows, tr._gradients
    monkeypatch.setattr(ini, "_wy_factors", lambda v: calls.append(v.shape) or wy_factors(v))
    monkeypatch.setattr(tr, "_rows", lambda state, keep: trims.append(keep) or rows(state, keep))

    def step(state, *args):
        nonlocal steps
        steps += 1
        formed = len(calls)
        for l, stack in enumerate(state.stacks):
            if stack is not None:
                fresh = ini.HouseholderStack.unchecked(stack.vectors.copy())
                assert state.weights[l].tobytes() == ini.householder_materialize(fresh).tobytes()
                assert [f.tobytes() for f in stack.factors] == [f.tobytes() for f in fresh.factors]
        del calls[formed:]  # the check's own
        with monkeypatch.context() as m:
            if len(trims) > len(guarded):  # the first step after a trim
                m.setattr(np, "linalg", _NoLinalg())
                guarded.append(trims[-1])
            gradients(state, *args)

    monkeypatch.setattr(tr, "_gradients", step)
    crit = tr.SuccessCriterion("train_accuracy", 0.99, max_epochs)
    runs = [(lr, Rng(5, (r,))) for r, lr in enumerate(lrs)]
    init = InitializerSpec(InitKind.HOUSEHOLDER)
    results = tr.train(spec, init, runs, synthetic_task(task), crit, batch_size=batch_size, early_stop=early_stop)
    assert reason in {r.reason for r in results}
    assert trims and guarded == trims
    reflections = spec.depth_L - (spec.input_dim != spec.width_N)
    assert len(calls) == reflections * (1 + steps)


def _same_record(a, b) -> bool:
    fields = ("epoch", "train_loss", "train_accuracy", "test_accuracy", "vni", "input_grad_log_norm")
    return all(float(getattr(a, f)).hex() == float(getattr(b, f)).hex() for f in fields) and (
        a.per_layer_gain.tobytes() == b.per_layer_gain.tobytes()
    )


@pytest.mark.parametrize("leaf", ["weight", "bias", "readout_weight", "readout_bias", "householder"])
def test_epoch_stats_flag_only_the_run_with_a_non_finite_parameter(leaf):
    # Run 1 of three gets an inf (NaN in its reflection vectors) in one
    # array, with a finite loss passed in.  At a hidden bias of a tanh
    # network only the parameter check can see it: tanh(inf) = 1, and the
    # derivative 0 there keeps the input gradient finite.
    kind = InitKind.HOUSEHOLDER if leaf == "householder" else InitKind.SCALED_GAUSSIAN
    spec = NetworkSpec(3, 4, 4, 4, ActivationKind.TANH)
    ds = synthetic_task("and4")
    state = build_stack(spec, InitializerSpec(kind), [Rng(0, (run,)) for run in range(3)])
    loss, acc = tr.evaluate(state, ds)
    clean = tr._epoch_stats(state, 1, ds.inputs, ds, ds, loss, acc, 1.0)
    if leaf == "householder":
        state.stacks[1].vectors[1, 0, -1] = np.nan
        state.rematerialize()
    else:
        arrays = {"weight": state.weights[1], "bias": state.biases[1]}
        (arrays[leaf] if leaf in arrays else getattr(state, leaf))[1, 0, -1] = np.inf
    with np.errstate(all="ignore"):
        stats = tr._epoch_stats(state, 1, ds.inputs, ds, ds, loss, acc, 1.0)
    assert stats[1] is None
    assert _same_record(stats[0], clean[0]) and _same_record(stats[2], clean[2])

def test_all_finite_flags_only_the_run_that_holds_a_nan():
    spec = NetworkSpec(3, 4, 4, 4, ActivationKind.TANH)
    init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 1.0)
    for leaf in ("biases", "readout_weight", "readout_bias"):
        state = build_stack(spec, init, [Rng(0, (run,)) for run in range(3)])
        assert tr._all_finite(state).tolist() == [True, True, True]
        array = state.biases[1] if leaf == "biases" else getattr(state, leaf)
        array[1, 0, -1] = np.nan
        assert tr._all_finite(state).tolist() == [True, False, True], leaf


@pytest.mark.parametrize("kind", [InitKind.SCALED_GAUSSIAN, InitKind.HOUSEHOLDER])
def test_epoch_stats_make_one_pass_over_the_task_inputs(kind, monkeypatch):
    # With the default probe and the training set as test set, one forward
    # pass gives every record field, with the bits of separate passes: an
    # explicit probe, a test set that is another object, and the epoch-0
    # loss and accuracy from evaluate.
    spec = NetworkSpec(3, 4, 4, 4, ActivationKind.TANH)
    ds = synthetic_task("and4")
    state = build_stack(spec, InitializerSpec(kind), [Rng(1, (run,)) for run in range(3)])
    calls = []
    forward, layers = tr.forward, net._layers  # the one loop over the layers, behind forward and layers
    monkeypatch.setattr(tr, "forward", lambda *a: calls.append("forward") or forward(*a))
    monkeypatch.setattr(net, "_layers", lambda *a: calls.append("layers") or layers(*a))
    one = tr._epoch_stats(state, 0, None, ds, ds, None, None, 1.0)
    assert calls == ["forward", "layers"]
    other = Dataset(ds.inputs.copy(), ds.labels.copy(), ds.num_classes)
    apart = tr._epoch_stats(state, 0, ds.inputs, ds, other, *tr.evaluate(state, ds), 1.0)
    assert calls.count("layers") > 2
    assert all(_same_record(a, b) for a, b in zip(one, apart, strict=True))


@pytest.mark.parametrize(
    "case, phrase",
    [
        ("logits_ndim", "logits must be (n, classes) or (runs, n, classes), got (4,)"),
        ("label_shape", "labels must have shape (4,)"),
        ("label_below", "labels outside [0, 3)"),
        ("label_above", "labels outside [0, 3)"),
        ("num_classes", "network num_classes does not match dataset"),
    ],
)
def test_bad_input_raises_a_value_error_that_names_it(case, phrase):
    logits = np.zeros((4, 3))
    spec, init, lr, ds, crit = xor_setup(epochs=1)
    calls = {
        "logits_ndim": lambda: tr.softmax_cross_entropy(np.zeros(4), np.zeros(4)),
        "label_shape": lambda: tr.softmax_cross_entropy(logits, np.zeros(3)),
        "label_below": lambda: tr.softmax_cross_entropy(logits, [0, -1, 0, 0]),
        "label_above": lambda: tr.softmax_cross_entropy(logits, [0, 3, 0, 0]),
        "num_classes": lambda: tr.train(NetworkSpec(2, 4, 2, 3), init, [(lr, Rng(0))], ds, crit, batch_size=4),
    }
    with pytest.raises(ValueError, match=re.escape(phrase)):
        calls[case]()
