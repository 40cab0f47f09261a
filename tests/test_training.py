import math
import warnings

import numpy as np
import pytest

from vannodes import training as tr
from vannodes.activations import ActivationKind
from vannodes.data import synthetic_task
from vannodes.initializers import InitKind, InitializerSpec
from vannodes.linalg import Rng
from vannodes.network import NetworkSpec


def step_scalar(spec, w0, grads):
    """Drive the optimizer with a single 1x1 'parameter'."""
    opt = tr.Optimizer(spec)
    w = np.array([[w0]])
    trail = []
    for g in grads:
        opt.step([(w, np.array([[g]]))])
        trail.append(w[0, 0])
    return trail


class TestOptimizers:
    def test_sgd(self):
        spec = tr.OptimizerSpec(tr.OptimizerKind.SGD, 0.1)
        assert step_scalar(spec, 1.0, [2.0, -1.0]) == pytest.approx([0.8, 0.9])

    def test_momentum(self):
        spec = tr.OptimizerSpec(tr.OptimizerKind.SGD_MOMENTUM, 0.1)
        # v1 = 2, w = 1 - 0.2 = 0.8; v2 = 0.9*2 + 2 = 3.8, w = 0.8 - 0.38
        assert step_scalar(spec, 1.0, [2.0, 2.0]) == pytest.approx([0.8, 0.42])

    def test_rmsprop(self):
        spec = tr.OptimizerSpec(tr.OptimizerKind.RMSPROP, 0.01)
        g = 3.0
        s1 = 0.1 * g * g
        w1 = 1.0 - 0.01 * g / (math.sqrt(s1) + 1e-8)
        s2 = 0.9 * s1 + 0.1 * g * g
        w2 = w1 - 0.01 * g / (math.sqrt(s2) + 1e-8)
        assert step_scalar(spec, 1.0, [g, g]) == pytest.approx([w1, w2], rel=1e-10)

    def test_adam(self):
        spec = tr.OptimizerSpec(tr.OptimizerKind.ADAM, 0.001)
        g = 0.5
        trail = []
        m = v = 0.0
        w = 1.0
        for t in (1, 2, 3):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            w = w - 0.001 * mh / (math.sqrt(vh) + 1e-8)
            trail.append(w)
        assert step_scalar(spec, 1.0, [g, g, g]) == pytest.approx(trail, rel=1e-9)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            tr.OptimizerSpec(tr.OptimizerKind.SGD, -0.1)


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
    opt = tr.OptimizerSpec(tr.OptimizerKind.SGD, lr)
    crit = tr.SuccessCriterion(metric, 0.99, epochs)
    return spec, init, opt, synthetic_task("xor2"), crit


class TestTrain:
    def test_learns_xor(self):
        spec, init, opt, ds, crit = xor_setup()
        res = tr.train(spec, init, opt, ds, crit, Rng(0), test_set=ds, batch_size=4, epochs=60)
        assert res.success
        assert res.reason == "converged"
        assert res.records[-1].train_accuracy == 1.0

    def test_records(self):
        spec, init, opt, ds, crit = xor_setup(epochs=5)
        res = tr.train(spec, init, opt, ds, crit, Rng(0), test_set=ds, batch_size=4, epochs=5)
        assert len(res.records) == 6  # epoch 0 snapshot + 5 epochs
        assert [r.epoch for r in res.records] == list(range(6))
        r = res.records[0]
        assert 1.0 / 16 <= r.vni <= 1.0
        assert len(r.per_layer_gain) == 4
        assert np.isfinite(r.input_grad_log_norm)

    def test_deterministic(self):
        spec, init, opt, ds, crit = xor_setup(epochs=8)
        a = tr.train(spec, init, opt, ds, crit, Rng(42), test_set=ds, batch_size=4, epochs=8)
        b = tr.train(spec, init, opt, ds, crit, Rng(42), test_set=ds, batch_size=4, epochs=8)
        assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]
        assert [r.vni for r in a.records] == [r.vni for r in b.records]

    def test_seed_changes_outcome(self):
        spec, init, opt, ds, crit = xor_setup(epochs=3)
        a = tr.train(spec, init, opt, ds, crit, Rng(1), batch_size=4, epochs=3)
        b = tr.train(spec, init, opt, ds, crit, Rng(2), batch_size=4, epochs=3)
        assert a.records[-1].train_loss != b.records[-1].train_loss

    def test_early_stop(self):
        spec, init, opt, ds, crit = xor_setup(epochs=200)
        res = tr.train(
            spec, init, opt, ds, crit, Rng(0), batch_size=4, epochs=200, early_stop=True
        )
        assert res.success
        assert len(res.records) < 201
        assert res.converged_epoch == res.records[-1].epoch

    def test_divergence_reported(self):
        # unbounded activation + huge step: loss overflows to non-finite
        spec = NetworkSpec(4, 16, 2, 2, ActivationKind.RELU)
        init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 2.0)
        opt = tr.OptimizerSpec(tr.OptimizerKind.SGD, 1e12)
        crit = tr.SuccessCriterion("train_accuracy", 0.99, 20)
        with np.errstate(over="ignore", invalid="ignore"):
            res = tr.train(spec, init, opt, synthetic_task("xor2"), crit, Rng(0), batch_size=4, epochs=20)
        assert not res.success
        assert res.reason == "diverged"

    @pytest.mark.parametrize("leaf", [1, -2, -1], ids=["hidden_bias", "readout_weight", "readout_bias"])
    def test_non_finite_bias_or_readout_diverges(self, leaf, monkeypatch):
        # Every hidden weight stays finite; one bias or readout array does not.
        step = tr.Optimizer.step

        def poisoned_step(opt, leaves):
            step(opt, leaves)
            leaves[leaf][0][0] = np.inf

        monkeypatch.setattr(tr.Optimizer, "step", poisoned_step)
        spec, init, opt, ds, crit = xor_setup(depth=2, width=4, epochs=1)
        with np.errstate(all="ignore"):
            res = tr.train(spec, init, opt, ds, crit, Rng(0), batch_size=4, epochs=1)
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
        opt = tr.OptimizerSpec(tr.OptimizerKind.SGD, lr)
        crit = tr.SuccessCriterion("train_accuracy", 0.99, 10)
        with np.errstate(all="ignore"):
            res = tr.train(spec, init, opt, synthetic_task("and4"), crit, Rng(seed), batch_size=1)
        assert res.reason == "diverged"
        assert [r.epoch for r in res.records] == [0]

    def test_divergence_is_quiet(self):
        # The nan_indicator run above, with warnings as errors: train detects
        # the overflow and NaN itself, so numpy has nothing to warn about.
        spec = NetworkSpec(3, 32, 4, 4, ActivationKind.RELU)
        init = InitializerSpec(InitKind.SCALED_GAUSSIAN, 2.0)
        opt = tr.OptimizerSpec(tr.OptimizerKind.SGD, 1.0)
        crit = tr.SuccessCriterion("train_accuracy", 0.99, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = tr.train(spec, init, opt, synthetic_task("and4"), crit, Rng(2), batch_size=1)
        assert res.reason == "diverged"

    def test_failure_reason(self):
        # 1 epoch of SGD will not solve xor
        spec, init, opt, ds, crit = xor_setup(epochs=1)
        res = tr.train(spec, init, opt, ds, crit, Rng(3), batch_size=4, epochs=1)
        assert not res.success
        assert res.reason == "max_epochs"

    def test_householder_training_stays_orthogonal(self):
        spec = NetworkSpec(3, 4, 4, 4, ActivationKind.TANH)
        init = InitializerSpec(InitKind.HOUSEHOLDER)
        opt = tr.OptimizerSpec(tr.OptimizerKind.SGD, 0.05)
        crit = tr.SuccessCriterion("train_accuracy", 0.99, 10)
        ds = synthetic_task("and4")
        res = tr.train(spec, init, opt, ds, crit, Rng(4), batch_size=4, epochs=10)
        w = res.final_state.weights[1]
        assert np.allclose(w @ w.T, np.eye(4), atol=1e-9)

