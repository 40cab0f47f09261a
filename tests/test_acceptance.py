"""End-to-end acceptance checks for the collapse diagnostic.

Each test covers one headline claim and prints a single PASS/FAIL line with
the measured numbers, so a bare ``pytest -v tests/test_acceptance.py`` run
reads as a scorecard.  Tolerances and seeds are pinned; nothing here is
re-tuned at run time.

The MNIST-dependent checks skip when the IDX files are absent (set
VNLB_MNIST_DIR or place them under data/mnist/); everything else is
self-contained.  The walking-dead-ratio clause of criterion 6 is expected to
fail: the rank-1 bottleneck network's input gradient already sits several
decades below the healthy network's before any update, and the gap widens
once the healthy run has fitted its task (see the comment on that test).
"""

import math
import os

import numpy as np
import pytest

import vannodes as vn
from vannodes.activations import ActivationKind, ActivationMoments, mu_quadrature
from vannodes.cpus import fan_out
from vannodes.experiments import _probe_pass, _probe_work
from vannodes.initializers import InitKind, InitializerSpec, householder_backward
from vannodes.linalg import Rng
from vannodes.network import NetworkSpec, backward, build_network, forward

# Minutes of end-to-end runs: ``pytest -m "not slow"`` runs the unit suite alone.
pytestmark = pytest.mark.slow

GAUSS = InitKind.SCALED_GAUSSIAN


def check(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def mnist_dir():
    candidates = [
        os.environ.get("VNLB_MNIST_DIR"),
        os.path.join(os.path.dirname(__file__), "..", "data", "mnist"),
    ]
    for cand in candidates:
        if cand and os.path.exists(os.path.join(cand, "train-images-idx3-ubyte")):
            return cand
    return None


def tuned(kind: ActivationKind, sigma_x_sq: float):
    """Tuned gain, its fixed-point variance, and the derivative moments."""
    sw2, q_star = vn.tune_sigma_w_sq(kind, sigma_x_sq)
    mom = ActivationMoments(*mu_quadrature(kind, q_star), q_star)
    return sw2, q_star, mom


def measure_vni(depth, width, kind, init, probe, rng):
    # The indicator at x_L of the network build_network(spec, init, rng)
    # would draw, from the runners' probe pass (one layer held at a time,
    # read again in float64 where float32 is refused).
    spec = NetworkSpec(depth, width, probe.shape[1], 0, kind)
    return _probe_pass(spec, init, rng, lambda: probe, lambda x_L: vn.vni_empirical(x_L)[0], {depth})[depth]


def measure_vnis(cases: list) -> list:
    """measure_vni of each (depth, width, kind, init, probe, rng) case, in
    order.  The passes are independent, so they are spread over the CPUs,
    each call's work its probe pass's estimate."""
    calls = [(_probe_work(c[0], c[4].shape[0], c[1]), lambda c=c: measure_vni(*c)) for c in cases]
    return list(fan_out(calls))


def test_criterion_01_theory_vs_simulation():
    # Hard-tanh + i.i.d. Gaussian at tuned gain: the moment prediction tracks
    # the measured indicator across depth wherever the raw prediction <= 0.8.
    n, seeds, sigma_x_sq = 200, 20, 0.1
    sw2, q_star, mom = tuned(ActivationKind.HARD_TANH, sigma_x_sq)
    init = InitializerSpec(GAUSS, sw2)
    s1 = vn.s1_for_ensemble(GAUSS)
    probe = vn.gaussian_probe(1000, n, sigma_x_sq, Rng(7))
    depths = [depth for depth in range(10, 101, 10) if vn.vni_theoretical(depth, n, mom, s1)[1] <= 0.8]
    measured = measure_vnis(
        [(depth, n, ActivationKind.HARD_TANH, init, probe, Rng(0, (n, depth, seed))) for depth in depths for seed in range(seeds)]
    )
    worst = ("", 0.0)
    ok = True
    for i, depth in enumerate(depths):
        _, raw = vn.vni_theoretical(depth, n, mom, s1)
        vals = measured[i * seeds : (i + 1) * seeds]
        diff = abs(float(np.mean(vals)) - raw)
        tol = max(0.05, 2.0 * float(np.std(vals, ddof=1)))
        if diff > worst[1]:
            worst = (f"L={depth} diff={diff:.3f} tol={tol:.3f}", diff)
        ok = ok and diff <= tol
    check(1, "theory tracks simulation (hard-tanh, N=200)", ok, worst[0])


def test_criterion_02_route_identity():
    # The correlation-weighted definition and tr(CC)/tr(C)^2 on the sample
    # covariance are the same number, to floating-point accuracy.
    rng = Rng(21)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        b = int(rng.integers(n + 1, 4 * n + 2))
        acts = rng.normal(size=(b, n), std=float(rng.uniform(low=0.1, high=3.0)))
        value, _, _ = vn.vni_empirical(acts)
        centered = acts - acts.mean(axis=0)
        cov = (centered.T @ centered) / (b - 1)
        worst = max(worst, abs(value - vn.vni_from_covariance(cov)))
    check(2, "definition == covariance route", worst <= 1e-10, f"max |diff|={worst:.2e}")


def test_criterion_03_monotonicity():
    sigma_x_sq, seeds = 0.1, 20
    sw2, _, _ = tuned(ActivationKind.HARD_TANH, sigma_x_sq)
    init = InitializerSpec(GAUSS, sw2)
    cells = [(depth, 200) for depth in (10, 50, 100)] + [(50, width) for width in (50, 200, 500)]
    distinct = list(dict.fromkeys(cells))  # (50, 200) is in both sweeps: measured once
    probes = {width: vn.gaussian_probe(1000, width, sigma_x_sq, Rng(7)) for width in (50, 200, 500)}
    measured = measure_vnis(
        [
            (depth, width, ActivationKind.HARD_TANH, init, probes[width], Rng(0, (width, depth, s)))
            for depth, width in distinct
            for s in range(seeds)
        ]
    )
    mean = {cell: float(np.mean(measured[i * seeds : (i + 1) * seeds])) for i, cell in enumerate(distinct)}
    by_depth, by_width = [mean[cell] for cell in cells[:3]], [mean[cell] for cell in cells[3:]]
    ok = by_depth[0] < by_depth[1] < by_depth[2] and by_width[0] > by_width[1] > by_width[2]
    check(
        3,
        "VNI grows with L, shrinks with N",
        ok,
        "L-sweep " + "/".join(f"{v:.3f}" for v in by_depth)
        + "  N-sweep " + "/".join(f"{v:.3f}" for v in by_width),
    )


def test_criterion_04_collapse_theorem():
    # A rank-1 covariance has exactly one effective node, at any threshold,
    # and the closed-form count agrees at both extremes of the indicator.
    rng = Rng(4)
    epsilons = (0.01, 0.1, 0.5, 0.9)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 201))
        u = rng.normal(size=n)
        c = np.outer(u, u)
        ok = ok and all(vn.epsilon_enn(c, eps) == 1 for eps in epsilons)
        ok = ok and all(abs(vn.enn_from_rsq(n, 1.0, eps) - 1.0) <= 1e-9 for eps in epsilons)
        ok = ok and abs(vn.enn_from_rsq(n, 1.0 / n, 1.0) - n) <= 1e-9
    check(4, "rank-1 covariance counts as one node", ok)


def test_criterion_05_orthogonal_depth_independence():
    n, seeds, sigma_x_sq = 100, 20, 1.0
    sw2, _, _ = tuned(ActivationKind.TANH, sigma_x_sq)
    init = InitializerSpec(InitKind.ORTHOGONAL, sw2)
    probe = vn.gaussian_probe(1000, n, sigma_x_sq, Rng(7))
    depths = (10, 50, 100)
    measured = measure_vnis(
        [(depth, n, ActivationKind.TANH, init, probe, Rng(1, (depth, seed))) for depth in depths for seed in range(seeds)]
    )
    means = [float(np.mean(measured[i * seeds : (i + 1) * seeds])) for i in range(len(depths))]
    ok = all(m <= 3.0 / n for m in means)
    check(
        5,
        "orthogonal tanh stays near the 1/N floor",
        ok,
        "mean VNI " + "/".join(f"{m:.4f}" for m in means) + f" vs 3/N={3.0 / n:.3f}",
    )


def _train_task(task, init_kind, sw2, mu1, seed_key, lr=0.01, epochs=100, depth=20, width=64):
    ds = vn.synthetic_task(task)
    spec = NetworkSpec(depth, width, ds.input_dim, ds.num_classes, ActivationKind.TANH)
    init = (
        InitializerSpec(InitKind.BOTTLENECK, sw2, bottleneck_nb=1)
        if init_kind is InitKind.BOTTLENECK
        else InitializerSpec(init_kind, sw2)
    )
    return vn.train(
        spec,
        init,
        [(lr, Rng(1, seed_key))],
        ds,
        vn.SuccessCriterion("test_accuracy", 0.99, epochs),
        test_set=ds,
        batch_size=1,
        mu1=mu1,
    )[0]


def test_criterion_06_walking_dead_table():
    # Healthy i.i.d. init learns the small Boolean tasks; the rank-1
    # bottleneck init sits at VNI ~ 1 and cannot, even though its gradients
    # are not small.  The final clause (per-epoch gradient-norm log-ratio
    # within one decade of the healthy run) fails, for two causes:
    # 1. init_bottleneck draws the rank-1 factors of consecutive layers
    #    independently, so each backward step through a layer multiplies the
    #    squared gradient by an overlap factor distributed ~ chi^2_1.  Its
    #    mean is 1 (per_layer_gain reads ~0.99 and the gain clause passes),
    #    but E[log10 chi^2_1] = -0.55, so over the 19 square layers a
    #    typical network loses ~10.5 decades.  At this seed the gap is
    #    already 5.9-7.5 decades at epoch 0.
    # 2. early_stop is off, so the healthy run keeps training after it fits
    #    the task; its cross-entropy falls to 0.004-0.02 and its loss
    #    gradient falls with it, by 1.8-3.4 decades over 100 epochs (on
    #    xor2 the bottleneck run's own gradient also falls 3.4 decades).
    # Fixing each consecutive overlap at +1 closes the epoch-0 gap to within
    # a decade, but the bottleneck gradient then falls 4-6 decades during
    # training and the gain and VNI clauses break, so no program fix is
    # known.  Kept red deliberately rather than loosened.
    sw2, _, mom = tuned(ActivationKind.TANH, 1.0)
    results = {}
    for task in ("and2", "and4", "xor2"):
        for kind in (GAUSS, InitKind.BOTTLENECK):
            results[task, kind] = _train_task(task, kind, sw2, mom.mu1, (1,))

    ok_gauss = all(results[t, GAUSS].success for t in ("and2", "and4", "xor2"))
    ok_bneck = all(not results[t, InitKind.BOTTLENECK].success for t in ("and4", "xor2"))
    min_bneck_vni = min(
        rec.vni
        for t in ("and4", "xor2")
        for rec in results[t, InitKind.BOTTLENECK].records
    )
    gains = [
        float(g)
        for res in results.values()
        for rec in res.records
        for g in rec.per_layer_gain
    ]
    ok_gain = min(gains) >= 0.5 and max(gains) <= 2.0

    mnist = mnist_dir()
    mnist_note = "MNIST slice skipped (files absent)"
    ok_mnist = True
    if mnist:
        train_set = vn.load_mnist_idx(
            os.path.join(mnist, "train-images-idx3-ubyte"),
            os.path.join(mnist, "train-labels-idx1-ubyte"),
        ).take(5000)
        test_set = vn.load_mnist_idx(
            os.path.join(mnist, "t10k-images-idx3-ubyte"),
            os.path.join(mnist, "t10k-labels-idx1-ubyte"),
        )
        spec = NetworkSpec(20, 64, train_set.input_dim, 10, ActivationKind.TANH)
        crit = vn.SuccessCriterion("test_accuracy", 0.9, 100)
        res_g = vn.train(
            spec, InitializerSpec(GAUSS, sw2), [(0.01, Rng(0, (2,)))],
            train_set, crit, test_set=test_set, batch_size=1, mu1=mom.mu1,
        )[0]
        res_b = vn.train(
            spec, InitializerSpec(InitKind.BOTTLENECK, sw2, bottleneck_nb=1), [(0.01, Rng(0, (2,)))],
            train_set, crit, test_set=test_set, batch_size=1, mu1=mom.mu1,
        )[0]
        ok_mnist = res_g.success and not res_b.success
        ok_mnist = ok_mnist and all(r.vni >= 0.95 for r in res_b.records)
        mnist_note = f"MNIST gauss={res_g.success} bneck={res_b.success}"

    ratios = []
    for task in ("and2", "and4", "xor2"):
        a = results[task, GAUSS].records
        b = results[task, InitKind.BOTTLENECK].records
        for e in range(min(len(a), len(b))):
            ratios.append(a[e].input_grad_log_norm - b[e].input_grad_log_norm)
    max_ratio = max(abs(r) for r in ratios)
    ok_ratio = max_ratio < 1.0

    ok = ok_gauss and ok_bneck and min_bneck_vni >= 0.95 and ok_gain and ok_mnist and ok_ratio
    check(
        6,
        "walking-dead table",
        ok,
        f"sigma_w^2={sw2!r} gauss learns={ok_gauss} bneck fails={ok_bneck} bneck min VNI={min_bneck_vni:.3f} "
        f"gains [{min(gains):.2f},{max(gains):.2f}] {mnist_note} "
        f"max |log10 grad ratio|={max_ratio:.1f} (<1 required)",
    )


def test_criterion_07_reflection_rescue():
    mnist = mnist_dir()
    if mnist is None:
        pytest.skip("MNIST IDX files not available (set VNLB_MNIST_DIR or fill data/mnist/)")
    train_set = vn.load_mnist_idx(
        os.path.join(mnist, "train-images-idx3-ubyte"),
        os.path.join(mnist, "train-labels-idx1-ubyte"),
    ).take(5000)
    test_set = vn.load_mnist_idx(
        os.path.join(mnist, "t10k-images-idx3-ubyte"),
        os.path.join(mnist, "t10k-labels-idx1-ubyte"),
    )
    sw2, _, mom = tuned(ActivationKind.TANH, 1.0)
    crit = vn.SuccessCriterion("test_accuracy", 0.9, 100)
    failing_depth = None
    for depth in (50, 100, 200):
        spec = NetworkSpec(depth, 64, train_set.input_dim, 10, ActivationKind.TANH)
        res = vn.train(
            spec, InitializerSpec(GAUSS, sw2), [(0.01, Rng(0, (3, depth)))], train_set, crit,
            test_set=test_set, batch_size=1, mu1=mom.mu1,
        )[0]
        if not res.success:
            failing_depth = depth
            break
    check(7, "a depth where i.i.d. init fails exists", failing_depth is not None)
    spec = NetworkSpec(failing_depth, 64, train_set.input_dim, 10, ActivationKind.TANH)
    res = vn.train(
        spec, InitializerSpec(InitKind.HOUSEHOLDER), [(0.01, Rng(0, (3, failing_depth)))], train_set, crit,
        test_set=test_set, batch_size=1, mu1=1.0,
    )[0]
    # the reflections parametrize the square layers; the 64 x 784 input
    # layer is not square, so it keeps its scaled Gaussian draw
    w = [m for m in res.final_state.weights if m.shape[0] == m.shape[1]]
    max_dev = max(
        float(np.abs(m.T @ m - np.eye(m.shape[0])).max()) for m in w
    )
    check(
        7,
        "reflection parametrization rescues the failing depth",
        res.success and max_dev < 1e-6,
        f"L={failing_depth} success={res.success} max |W^T W - I|={max_dev:.1e}",
    )


def test_criterion_08_training_dynamics():
    # Plain SGD at lr=1e-2 drives the indicator up hard; at lr=1e-4 it never
    # drops below its initialization value.  Measured on a fixed 1000-sample
    # Gaussian probe (the 16-pattern task inputs are too few samples: the
    # pair-correlation estimator's ~1/(n-1) bias inflates the epoch-0 value).
    #
    # "Drives the indicator up hard" is stated on the indicator's bounded
    # scale: the room left to full collapse, 1 - VNI, must at least halve,
    # i.e. 1 - max <= (1 - start) / 2.  A literal doubling of the start value
    # cannot hold at this width and depth: for i.i.d. Gaussian weights the
    # moment prediction puts the epoch-0 value at 1/N + (L/N) * mu2/mu1^2 =
    # 0.51 (measured median ~0.55), and the indicator cannot exceed 1, so the
    # achievable ratio is capped below 2.  For start values <= 1/3 the halved
    # room is the stricter of the two.
    sw2, _, mom = tuned(ActivationKind.TANH, 1.0)
    ds = vn.synthetic_task("and4")
    probe = vn.gaussian_probe(1000, 4, 1.0, Rng(999))
    spec = NetworkSpec(50, 100, 4, 4, ActivationKind.TANH)

    def run(lr, epochs, run_idx):  # the run's indicator at each epoch
        result = vn.train(
            spec, InitializerSpec(GAUSS, sw2), [(lr, Rng(run_idx, (8,)))],
            ds, vn.SuccessCriterion("train_accuracy", 0.99, epochs),
            batch_size=1, mu1=mom.mu1, probe=probe, epochs=epochs,
        )[0]
        return [rec.vni for rec in result.records]

    # The 40 runs are independent, so they are spread over the CPUs; each
    # call's work is its layer-steps: L x (epochs x (16 steps + 1 statistics pass) + 1).
    plan = [(1e-2, 60, i) for i in range(20)] + [(1e-4, 30, i) for i in range(20)]
    calls = [(50 * (epochs * 17 + 1), lambda args=(lr, epochs, i): run(*args)) for lr, epochs, i in plan]
    series = list(fan_out(calls))
    fast, slow = series[:20], series[20:]
    med_v0 = float(np.median([r[0] for r in fast]))
    med_max = float(np.median([max(r) for r in fast]))
    med_v0_slow = float(np.median([r[0] for r in slow]))
    med_final = float(np.median([r[-1] for r in slow]))
    ok = 1.0 - med_max <= 0.5 * (1.0 - med_v0) and med_final >= med_v0_slow
    check(
        8,
        "SGD intensifies the indicator",
        ok,
        f"sigma_w^2={sw2!r}; lr=1e-2 median max/start {med_max:.3f}/{med_v0:.3f}={med_max / med_v0:.2f}x, "
        f"room to 1 {1.0 - med_v0:.3f} -> {1.0 - med_max:.3f} (<= half required); "
        f"lr=1e-4 median final {med_final:.3f} >= start {med_v0_slow:.3f}",
    )


def test_criterion_09_gradient_correctness():
    def total_loss(state, batch, g):
        t = forward(state, batch)
        out = t.logits if t.logits is not None else t.post[-1]
        return float(np.sum(g * out))

    def pre_activations(state, batch):
        # h_l = x_{l-1} W_l^T + b_l, recomputed from the stored x_l
        t = forward(state, batch)
        return [x @ w.T + b for x, w, b in zip([t.inputs] + t.post[:-1], state.weights, state.biases)]

    eps, worst, seeds = 1e-6, 0.0, []
    kinds = (
        ActivationKind.LINEAR,
        ActivationKind.RELU,
        ActivationKind.TANH,
        ActivationKind.HARD_TANH,
    )
    for kind in kinds:
        for init in (InitializerSpec(GAUSS, 1.1), InitializerSpec(InitKind.HOUSEHOLDER)):
            spec = NetworkSpec(4, 8, 8, 0, kind)
            state = build_network(spec, init, Rng(90, (kinds.index(kind),)))
            # pick a batch whose pre-activations sit clear of the ReLU and
            # hard-tanh kinks, where the derivative is not defined
            for batch_seed in range(91, 121):
                batch = 0.3 * Rng(batch_seed).normal(size=(2, 8))
                pre = pre_activations(state, batch)
                if all(
                    np.abs(h).min() > 1e-4 and np.abs(np.abs(h) - 1).min() > 1e-4 for h in pre
                ):
                    break
            else:
                pytest.fail("no kink-free probe batch found")
            seeds.append(batch_seed)
            g = Rng(92).normal(size=(2, 8))
            grads = backward(state, forward(state, batch), g)
            params = (
                [(state.stacks[l].vectors, householder_backward(state.stacks[l], grads.weights[l])) for l in range(4)]
                if state.stacks is not None
                else [(state.weights[l], grads.weights[l]) for l in range(4)]
            )
            params += [(state.biases[l], grads.biases[l]) for l in range(4)]
            for arr, grad in params:
                flat, gflat = arr.reshape(-1), np.asarray(grad).reshape(-1)
                for i in range(flat.size):
                    flat[i] += eps
                    state.rematerialize()
                    lp = total_loss(state, batch, g)
                    flat[i] -= 2 * eps
                    state.rematerialize()
                    lm = total_loss(state, batch, g)
                    flat[i] += eps
                    state.rematerialize()
                    fd = (lp - lm) / (2 * eps)
                    rel = abs(gflat[i] - fd) / max(abs(fd), 1e-8)
                    worst = max(worst, rel)
    # the batches that the stored pre-activations picked
    assert seeds == [91] * 8
    check(9, "backward matches finite differences", worst <= 1e-5, f"worst rel err {worst:.1e}")


def test_criterion_10_failure_mode_attribution():
    # Depth x learning-rate grid on XOR2: failed runs sit at VNI ~ 1 while
    # both outcome groups keep per-layer gains near one, i.e. failure is
    # collapse, not exploding or vanishing weight scale.
    sw2, _, mom = tuned(ActivationKind.TANH, 1.0)
    ds = vn.synthetic_task("xor2")
    rows = []
    runs = [(lr, run) for lr in (0.003, 0.03, 0.3) for run in range(5)]
    for depth in (5, 15, 30):
        # the 15 runs of a depth are trained together, each bit for bit as alone
        results = vn.train(
            NetworkSpec(depth, 32, 2, 2, ActivationKind.TANH), InitializerSpec(GAUSS, sw2),
            [(lr, Rng(run, (10, depth))) for lr, run in runs],
            ds, vn.SuccessCriterion("train_accuracy", 0.99, 150),
            batch_size=1, mu1=mom.mu1, epochs=150,
        )
        for res in results:
            rec = res.records[-1]
            rows.append((res.success, res.reason, rec.vni, float(np.median(rec.per_layer_gain))))
    succ = [r for r in rows if r[0]]
    fail = [r for r in rows if not r[0] and r[1] != "diverged"]
    assert succ and fail, "grid produced no successes or no completed failures"
    mean_s = float(np.mean([r[2] for r in succ]))
    mean_f = float(np.mean([r[2] for r in fail]))
    high_frac = float(np.mean([r[2] >= 0.9 for r in fail]))
    med_gain_s = float(np.median([r[3] for r in succ]))
    med_gain_f = float(np.median([r[3] for r in fail]))
    ok = (
        mean_f > mean_s
        and high_frac >= 0.8
        and 0.5 <= med_gain_s <= 2.0
        and 0.5 <= med_gain_f <= 2.0
    )
    check(
        10,
        "failures are collapses, not scale blow-ups",
        ok,
        f"sigma_w^2={sw2!r}, mean final VNI fail/succ {mean_f:.3f}/{mean_s:.3f}, "
        f"{high_frac:.0%} of failures >= 0.9, group gain medians {med_gain_s:.2f}/{med_gain_f:.2f}",
    )
