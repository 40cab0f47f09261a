"""Desk-scale experiment runners: indicator sweeps, correlation heatmaps,
training dynamics, task tables, success-probability grids, and diagnostics.

Every runner is resumable: completed (config-hash, run-key) rows are loaded
from the run CSV and skipped, and all aggregation is keyed by run index so
recomputed outputs are byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import activations as act
from . import svgplot
from .analysis import (
    correlation_heatmap,
    gradient_diagnostics,
    s1_for_ensemble,
    vni_report,
    vni_theoretical,
)
from .config import ExperimentConfig
from .data import Dataset, gaussian_probe, load_mnist_idx, synthetic_task
from .initializers import InitKind, InitializerSpec
from .linalg import Rng
from .network import build_network, forward
from .training import TrainResult, train

__all__ = [
    "run_vni_sweep",
    "run_heatmap",
    "run_dynamics",
    "run_tasks_table",
    "run_grid",
    "run_orthogonal_table",
    "run_diagnostics",
    "RunStore",
    "build_task",
    "resolve_gain",
]


# -- shared plumbing ---------------------------------------------------------


class RunStore:
    """Append-only CSV of per-run results, keyed for resumability."""

    def __init__(self, config: ExperimentConfig, name: str, columns: list):
        os.makedirs(config.out_dir, exist_ok=True)
        self.path = os.path.join(config.out_dir, f"{name}_{config.config_hash()}.csv")
        self.columns = list(columns)
        self.rows: dict = {}
        header = f"# config_hash={config.config_hash()} master_seed={config.master_seed}"
        if os.path.exists(self.path):
            with open(self.path) as f:
                lines = [ln.rstrip("\n") for ln in f if ln.strip()]
            for line in lines:
                if line.startswith("#") or line.startswith("key,"):
                    continue
                parts = line.split(",")
                self.rows[parts[0]] = parts[1:]
            self._f = open(self.path, "a")
        else:
            self._f = open(self.path, "w")
            self._f.write(header + "\n")
            self._f.write("key," + ",".join(self.columns) + "\n")
            self._f.flush()

    def has(self, key: str) -> bool:
        return key in self.rows

    def get(self, key: str) -> list:
        return self.rows[key]

    def add(self, key: str, values: list):
        formatted = [f"{v:.10g}" if isinstance(v, float) else str(v) for v in values]
        self.rows[key] = formatted
        self._f.write(",".join([key] + formatted) + "\n")
        self._f.flush()

    def close(self):
        self._f.close()


def _write_csv(config: ExperimentConfig, name: str, header_cols: str, rows: list) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, name)
    with open(path, "w") as f:
        f.write(f"# config_hash={config.config_hash()} master_seed={config.master_seed}\n")
        f.write(header_cols + "\n")
        for row in rows:
            f.write(",".join(str(x) for x in row) + "\n")
    return path


def build_task(config: ExperimentConfig):
    """(train_set, test_set) for the configured dataset."""
    name = config.dataset.lower()
    if name in ("and2", "and4", "xor2"):
        ds = synthetic_task(name)
        return ds, ds
    if name == "mnist":
        train_ds = load_mnist_idx(
            os.path.join(config.mnist_dir, "train-images-idx3-ubyte"),
            os.path.join(config.mnist_dir, "train-labels-idx1-ubyte"),
        ).take(config.train_slice)
        test_ds = load_mnist_idx(
            os.path.join(config.mnist_dir, "t10k-images-idx3-ubyte"),
            os.path.join(config.mnist_dir, "t10k-labels-idx1-ubyte"),
        ).take(config.test_slice)
        return train_ds, test_ds
    raise ValueError(f"unknown dataset {config.dataset!r}")


@dataclass
class GainSetup:
    sigma_w_sq: float
    q_star: float
    mu1: float
    mu2: float


def resolve_gain(config: ExperimentConfig, sigma_x_sq: float, init_kind: InitKind) -> GainSetup:
    """Resolve the weight scale and activation moments for a run.

    sigma_w_sq <= 0 requests the norm-preserving point sigma_w^2 mu_1 = 1.
    Bottleneck and Householder fix the scale by construction (sigma_w^2 = 1).
    """
    kind = config.activation_kind
    if init_kind in (InitKind.BOTTLENECK, InitKind.HOUSEHOLDER):
        s = 1.0
        q = act.variance_fixed_point(kind, s, 0.0, sigma_x_sq)
    elif config.sigma_w_sq > 0:
        s = config.sigma_w_sq
        q = act.variance_fixed_point(kind, s, 0.0, sigma_x_sq)
    else:
        s, q = act.tune_sigma_w_sq(kind, sigma_x_sq)
    mu1, mu2 = act.mu_quadrature(kind, q)
    return GainSetup(s, q, mu1, mu2)


def _train_cell(
    config: ExperimentConfig,
    depth: int,
    width: int,
    init_kind: InitKind,
    learning_rate: float,
    run_index: int,
    train_set: Dataset,
    test_set: Dataset,
    gain: GainSetup,
    cell_seed: tuple,
) -> TrainResult:
    spec = config.network_spec(depth, width, train_set.input_dim, train_set.num_classes)
    init = InitializerSpec(init_kind, gain.sigma_w_sq, config.bottleneck_nb)
    opt = config.optimizer_spec(learning_rate)
    criterion = config.success_criterion()
    rng = Rng(config.master_seed, (*cell_seed, run_index))
    return train(
        spec,
        init,
        opt,
        train_set,
        criterion,
        rng,
        test_set=test_set,
        batch_size=config.batch_size,
        mu1=gain.mu1,
        early_stop=config.early_stop,
        epochs=config.epochs,
    )


# -- runners -----------------------------------------------------------------


def run_vni_sweep(config: ExperimentConfig) -> dict:
    """Theory-vs-simulation sweep of the indicator over depth (one curve per
    width), on an i.i.d. Gaussian probe.  Emits CSV + SVG."""
    store = RunStore(config, "sweep_runs", ["width", "depth", "vni"])
    gain = resolve_gain(config, config.sigma_x_sq, config.init_kind)
    s1 = s1_for_ensemble(config.init_kind)
    moments = act.ActivationMoments(gain.mu1, gain.mu2, gain.q_star, "closed_form")
    results = {}
    for width in config.widths:
        for depth in config.depths:
            for run in range(config.runs):
                key = f"N{width}_L{depth}_r{run}"
                if store.has(key):
                    continue
                rng = Rng(config.master_seed, (width, depth, run))
                spec = config.network_spec(depth, width, width, 0)
                state = build_network(
                    spec, InitializerSpec(config.init_kind, gain.sigma_w_sq), rng.spawn(0)
                )
                probe = gaussian_probe(
                    config.probe_samples, width, config.sigma_x_sq, rng.spawn(1)
                )
                report = vni_report(state, probe.inputs)
                store.add(key, [width, depth, float(report.vni_empirical)])
    rows = []
    for width in config.widths:
        xs, means, stds, theos = [], [], [], []
        for depth in config.depths:
            vals = np.array(
                [
                    float(store.get(f"N{width}_L{depth}_r{run}")[2])
                    for run in range(config.runs)
                ]
            )
            _, theo_raw = vni_theoretical(depth, width, moments, s1)
            xs.append(depth)
            means.append(vals.mean())
            stds.append(vals.std(ddof=1) if config.runs > 1 else 0.0)
            theos.append(theo_raw)
            rows.append([width, depth, f"{vals.mean():.8g}", f"{vals.std(ddof=1) if config.runs > 1 else 0.0:.8g}", f"{theo_raw:.8g}"])
        svgplot.line_plot(
            os.path.join(config.out_dir, f"sweep_N{width}_{config.config_hash()}.svg"),
            xs,
            {
                "simulation (mean +- std)": (np.array(means), np.array(stds)),
                "moment prediction": np.array(theos),
            },
            title=f"Node-correlation indicator vs depth (N={width})",
            x_label="depth L",
            y_label="indicator",
        )
        results[width] = (np.array(xs), np.array(means), np.array(stds), np.array(theos))
    _write_csv(config, f"sweep_{config.config_hash()}.csv", "width,depth,vni_mean,vni_std,vni_theory_raw", rows)
    store.close()
    return results


def run_heatmap(config: ExperimentConfig) -> dict:
    """Permuted squared-correlation heatmaps: depth sweep at fixed width and
    width sweep at fixed depth.  Emits one CSV grid + SVG per cell."""
    results = {}
    cells = [(config.widths[0], depth) for depth in config.depths]
    cells += [(width, config.depths[0]) for width in config.widths[1:]]
    summary = []
    for width, depth in cells:
        rng = Rng(config.master_seed, (width, depth))
        gain = resolve_gain(config, config.sigma_x_sq, config.init_kind)
        spec = config.network_spec(depth, width, width, 0)
        state = build_network(
            spec, InitializerSpec(config.init_kind, gain.sigma_w_sq), rng.spawn(0)
        )
        probe = gaussian_probe(config.probe_samples, width, config.sigma_x_sq, rng.spawn(1))
        report = vni_report(state, probe.inputs)
        permuted, _ = correlation_heatmap(report.corr_sq)
        tag = f"N{width}_L{depth}"
        _write_csv(
            config,
            f"heatmap_{tag}_{config.config_hash()}.csv",
            ",".join(f"n{i}" for i in range(width)),
            [[f"{v:.6g}" for v in row] for row in permuted],
        )
        svgplot.heatmap(
            os.path.join(config.out_dir, f"heatmap_{tag}_{config.config_hash()}.svg"),
            permuted,
            title=f"Squared node correlations, N={width}, L={depth}",
        )
        off_diag = (report.corr_sq.sum() - np.trace(report.corr_sq)) / (width * (width - 1))
        results[(width, depth)] = off_diag
        summary.append([width, depth, f"{off_diag:.8g}", f"{report.vni_empirical:.8g}"])
    _write_csv(
        config, f"heatmap_summary_{config.config_hash()}.csv", "width,depth,mean_offdiag_corr_sq,vni", summary
    )
    return results


def run_dynamics(config: ExperimentConfig) -> dict:
    """Per-epoch indicator quartiles across runs, one band per learning rate."""
    train_set, test_set = build_task(config)
    sigma_x_sq = float(train_set.inputs.var())
    gain = resolve_gain(config, sigma_x_sq, config.init_kind)
    store = RunStore(config, "dynamics_runs", ["lr", "run", "epochs", "vni_series"])
    series: dict = {}
    for lr_index, lr in enumerate(config.learning_rates):
        runs = []
        for run in range(config.runs):
            key = f"lr{lr_index}_r{run}"
            if store.has(key):
                vals = [float(v) for v in store.get(key)[3].split(";")]
            else:
                width = config.widths[0]
                result = _train_cell(
                    config, config.depths[0], width, config.init_kind, lr, run,
                    train_set, test_set, gain, (lr_index,),
                )
                vals = [r.vni for r in result.records]
                store.add(key, [lr, run, len(vals), ";".join(f"{v:.8g}" for v in vals)])
            runs.append(vals)
        n_epochs = min(len(v) for v in runs)
        vni = np.array([v[:n_epochs] for v in runs])
        q1, med, q3 = np.percentile(vni, [25, 50, 75], axis=0)
        series[lr] = (np.arange(n_epochs), q1, med, q3)
    rows = []
    plot_series = {}
    for lr, (epochs, q1, med, q3) in series.items():
        for e in range(len(epochs)):
            rows.append([f"{lr:g}", e, f"{q1[e]:.8g}", f"{med[e]:.8g}", f"{q3[e]:.8g}"])
        plot_series[f"lr={lr:g}"] = (med, np.maximum(med - q1, q3 - med))
    _write_csv(config, f"dynamics_{config.config_hash()}.csv", "lr,epoch,q1,median,q3", rows)
    any_epochs = next(iter(series.values()))[0]
    svgplot.line_plot(
        os.path.join(config.out_dir, f"dynamics_{config.config_hash()}.svg"),
        any_epochs,
        plot_series,
        title="Indicator quartiles over training",
        x_label="epoch",
        y_label="indicator",
    )
    return series


_TASKS_TABLE_INITS = (InitKind.SCALED_GAUSSIAN, InitKind.BOTTLENECK)


def run_tasks_table(config: ExperimentConfig, tasks=("and2", "and4", "xor2")) -> dict:
    """Success/fail table across tasks x {scaled Gaussian, bottleneck} inits,
    plus the per-epoch gradient log-ratio between the two inits."""
    results = {}
    table_rows = []
    ratio_rows = []
    for t_index, task_name in enumerate(tasks):
        cfg = config.with_overrides({"dataset": task_name})
        train_set, test_set = build_task(cfg)
        sigma_x_sq = float(train_set.inputs.var())
        per_init = {}
        for init_kind in _TASKS_TABLE_INITS:
            gain = resolve_gain(cfg, sigma_x_sq, init_kind)
            run_results = []
            for run in range(config.runs):
                result = _train_cell(
                    cfg, config.depths[0], config.widths[0], init_kind,
                    config.learning_rates[0], run, train_set, test_set, gain,
                    (t_index, int(init_kind == InitKind.BOTTLENECK)),
                )
                run_results.append(result)
            per_init[init_kind] = run_results
            n_success = sum(r.success for r in run_results)
            final_vni = float(np.mean([r.records[-1].vni for r in run_results]))
            table_rows.append(
                [task_name, init_kind.value, n_success, config.runs, f"{final_vni:.6g}"]
            )
            results[(task_name, init_kind)] = (n_success, final_vni, run_results)
        # walking-dead log-ratio over the common recorded epochs of run 0
        a = per_init[InitKind.SCALED_GAUSSIAN][0].records
        b = per_init[InitKind.BOTTLENECK][0].records
        for e in range(min(len(a), len(b))):
            ratio = a[e].input_grad_log_norm - b[e].input_grad_log_norm
            ratio_rows.append([task_name, e, f"{ratio:.8g}"])
    _write_csv(
        config,
        f"tasks_table_{config.config_hash()}.csv",
        "task,init,successes,runs,mean_final_vni",
        table_rows,
    )
    _write_csv(
        config,
        f"tasks_ratio_{config.config_hash()}.csv",
        "task,epoch,grad_log_ratio",
        ratio_rows,
    )
    return results


def run_grid(config: ExperimentConfig) -> dict:
    """Success probability over (depth, learning rate) with per-run final
    indicator and gain records for the failure-attribution summaries."""
    train_set, test_set = build_task(config)
    sigma_x_sq = float(train_set.inputs.var())
    gain = resolve_gain(config, sigma_x_sq, config.init_kind)
    store = RunStore(config, "grid_runs", ["depth", "lr", "run", "success", "final_vni", "gain_median"])
    for d_index, depth in enumerate(config.depths):
        for lr_index, lr in enumerate(config.learning_rates):
            for run in range(config.runs):
                key = f"L{depth}_lr{lr_index}_r{run}"
                if store.has(key):
                    continue
                result = _train_cell(
                    config, depth, config.widths[0], config.init_kind, lr, run,
                    train_set, test_set, gain, (d_index, lr_index),
                )
                rec = result.records[-1]
                store.add(
                    key,
                    [depth, lr, run, int(result.success), float(rec.vni), float(np.median(rec.per_layer_gain))],
                )
    prob = np.zeros((len(config.depths), len(config.learning_rates)))
    success_rows, per_run = [], []
    for i, depth in enumerate(config.depths):
        for j, lr in enumerate(config.learning_rates):
            cell = [store.get(f"L{depth}_lr{j}_r{run}") for run in range(config.runs)]
            frac = sum(int(c[3]) for c in cell) / config.runs
            prob[i, j] = frac
            success_rows.append([depth, f"{lr:g}", f"{frac:.4f}"])
            per_run.extend(
                [int(c[3]), float(c[4]), float(c[5])] for c in cell
            )
    _write_csv(config, f"grid_{config.config_hash()}.csv", "depth,lr,success_fraction", success_rows)
    svgplot.heatmap(
        os.path.join(config.out_dir, f"grid_{config.config_hash()}.svg"),
        1.0 - prob,  # black = zero success probability
        title="Failure probability over (depth, learning rate)",
    )
    succ = np.array([r for r in per_run if r[0] == 1])
    fail = np.array([r for r in per_run if r[0] == 0])
    groups = {}
    if succ.size:
        groups["success gain"] = succ[:, 2]
    if fail.size:
        groups["failure gain"] = fail[:, 2]
    if groups:
        svgplot.box_plot(
            os.path.join(config.out_dir, f"grid_gain_box_{config.config_hash()}.svg"),
            groups,
            title="Per-layer gain by outcome",
            y_label="median layer gain",
        )
    hist_rows = []
    edges = np.linspace(0.0, 1.0, 21)
    for label, arr in (("failed", fail), ("success", succ)):
        if arr.size:
            counts, _ = np.histogram(arr[:, 1], bins=edges)
            for b in range(len(counts)):
                hist_rows.append([label, f"{edges[b]:.3f}", f"{edges[b + 1]:.3f}", counts[b]])
    _write_csv(
        config,
        f"grid_vni_hist_{config.config_hash()}.csv",
        "outcome,bin_lo,bin_hi,count",
        hist_rows,
    )
    store.close()
    return {"probability": prob, "success": succ, "failure": fail}


_ORTH_INITS = (InitKind.SCALED_GAUSSIAN, InitKind.ORTHOGONAL, InitKind.HOUSEHOLDER)


def run_orthogonal_table(config: ExperimentConfig) -> dict:
    """Success and final indicator per depth for scaled Gaussian, orthogonal
    init, and the Householder parametrization."""
    train_set, test_set = build_task(config)
    sigma_x_sq = float(train_set.inputs.var())
    rows, results = [], {}
    for d_index, depth in enumerate(config.depths):
        for i_index, init_kind in enumerate(_ORTH_INITS):
            gain = resolve_gain(config, sigma_x_sq, init_kind)
            cell = []
            for run in range(config.runs):
                cell.append(
                    _train_cell(
                        config, depth, config.widths[0], init_kind,
                        config.learning_rates[0], run, train_set, test_set, gain,
                        (d_index, i_index),
                    )
                )
            n_success = sum(r.success for r in cell)
            final_vni = float(np.mean([r.records[-1].vni for r in cell]))
            rows.append([depth, init_kind.value, n_success, config.runs, f"{final_vni:.6g}"])
            results[(depth, init_kind)] = (n_success, final_vni, cell)
    _write_csv(
        config,
        f"orthogonal_table_{config.config_hash()}.csv",
        "depth,init,successes,runs,mean_final_vni",
        rows,
    )
    return results


def run_diagnostics(config: ExperimentConfig) -> dict:
    """One-network report: indicator by every route, effective node counts,
    and forward/backward variance scales."""
    width = config.widths[0]
    depth = config.depths[0]
    gain = resolve_gain(config, config.sigma_x_sq, config.init_kind)
    rng = Rng(config.master_seed, (depth, width))
    spec = config.network_spec(depth, width, width, 0)
    state = build_network(spec, InitializerSpec(config.init_kind, gain.sigma_w_sq), rng.spawn(0))
    probe = gaussian_probe(config.probe_samples, width, config.sigma_x_sq, rng.spawn(1))
    s1 = None
    try:
        s1 = s1_for_ensemble(config.init_kind)
    except ValueError:
        pass
    moments = act.ActivationMoments(gain.mu1, gain.mu2, gain.q_star, "closed_form")
    report = vni_report(
        state, probe.inputs, moments=moments, s1=s1, with_jacobian=width == spec.input_dim
    )
    loss_grads = rng.spawn(2).normal(size=(probe.inputs.shape[0], width))
    diag = gradient_diagnostics(state, probe.inputs, loss_grads, mu1=gain.mu1)
    rows = [
        ["vni_empirical", f"{report.vni_empirical:.8g}"],
        ["vni_covariance", f"{report.vni_covariance:.8g}"],
        ["vni_jacobian", f"{report.vni_jacobian:.8g}" if report.vni_jacobian is not None else "nan"],
        ["vni_theoretical_raw", f"{report.vni_theoretical_raw:.8g}" if report.vni_theoretical_raw is not None else "nan"],
        ["var_x_L", f"{diag.var_x_L:.8g}"],
        ["predicted_var_x_L", f"{diag.predicted_var_x_L:.8g}"],
        ["var_input_grad", f"{diag.var_input_grad:.8g}"],
        ["predicted_var_input_grad", f"{diag.predicted_var_input_grad:.8g}"],
        ["gain_median", f"{float(np.median(diag.per_layer_gain)):.8g}"],
    ]
    rows += [[f"enn@{eps:g}", n] for eps, n in report.enn.items()]
    _write_csv(config, f"diagnostics_{config.config_hash()}.csv", "quantity,value", rows)
    return {"report": report, "diagnostics": diag}

