"""Desk-scale experiment runners: indicator sweeps, correlation heatmaps,
training dynamics, task tables, success-probability grids, and diagnostics.

`run_vni_sweep`, `run_dynamics` and `run_grid` are resumable: they keep one
row per run in a run CSV keyed by (config hash, run key), compute only the
runs the CSV does not hold yet, and aggregate from the stored rows alone, so
a resumed call writes the same bytes as a fresh one.  The other runners
recompute every cell on each call.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import activations as act
from . import svgplot
from .analysis import (
    correlation_heatmap,
    gradient_diagnostics,
    s1_for_ensemble,
    vni_empirical,
    vni_report,
    vni_theoretical,
)
from .config import ExperimentConfig
from .data import gaussian_probe, load_mnist_idx, synthetic_task
from .initializers import InitKind, InitializerSpec
from .linalg import Rng
from .network import build_network, layers, output
from .training import train

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


def _path(config: ExperimentConfig, name: str, ext: str = "csv") -> str:
    """out_dir/<name>_<config hash>.<ext>; creates out_dir."""
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, f"{name}_{config.config_hash()}.{ext}")


def _header(config: ExperimentConfig) -> str:
    return f"# config_hash={config.config_hash()} master_seed={config.master_seed}\n"


class RunStore:
    """Append-only CSV of per-run results, keyed for resumability.

    A row cut short by a crash (no trailing newline), with the wrong number
    of fields, with bytes that are not UTF-8 or with a value that is not a
    finite float is dropped on load with a warning, so its run is computed
    again; the file is then rewritten with the kept rows only, so the next
    load finds nothing to drop.
    """

    def __init__(self, config: ExperimentConfig, name: str, columns: list):
        self.path = _path(config, name)
        self.columns = list(columns)
        self.rows: dict = {}
        header = (_header(config) + "key," + ",".join(self.columns) + "\n").encode()
        data = b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as f:
                data = f.read()
        if data.startswith(header):
            self._load(data, len(header))
            self._f = open(self.path, "a")
            return
        if data:
            warnings.warn(f"{self.path}: header cut short or altered; every run is recomputed")
        self._f = open(self.path, "w")
        self._f.write(header.decode())
        self._f.flush()

    def _load(self, data: bytes, start: int):
        """Keep the complete rows of ``data[start:]``.  When any is dropped,
        replace the file by its header and the kept rows, written to
        ``<path>.part`` first so that a crash leaves the old file whole."""
        lines = data[start:].split(b"\n")
        dropped = int(lines.pop() != b"")  # a last row with no newline
        for line in lines:
            try:
                parts = line.decode().split(",")
                whole = len(parts) == len(self.columns) + 1 and all(
                    math.isfinite(float(v)) for field in parts[1:] for v in field.split(";")
                )
            except ValueError:  # not UTF-8, or a value that is not a number
                whole = False
            if whole:
                self.rows[parts[0]] = parts[1:]
            else:
                dropped += 1
        if dropped:
            warnings.warn(f"{self.path}: dropped {dropped} incomplete or corrupt row(s); their runs are recomputed")
            with open(self.path + ".part", "w") as f:
                f.write(data[:start].decode())
                f.writelines(",".join([key, *values]) + "\n" for key, values in self.rows.items())
            os.replace(self.path + ".part", self.path)

    def add(self, key: str, values: list):
        formatted = [f"{v:.10g}" if isinstance(v, float) else str(v) for v in values]
        self.rows[key] = formatted
        self._f.write(",".join([key] + formatted) + "\n")
        self._f.flush()

    def close(self):
        self._f.close()


def _stored_runs(config: ExperimentConfig, name: str, columns: list, groups: list, compute) -> list:
    """Stored rows of the run CSV ``name``, grouped by ``config.runs``.

    ``groups`` lists groups of (run key, run arguments) pairs, run index
    innermost.  Only the keys the CSV does not hold yet are computed: for
    each group, ``compute`` gets the arguments of its missing keys, in
    order, and returns their rows.  Returns one list of ``config.runs`` rows
    per cell, in the order of ``groups``, as stored (strings).
    """
    store = RunStore(config, name, columns)
    try:
        for group in groups:
            missing = {key: args for key, args in group if key not in store.rows}
            if missing:
                for key, row in zip(missing, compute(list(missing.values())), strict=True):
                    store.add(key, row)
        rows = [store.rows[key] for group in groups for key, _ in group]
    finally:
        store.close()
    return [rows[i : i + config.runs] for i in range(0, len(rows), config.runs)]


def _write_csv(config: ExperimentConfig, name: str, header_cols: str, rows: list):
    with open(_path(config, name), "w") as f:
        f.write(_header(config))
        f.write(header_cols + "\n")
        for row in rows:
            f.write(",".join(str(x) for x in row) + "\n")


def build_task(config: ExperimentConfig):
    """(train_set, test_set) for the configured dataset."""
    name = config.dataset.lower()
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
    ds = synthetic_task(name)
    return ds, ds


def _task(config: ExperimentConfig) -> tuple:
    """(train_set, test_set, sigma_x_sq): the training inputs' variance is
    the input scale the gain is resolved at."""
    train_set, test_set = build_task(config)
    return train_set, test_set, float(train_set.inputs.var())


@dataclass
class GainSetup(act.ActivationMoments):
    """The run's weight scale with the activation moments at its q_star."""

    sigma_w_sq: float


def resolve_gain(config: ExperimentConfig, sigma_x_sq: float, init_kind: InitKind) -> GainSetup:
    """Resolve the weight scale and activation moments for a run.

    sigma_w_sq <= 0 requests the norm-preserving point sigma_w^2 mu_1 = 1.
    Bottleneck and Householder fix the scale by construction (sigma_w^2 = 1).
    """
    kind = config.activation_kind
    if init_kind in (InitKind.BOTTLENECK, InitKind.HOUSEHOLDER):
        s = 1.0
        q = act.variance_fixed_point(kind, s, sigma_x_sq)
    elif config.sigma_w_sq > 0:
        s = config.sigma_w_sq
        q = act.variance_fixed_point(kind, s, sigma_x_sq)
    else:
        s, q = act.tune_sigma_w_sq(kind, sigma_x_sq)
    mu1, mu2 = act.mu_quadrature(kind, q)
    return GainSetup(mu1, mu2, q_star=q, sigma_w_sq=s)


def _s1(config: ExperimentConfig) -> float | None:
    """s_1 of the configured weight ensemble, or None where it has no closed
    form (bottleneck): the moment prediction is then left out."""
    try:
        return s1_for_ensemble(config.init_kind)
    except ValueError:
        return None


def _init_spec(config: ExperimentConfig, init_kind: InitKind, gain: GainSetup) -> InitializerSpec:
    return InitializerSpec(init_kind, gain.sigma_w_sq, config.bottleneck_nb)


def _probe_network(config: ExperimentConfig, depth: int, width: int, gain: GainSetup, rng: Rng) -> tuple:
    """(network, probe inputs): one width x width network drawn from
    ``rng.spawn(0)`` and a Gaussian probe drawn from ``rng.spawn(1)``."""
    spec = config.network_spec(depth, width, width, 0)
    state = build_network(spec, _init_spec(config, config.init_kind, gain), rng.spawn(0))
    return state, gaussian_probe(config.probe_samples, width, config.sigma_x_sq, rng.spawn(1))


def _train_runs(
    config: ExperimentConfig,
    depth: int,
    init_kind: InitKind,
    task: tuple,
    gain: GainSetup,
    runs: list,
) -> list:
    """Train the runs ``runs``, (learning rate, RNG key) pairs, of
    ``config.widths[0]`` nodes together; one TrainResult per run."""
    train_set, test_set, _ = task
    spec = config.network_spec(depth, config.widths[0], train_set.input_dim, train_set.num_classes)
    return train(
        spec,
        _init_spec(config, init_kind, gain),
        [config.optimizer_spec(lr) for lr, _ in runs],
        train_set,
        config.success_criterion(),
        [Rng(config.master_seed, key) for _, key in runs],
        test_set=test_set,
        batch_size=config.batch_size,
        mu1=gain.mu1,
        early_stop=config.early_stop,
        epochs=config.epochs,
    )


def _init_table(blocks: list, inits: tuple):
    """Compare ``inits`` on each block (label, config, depth, task) of a table
    by training ``config.runs`` runs of each.

    Returns the table rows (label, init, successes, runs, mean final
    indicator) and {(label, init): (successes, mean final indicator, runs)}.
    """
    rows, results = [], {}
    for b_index, (label, config, depth, task) in enumerate(blocks):
        for i_index, init_kind in enumerate(inits):
            gain = resolve_gain(config, task[2], init_kind)
            lr = config.learning_rates[0]
            runs = [(lr, (b_index, i_index, run)) for run in range(config.runs)]
            cell = _train_runs(config, depth, init_kind, task, gain, runs)
            n_success = sum(r.success for r in cell)
            final_vni = float(np.mean([r.records[-1].vni for r in cell]))
            rows.append([label, init_kind.value, n_success, config.runs, f"{final_vni:.6g}"])
            results[(label, init_kind)] = (n_success, final_vni, cell)
    return rows, results


# -- runners -----------------------------------------------------------------


def run_vni_sweep(config: ExperimentConfig) -> dict:
    """Theory-vs-simulation sweep of the indicator over depth (one curve per
    width), on an i.i.d. Gaussian probe.  Emits CSV + SVG.

    Each (width, run) draws one ``max(config.depths)``-layer network and one
    probe from ``Rng(master_seed, (width, run))`` and reads the indicator at
    every listed depth from one forward pass: layer l's weights come from
    their own stream, so the first L layers are the L-layer network of the
    same key.  The depths of one run therefore share weights; across runs
    they are independent draws.
    """
    gain = resolve_gain(config, config.sigma_x_sq, config.init_kind)
    s1 = _s1(config)
    listed = set(config.depths)
    profiles = {}  # (width, run) -> {depth: indicator}

    def compute(missing):
        [(width, depth, run)] = missing  # groups of one row, each stored as soon as computed
        if (width, run) not in profiles:
            rng = Rng(config.master_seed, (width, run))
            state, probe = _probe_network(config, max(listed), width, gain, rng)
            profiles[(width, run)] = {
                d: float(vni_empirical(x)[0]) for d, x in enumerate(layers(state, probe), 1) if d in listed
            }
        return [[width, depth, profiles[(width, run)][depth]]]

    cells = [
        (f"N{width}_L{depth}_r{run}", (width, depth, run))
        for width in config.widths
        for depth in config.depths
        for run in range(config.runs)
    ]
    stored = iter(_stored_runs(config, "sweep_runs", ["width", "depth", "vni"], [[c] for c in cells], compute))
    rows, results = [], {}
    for width in config.widths:
        means, stds, theos = [], [], []
        for depth in config.depths:
            vals = np.array([float(row[2]) for row in next(stored)])
            theo_raw = np.nan if s1 is None else vni_theoretical(depth, width, gain, s1)[1]
            means.append(vals.mean())
            stds.append(vals.std(ddof=1) if config.runs > 1 else 0.0)
            theos.append(theo_raw)
            rows.append([width, depth, f"{means[-1]:.8g}", f"{stds[-1]:.8g}", f"{theo_raw:.8g}"])
        curves = {"simulation (mean +- std)": (np.array(means), np.array(stds))}
        if s1 is not None:
            curves["moment prediction"] = np.array(theos)
        svgplot.line_plot(
            _path(config, f"sweep_N{width}", "svg"),
            config.depths,
            curves,
            title=f"Node-correlation indicator vs depth (N={width})",
            x_label="depth L",
            y_label="indicator",
        )
        results[width] = (np.array(config.depths), np.array(means), np.array(stds), np.array(theos))
    _write_csv(config, "sweep", "width,depth,vni_mean,vni_std,vni_theory_raw", rows)
    return results


def run_heatmap(config: ExperimentConfig) -> dict:
    """Permuted squared-correlation heatmaps: depth sweep at fixed width and
    width sweep at fixed depth.  Emits one CSV grid + SVG per cell."""
    gain = resolve_gain(config, config.sigma_x_sq, config.init_kind)
    cells = [(config.widths[0], depth) for depth in config.depths]
    cells += [(width, config.depths[0]) for width in config.widths[1:]]
    results, summary = {}, []
    for width, depth in cells:
        state, probe = _probe_network(config, depth, width, gain, Rng(config.master_seed, (width, depth)))
        vni, corr_sq, _ = vni_empirical(output(state, probe))
        permuted, _ = correlation_heatmap(corr_sq)
        tag = f"heatmap_N{width}_L{depth}"
        _write_csv(
            config,
            tag,
            ",".join(f"n{i}" for i in range(width)),
            [[f"{v:.6g}" for v in row] for row in permuted],
        )
        svgplot.heatmap(
            _path(config, tag, "svg"),
            permuted,
            title=f"Squared node correlations, N={width}, L={depth}",
        )
        off_diag = (corr_sq.sum() - np.trace(corr_sq)) / (width * (width - 1))
        results[(width, depth)] = off_diag
        summary.append([width, depth, f"{off_diag:.8g}", f"{vni:.8g}"])
    _write_csv(config, "heatmap_summary", "width,depth,mean_offdiag_corr_sq,vni", summary)
    return results


def run_dynamics(config: ExperimentConfig) -> dict:
    """Per-epoch indicator quartiles across runs, one band per learning rate."""
    task = _task(config)
    gain = resolve_gain(config, task[2], config.init_kind)

    def compute(missing):
        results = _train_runs(config, config.depths[0], config.init_kind, task, gain, missing)
        return [
            [lr, key[1], len(r.records), ";".join(repr(rec.vni) for rec in r.records)]
            for (lr, key), r in zip(missing, results)
        ]

    cells = [
        (f"lr{lr_index}_r{run}", (lr, (lr_index, run)))
        for lr_index, lr in enumerate(config.learning_rates)
        for run in range(config.runs)
    ]
    stored = _stored_runs(config, "dynamics_runs", ["lr", "run", "epochs", "vni_series"], [cells], compute)
    series, rows, plot_series = {}, [], {}
    for lr, cell in zip(config.learning_rates, stored):
        runs = [[float(v) for v in row[3].split(";")] for row in cell]
        n_epochs = min(len(v) for v in runs)
        vni = np.array([v[:n_epochs] for v in runs])
        q1, med, q3 = np.percentile(vni, [25, 50, 75], axis=0)
        series[lr] = (np.arange(n_epochs), q1, med, q3)
        for e in range(n_epochs):
            rows.append([f"{lr:g}", e, f"{q1[e]:.8g}", f"{med[e]:.8g}", f"{q3[e]:.8g}"])
        plot_series[f"lr={lr:g}"] = (med, np.maximum(med - q1, q3 - med))
    _write_csv(config, "dynamics", "lr,epoch,q1,median,q3", rows)
    svgplot.line_plot(
        _path(config, "dynamics", "svg"),
        max((s[0] for s in series.values()), key=len),
        plot_series,
        title="Indicator quartiles over training",
        x_label="epoch",
        y_label="indicator",
    )
    return series


_TASKS_TABLE_TASKS = ("and2", "and4", "xor2")
_TASKS_TABLE_INITS = (InitKind.SCALED_GAUSSIAN, InitKind.BOTTLENECK)


def run_tasks_table(config: ExperimentConfig) -> dict:
    """Success/fail table across tasks x {scaled Gaussian, bottleneck} inits,
    plus the per-epoch gradient log-ratio between the two inits."""
    blocks = []
    for task_name in _TASKS_TABLE_TASKS:
        cfg = config.with_overrides({"dataset": task_name})
        blocks.append((task_name, cfg, config.depths[0], _task(cfg)))
    table_rows, results = _init_table(blocks, _TASKS_TABLE_INITS)
    ratio_rows = []
    for task_name in _TASKS_TABLE_TASKS:
        # walking-dead log-ratio over the common recorded epochs of run 0
        a = results[(task_name, InitKind.SCALED_GAUSSIAN)][2][0].records
        b = results[(task_name, InitKind.BOTTLENECK)][2][0].records
        for e in range(min(len(a), len(b))):
            ratio = a[e].input_grad_log_norm - b[e].input_grad_log_norm
            ratio_rows.append([task_name, e, f"{ratio:.8g}"])
    _write_csv(config, "tasks_table", "task,init,successes,runs,mean_final_vni", table_rows)
    _write_csv(config, "tasks_ratio", "task,epoch,grad_log_ratio", ratio_rows)
    return results


def run_grid(config: ExperimentConfig) -> dict:
    """Success probability over (depth, learning rate) with per-run final
    indicator and gain records for the failure-attribution summaries."""
    task = _task(config)
    gain = resolve_gain(config, task[2], config.init_kind)

    def compute(missing):
        depth = missing[0][0]
        results = _train_runs(config, depth, config.init_kind, task, gain, [args[1:] for args in missing])
        return [
            [depth, lr, key[2], int(r.success), float(r.records[-1].vni), float(np.median(r.records[-1].per_layer_gain))]
            for (_, lr, key), r in zip(missing, results)
        ]

    groups = [
        [
            (f"L{depth}_lr{lr_index}_r{run}", (depth, lr, (d_index, lr_index, run)))
            for lr_index, lr in enumerate(config.learning_rates)
            for run in range(config.runs)
        ]
        for d_index, depth in enumerate(config.depths)
    ]
    columns = ["depth", "lr", "run", "success", "final_vni", "gain_median"]
    stored = iter(_stored_runs(config, "grid_runs", columns, groups, compute))
    prob = np.zeros((len(config.depths), len(config.learning_rates)))
    success_rows, per_run = [], []
    for i, depth in enumerate(config.depths):
        for j, lr in enumerate(config.learning_rates):
            cell = next(stored)
            frac = sum(float(c[3]) for c in cell) / config.runs
            prob[i, j] = frac
            success_rows.append([depth, f"{lr:g}", f"{frac:.4f}"])
            per_run.extend([float(c[3]), float(c[4]), float(c[5])] for c in cell)
    _write_csv(config, "grid", "depth,lr,success_fraction", success_rows)
    svgplot.heatmap(
        _path(config, "grid", "svg"),
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
            _path(config, "grid_gain_box", "svg"),
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
    _write_csv(config, "grid_vni_hist", "outcome,bin_lo,bin_hi,count", hist_rows)
    return {"probability": prob, "success": succ, "failure": fail}


_ORTH_INITS = (InitKind.SCALED_GAUSSIAN, InitKind.ORTHOGONAL, InitKind.HOUSEHOLDER)


def run_orthogonal_table(config: ExperimentConfig) -> dict:
    """Success and final indicator per depth for scaled Gaussian, orthogonal
    init, and the Householder parametrization."""
    task = _task(config)
    rows, results = _init_table([(depth, config, depth, task) for depth in config.depths], _ORTH_INITS)
    _write_csv(config, "orthogonal_table", "depth,init,successes,runs,mean_final_vni", rows)
    return results


def run_diagnostics(config: ExperimentConfig) -> dict:
    """One-network report: indicator by every route, effective node counts,
    and forward/backward variance scales."""
    width = config.widths[0]
    depth = config.depths[0]
    gain = resolve_gain(config, config.sigma_x_sq, config.init_kind)
    rng = Rng(config.master_seed, (depth, width))
    state, probe = _probe_network(config, depth, width, gain, rng)
    report = vni_report(state, probe, moments=gain, s1=_s1(config), with_jacobian=True)
    loss_grads = rng.spawn(2).normal(size=(probe.shape[0], width))
    diag = gradient_diagnostics(state, probe, loss_grads, mu1=gain.mu1)
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
    _write_csv(config, "diagnostics", "quantity,value", rows)
    return {"report": report, "diagnostics": diag}
