"""Desk-scale experiment runners: indicator sweeps, correlation heatmaps,
training dynamics, task tables, success-probability grids, and diagnostics.

`run_vni_sweep`, `run_dynamics` and `run_grid` are resumable: they keep one
row per run in a run CSV keyed by (config hash, run key), compute only the
runs the CSV does not hold yet, and aggregate from the stored rows alone, so
a resumed call writes the same bytes as a fresh one.  The other runners
recompute every cell on each call.  ``_write`` is the one writer of result
files: it replaces each CSV and SVG (``svgplot`` only renders the text)
whole, and only ``RunStore.add`` appends, one row to a run CSV.  Every
runner computes through ``cpus.fan_out``, on one BLAS thread: only the task
load and the gain tune, which make no matrix product, run outside it.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import Counter
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import activations as act
from . import svgplot
from .analysis import (
    Float32RangeError,
    correlation_heatmap,
    s1_for_ensemble,
    vni_empirical,
    vni_report,
    vni_theoretical,
)
from .config import ExperimentConfig
from .data import gaussian_probe, load_mnist_idx, synthetic_task
from .initializers import InitKind, InitializerSpec
from .cpus import fan_out
from .linalg import Rng
from .network import NetworkSpec, build_network, streamed_layers
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


def _write(path: str, data: str | bytes):
    """Replace the file ``path`` whole by ``data``: it is written to
    ``<path>.part`` and renamed over ``path``, so that a crash leaves the old
    file or the new one, never one cut short."""
    with open(path + ".part", "wb") as f:
        f.write(data if isinstance(data, bytes) else data.encode())
    os.replace(path + ".part", path)


def _header(config: ExperimentConfig) -> str:
    return f"# config_hash={config.config_hash()} master_seed={config.master_seed}\n"


def _number(kind=float, lo: float = -math.inf, hi: float = math.inf):
    """Parser of a run-CSV field that holds a finite ``kind`` in [lo, hi]."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and lo <= value <= hi):
            raise ValueError(f"{text!r} is not a finite value in [{lo}, {hi}]")
        return value
    return parse


_FINITE, _VNI, _SUCCESS = _number(), _number(float, 0.0, 1.0), _number(int, 0, 1)


def _series(text: str) -> list:  # a ;-joined series of indicators
    return [_VNI(v) for v in text.split(";")]


class RunStore:
    """Append-only CSV of per-run results, keyed for resumability.

    ``columns`` maps each column's name to its parser, which raises
    ValueError on a value outside the column's kind, and ``keys`` holds the
    run keys of ``config``.  A row cut short by a crash (no trailing
    newline), with the wrong number of fields, with bytes that are not
    UTF-8, with a value its parser refuses, with a key not in ``keys`` or
    with a key that another row repeats is dropped on load with a warning
    and taken out of the file, so its run is computed again; ``add`` raises
    on a row its parsers refuse instead of writing it.
    """

    def __init__(self, config: ExperimentConfig, name: str, columns: dict, keys: set):
        self.path = _path(config, name)
        self.columns = columns
        self.rows: dict = {}
        header = (_header(config) + "key," + ",".join(columns) + "\n").encode()
        data = b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as f:
                data = f.read()
        if data.startswith(header):
            self._load(data, len(header), keys)
            return
        if data:
            warnings.warn(f"{self.path}: header cut short or altered; every run is recomputed")
        _write(self.path, header)

    def _parse(self, fields: list) -> list:
        """``fields`` parsed by their columns' parsers; a failure names the column."""
        values = []
        for (name, parse), text in zip(self.columns.items(), fields, strict=True):
            try:
                values.append(parse(text))
            except ValueError as e:
                raise ValueError(f"{self.path}: column {name}: {e}") from None
        return values

    def _load(self, data: bytes, start: int, keys: set):
        """Keep the complete rows of ``data[start:]`` whose key is in ``keys``
        and in no other row: which of two rows of a key holds its run is
        unknown, so both are dropped.  When any is dropped, replace the file
        (``_write``) by its header and the kept rows' bytes."""
        lines = data[start:].split(b"\n")
        dropped = int(lines.pop() != b"")  # a last row with no newline
        rows_of = Counter(line.partition(b",")[0] for line in lines)
        kept = {}
        for line in lines:
            try:  # a decode error is a ValueError too
                key, *fields = line.decode().split(",")
                if rows_of[key.encode()] > 1:
                    raise ValueError(f"{key!r} is the key of more than one row")
                if key not in keys:
                    raise ValueError(f"{key!r} is not a run of this config")
                self.rows[key] = self._parse(fields)
                kept[key] = line
            except ValueError:
                dropped += 1
        if dropped:
            warnings.warn(f"{self.path}: dropped {dropped} incomplete or corrupt row(s); their runs are recomputed")
            _write(self.path, data[:start] + b"".join(line + b"\n" for line in kept.values()))

    def add(self, key: str, values: list):
        fields = [
            f"{v:.10g}" if isinstance(v, float) else ";".join(map(repr, v)) if isinstance(v, list) else str(v)
            for v in values
        ]
        self.rows[key] = self._parse(fields)
        with open(self.path, "a") as f:
            f.write(",".join([key, *fields]) + "\n")


def _stored_runs(
    config: ExperimentConfig, name: str, columns: dict, groups: list, compute, work, part=lambda args: None
) -> list:
    """Stored rows of the run CSV ``name``, grouped by ``config.runs``.

    ``groups`` lists groups of (run key, run arguments) pairs, run index
    innermost, no key twice.  Only the keys the CSV does not hold yet are
    computed: the missing keys of a group whose arguments have one ``part``
    (by default, all of them) make one call, in which ``compute`` gets
    their arguments, in order, and returns their rows.  The calls are made
    by ``cpus.fan_out``, with the work ``work`` estimates from the same
    arguments, and each group's rows are stored, in group order, as soon
    as the fan-out yields its last call.
    Returns one list of ``config.runs`` rows per cell, in the order of
    ``groups``, each parsed by ``columns`` (``RunStore``).
    """
    store = RunStore(config, name, columns, {key for group in groups for key, _ in group})
    todo = [missing for group in groups if (missing := {key: args for key, args in group if key not in store.rows})]
    parts = [
        {k: a for k, a in missing.items() if part(a) == p} for missing in todo for p in dict.fromkeys(map(part, missing.values()))
    ]
    results = zip(parts, fan_out([(work(list(c.values())), lambda c=c: compute(list(c.values()))) for c in parts]))
    rows = {}
    for missing in todo:
        while missing.keys() - rows.keys():  # the group's calls are not all in yet
            call, computed = next(results)
            rows.update(zip(call, computed, strict=True))
        for key in missing:
            store.add(key, rows[key])
    rows = [store.rows[key] for group in groups for key, _ in group]
    return [rows[i : i + config.runs] for i in range(0, len(rows), config.runs)]


def _write_csv(config: ExperimentConfig, name: str, header_cols: str, rows: list):
    lines = [header_cols] + [",".join(map(str, row)) for row in rows]
    _write(_path(config, name), _header(config) + "\n".join(lines) + "\n")


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
    fixed = 1.0 if init_kind in (InitKind.BOTTLENECK, InitKind.HOUSEHOLDER) else config.sigma_w_sq
    if fixed > 0:
        s, q = fixed, act.variance_fixed_point(kind, fixed, sigma_x_sq)
    else:
        s, q = act.tune_sigma_w_sq(kind, sigma_x_sq)
    mu1, mu2 = act.mu_quadrature(kind, q)
    return GainSetup(mu1, mu2, q_star=q, sigma_w_sq=s)


def _moment_prediction(config: ExperimentConfig, gain: GainSetup, depth: int, width: int) -> float:
    """The paper's moment prediction of the indicator (``vni_theoretical``),
    or NaN for a weight ensemble with no closed-form s_1 (bottleneck), whose
    prediction is left out."""
    try:
        s1 = s1_for_ensemble(config.init_kind)
    except ValueError:
        return math.nan
    return vni_theoretical(depth, width, gain, s1)


def _init_spec(config: ExperimentConfig, init_kind: InitKind, gain: GainSetup) -> InitializerSpec:
    return InitializerSpec(init_kind, gain.sigma_w_sq, config.bottleneck_nb)


def _probe_pass(spec: NetworkSpec, init: InitializerSpec, rng: Rng, probe, read, depths) -> dict:
    """{d: read(x_d)} for each layer d in ``depths`` of the network
    ``build_network(spec, init, rng)`` draws, over the probe that the call
    ``probe()`` returns, without building it (``streamed_layers``).

    The pass is streamed in float32, in the calling thread, inside the
    caller's ``cpus.fan_out``.  ``probe()`` is called for each pass, so a
    caller that draws the probe there holds no float64 probe during the
    float32 pass.  When ``read`` refuses a layer's float32 activations
    (``Float32RangeError``: the pass overflowed or underflowed, as deep
    passes far from the critical gain do), the same draws are streamed
    again in float64, two layers held as in float32, and every layer is
    read from that pass: the bits of the built network's float64 ``layers``.
    Each pass is closed when it is left, and a refused pass's arrays are
    freed before the float64 pass starts."""

    def read_pass(dtype) -> dict:
        with closing(streamed_layers(spec, init, rng, probe(), dtype)) as streamed:
            return {d: read(x) for d, x in enumerate(streamed, 1) if d in depths}

    try:
        return read_pass(np.float32)
    except Float32RangeError:
        pass  # read again once the exception, which holds the refused arrays, is gone
    return read_pass(np.float64)


def _gaussian_cell(config: ExperimentConfig, gain: GainSetup, depth: int, width: int, key: tuple) -> tuple:
    """The cell of ``sweep``, ``heatmap`` and ``diag``: (rng, spec, init,
    probe) for the width x width network of ``depth`` layers that
    ``build_network(spec, init, rng.spawn(0))`` draws, with ``rng =
    Rng(master_seed, key)``, and the call ``probe()`` that draws its
    Gaussian probe from ``rng.spawn(1)``."""
    rng = Rng(config.master_seed, key)

    def probe():
        return gaussian_probe(config.probe_samples, width, config.sigma_x_sq, rng.spawn(1))

    return rng, config.network_spec(depth, width, width, 0), _init_spec(config, config.init_kind, gain), probe


def _gaussian_probe_pass(config: ExperimentConfig, gain: GainSetup, width: int, depths, key: tuple, read) -> dict:
    """``_probe_pass`` of the ``_gaussian_cell`` of ``max(depths)`` layers:
    the pass of ``sweep`` and ``heatmap``.  The probe is drawn for each
    pass, so that the float32 pass holds no float64 probe."""
    rng, spec, init, probe = _gaussian_cell(config, gain, max(depths), width, key)
    return _probe_pass(spec, init, rng.spawn(0), probe, read, depths)


def _probe_work(depth: int, rows: int, width: int) -> float:
    """Estimated work of a probe pass in ``_train_work``'s batch-1
    layer-steps: its depth x rows x N^2 multiply-adds at 10^6 to a
    layer-step.  On one BLAS thread 10^6 of them took 30-125 us and a
    layer-step 14-18 us, so the estimate is low on purpose: in a fresh
    process, forking a 33 ms pass (N = 50, L = 100, 2000 rows; 500 here)
    beside a longer one cost the parent more than making it in-process
    (``BENCH_fork_passes.json``)."""
    return depth * rows * width * width / 1e6


def _first(config: ExperimentConfig, *keys: str) -> list:
    """``config.<key>[0]`` of each of ``keys``, for a runner that reads one
    value of each of these lists.  A list of several values gets one
    UserWarning naming the key, the value used and the values dropped; the
    runners call this first, in the parent, before any cell is computed."""
    for key in keys:
        head, *dropped = getattr(config, key)
        if dropped:
            warnings.warn(f"{config.experiment} reads one value of {key}: uses {head!r}, drops {dropped!r}", stacklevel=3)
    return [getattr(config, key)[0] for key in keys]


def _train_runs(
    config: ExperimentConfig,
    width: int,
    depth: int,
    init_kind: InitKind,
    task: tuple,
    gain: GainSetup,
    runs: list,
) -> list:
    """Train the runs ``runs``, (learning rate, RNG key) pairs, of networks
    of ``depth`` layers of ``width`` nodes together; one TrainResult per
    run.  The width is the one its runner's ``_first`` read."""
    train_set, test_set, _ = task
    spec = config.network_spec(depth, width, train_set.input_dim, train_set.num_classes)
    return train(
        spec,
        _init_spec(config, init_kind, gain),
        [(lr, Rng(config.master_seed, key)) for lr, key in runs],
        train_set,
        config.success_criterion(),
        test_set=test_set,
        batch_size=config.batch_size,
        mu1=gain.mu1,
        early_stop=config.early_stop,
        epochs=config.epochs,
    )


def _train_work(config: ExperimentConfig, depth: int, task: tuple) -> int:
    """Estimated work of training runs of ``depth`` layers together, in
    layer-steps: depth x (SGD steps + statistics passes) of one run, which
    is what the runs of a stack step together."""
    steps = math.ceil(task[0].num_samples / config.batch_size)
    return depth * (config.epochs * (steps + 1) + 1)


def _init_table(blocks: list, inits: tuple, width: int, lr: float):
    """Compare ``inits`` on each block (label, config, depth, task) of a table
    by training ``config.runs`` runs of each, ``width`` nodes wide, at the
    learning rate ``lr`` (both read by its runner's ``_first``); the cells
    are trained by ``cpus.fan_out``.

    Returns the table rows (label, init, successes, runs, mean final
    indicator) and {(label, init): (successes, mean final indicator, runs)}.
    """
    cells, calls = [], []
    for b_index, (label, config, depth, task) in enumerate(blocks):
        for i_index, init_kind in enumerate(inits):
            gain = resolve_gain(config, task[2], init_kind)
            runs = [(lr, (b_index, i_index, run)) for run in range(config.runs)]
            cells.append((label, config, init_kind))
            args = (config, width, depth, init_kind, task, gain, runs)
            calls.append((_train_work(config, depth, task), lambda args=args: _train_runs(*args)))
    rows, results = [], {}
    for (label, config, init_kind), cell in zip(cells, fan_out(calls)):
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
    they are independent draws.  The pass draws each layer for its step
    (``streamed_layers``), so a run holds at most two layers' weights, not
    the network, and steps them in float32; only a pass out of float32's
    range is streamed again in float64 (``_probe_pass``).  Each (width, run)
    pass is one call of the fan-out (``_probe_work``), and a width's rows
    are stored in cell order once its passes end.
    """
    gain = resolve_gain(config, config.sigma_x_sq, config.init_kind)
    listed = set(config.depths)

    def compute(missing):  # the missing rows of one (width, run), from one pass to the deepest listed depth
        width, _, run = missing[0]
        profile = _gaussian_probe_pass(config, gain, width, listed, (width, run), lambda x: float(vni_empirical(x)[0]))
        return [[width, depth, profile[depth]] for _, depth, _ in missing]

    groups = [
        [(f"N{width}_L{depth}_r{run}", (width, depth, run)) for depth in config.depths for run in range(config.runs)]
        for width in config.widths
    ]
    columns = {"width": int, "depth": int, "vni": _VNI}
    work = lambda missing: _probe_work(max(listed), config.probe_samples, missing[0][0])
    stored = iter(_stored_runs(config, "sweep_runs", columns, groups, compute, work, part=lambda args: args[2]))
    rows, results = [], {}
    for width in config.widths:
        means, stds, theos = [], [], []
        for depth in config.depths:
            vals = np.array([row[2] for row in next(stored)])
            theo_raw = _moment_prediction(config, gain, depth, width)
            means.append(vals.mean())
            stds.append(vals.std(ddof=1) if config.runs > 1 else 0.0)
            theos.append(theo_raw)
            rows.append([width, depth, f"{means[-1]:.8g}", f"{stds[-1]:.8g}", f"{theo_raw:.8g}"])
        curves = {"simulation (mean +- std)": (np.array(means), np.array(stds))}
        if not np.isnan(theos).any():  # left out for an ensemble with no closed-form s_1
            curves["moment prediction"] = np.array(theos)
        _write(_path(config, f"sweep_N{width}", "svg"), svgplot.line_plot(
            config.depths,
            curves,
            title=f"Node-correlation indicator vs depth (N={width})",
            x_label="depth L",
            y_label="indicator",
        ))
        results[width] = (np.array(config.depths), np.array(means), np.array(stds), np.array(theos))
    _write_csv(config, "sweep", "width,depth,vni_mean,vni_std,vni_theory_raw", rows)
    return results


def run_heatmap(config: ExperimentConfig) -> dict:
    """Permuted squared-correlation heatmaps: depth sweep at fixed width and
    width sweep at fixed depth.  Emits one CSV grid + SVG per cell."""
    gain = resolve_gain(config, config.sigma_x_sq, config.init_kind)
    cells = [(config.widths[0], depth) for depth in config.depths]
    cells += [(width, config.depths[0]) for width in config.widths[1:]]
    def compute(width, depth):  # the cell's indicator, mean off-diagonal and ordered correlations
        vni, corr_sq, _ = _gaussian_probe_pass(config, gain, width, {depth}, (width, depth), vni_empirical)[depth]
        off_diag = (corr_sq.sum() - np.trace(corr_sq)) / (width * (width - 1))
        return vni, off_diag, correlation_heatmap(corr_sq)[0]

    results, summary = {}, []
    for (width, depth), (vni, off_diag, permuted) in zip(cells, fan_out([(0, lambda c=c: compute(*c)) for c in cells])):
        tag = f"heatmap_N{width}_L{depth}"
        _write_csv(
            config,
            tag,
            ",".join(f"n{i}" for i in range(width)),
            [[f"{v:.6g}" for v in row] for row in permuted],
        )
        _write(_path(config, tag, "svg"), svgplot.heatmap(
            permuted, title=f"Squared node correlations, N={width}, L={depth}"
        ))
        results[(width, depth)] = off_diag
        summary.append([width, depth, f"{off_diag:.8g}", f"{vni:.8g}"])
    _write_csv(config, "heatmap_summary", "width,depth,mean_offdiag_corr_sq,vni", summary)
    return results


def run_dynamics(config: ExperimentConfig) -> dict:
    """Per-epoch indicator quartiles across runs, one band (and group of runs) per learning rate."""
    width, depth = _first(config, "widths", "depths")
    task = _task(config)
    gain = resolve_gain(config, task[2], config.init_kind)

    def compute(missing):
        results = _train_runs(config, width, depth, config.init_kind, task, gain, missing)
        return [
            [lr, key[1], len(r.records), [rec.vni for rec in r.records]]
            for (lr, key), r in zip(missing, results)
        ]

    work = _train_work(config, depth, task)
    groups = [
        [(f"lr{lr_index}_r{run}", (lr, (lr_index, run))) for run in range(config.runs)]
        for lr_index, lr in enumerate(config.learning_rates)
    ]
    columns = {"lr": _FINITE, "run": int, "epochs": int, "vni_series": _series}
    stored = _stored_runs(config, "dynamics_runs", columns, groups, compute, lambda missing: work)
    series, rows, plot_series = {}, [], {}
    for lr, cell in zip(config.learning_rates, stored):
        runs = [row[3] for row in cell]
        n_epochs = min(len(v) for v in runs)
        vni = np.array([v[:n_epochs] for v in runs])
        q1, med, q3 = np.percentile(vni, [25, 50, 75], axis=0)
        series[lr] = (np.arange(n_epochs), q1, med, q3)
        for e in range(n_epochs):
            rows.append([f"{lr:g}", e, f"{q1[e]:.8g}", f"{med[e]:.8g}", f"{q3[e]:.8g}"])
        plot_series[f"lr={lr:g}"] = (med, np.maximum(med - q1, q3 - med))
    _write_csv(config, "dynamics", "lr,epoch,q1,median,q3", rows)
    _write(_path(config, "dynamics", "svg"), svgplot.line_plot(
        max((s[0] for s in series.values()), key=len),
        plot_series,
        title="Indicator quartiles over training",
        x_label="epoch",
        y_label="indicator",
    ))
    return series


_TASKS_TABLE_TASKS = ("and2", "and4", "xor2")
_TASKS_TABLE_INITS = (InitKind.SCALED_GAUSSIAN, InitKind.BOTTLENECK)


def run_tasks_table(config: ExperimentConfig) -> dict:
    """Success/fail table across tasks x {scaled Gaussian, bottleneck} inits,
    plus the per-epoch gradient log-ratio between the two inits."""
    width, depth, lr = _first(config, "widths", "depths", "learning_rates")
    blocks = []
    for task_name in _TASKS_TABLE_TASKS:
        cfg = config.with_overrides({"dataset": task_name})
        blocks.append((task_name, cfg, depth, _task(cfg)))
    table_rows, results = _init_table(blocks, _TASKS_TABLE_INITS, width, lr)
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
    [width] = _first(config, "widths")
    task = _task(config)
    gain = resolve_gain(config, task[2], config.init_kind)

    def compute(missing):
        depth = missing[0][0]
        results = _train_runs(config, width, depth, config.init_kind, task, gain, [args[1:] for args in missing])
        return [
            [depth, lr, key[2], int(r.success), float(r.records[-1].vni), float(np.median(r.records[-1].per_layer_gain))]
            for (_, lr, key), r in zip(missing, results)
        ]

    groups = [
        [
            (f"L{depth}_lr{lr_index}_r{run}", (depth, lr, (depth_index, lr_index, run)))
            for lr_index, lr in enumerate(config.learning_rates)
            for run in range(config.runs)
        ]
        for depth_index, depth in enumerate(config.depths)
    ]
    columns = {"depth": int, "lr": _FINITE, "run": int, "success": _SUCCESS, "final_vni": _VNI, "gain_median": _FINITE}
    stored = iter(_stored_runs(config, "grid_runs", columns, groups, compute, lambda m: _train_work(config, m[0][0], task)))
    prob = np.zeros((len(config.depths), len(config.learning_rates)))
    success_rows, per_run = [], []
    for i, depth in enumerate(config.depths):
        for j, lr in enumerate(config.learning_rates):
            cell = next(stored)
            frac = sum(c[3] for c in cell) / config.runs
            prob[i, j] = frac
            success_rows.append([depth, f"{lr:g}", f"{frac:.4f}"])
            per_run.extend(c[3:] for c in cell)
    _write_csv(config, "grid", "depth,lr,success_fraction", success_rows)
    _write(_path(config, "grid", "svg"), svgplot.heatmap(
        1.0 - prob,  # black = zero success probability
        title="Failure probability over (depth, learning rate)",
    ))
    succ = np.array([r for r in per_run if r[0] == 1])
    fail = np.array([r for r in per_run if r[0] == 0])
    gains = {}
    if succ.size:
        gains["success gain"] = succ[:, 2]
    if fail.size:
        gains["failure gain"] = fail[:, 2]
    if gains:
        _write(_path(config, "grid_gain_box", "svg"), svgplot.box_plot(
            gains, title="Per-layer gain by outcome", y_label="median layer gain"
        ))
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
    width, lr = _first(config, "widths", "learning_rates")
    task = _task(config)
    rows, results = _init_table([(depth, config, depth, task) for depth in config.depths], _ORTH_INITS, width, lr)
    _write_csv(config, "orthogonal_table", "depth,init,successes,runs,mean_final_vni", rows)
    return results


def run_diagnostics(config: ExperimentConfig) -> dict:
    """One-network report (``vni_report``): indicator by every route,
    effective node counts, and forward/backward variance scales, beside the
    moment prediction.  The network is the ``_gaussian_cell`` of key
    (depth, width), run once over its probe, with loss gradients drawn
    from ``rng.spawn(2)``; its one call is made by ``cpus.fan_out``."""
    width, depth = _first(config, "widths", "depths")
    gain = resolve_gain(config, config.sigma_x_sq, config.init_kind)
    theo_raw = _moment_prediction(config, gain, depth, width)

    def compute():
        rng, spec, init, probe = _gaussian_cell(config, gain, depth, width, (depth, width))
        state = build_network(spec, init, rng.spawn(0))
        loss_grads = rng.spawn(2).normal(size=(config.probe_samples, width))
        return vni_report(state, probe(), loss_grads, gain.mu1)

    [report] = fan_out([(0, compute)])
    rows = [
        ["vni_empirical", f"{report.vni_empirical:.8g}"],
        ["vni_covariance", f"{report.vni_covariance:.8g}"],
        ["vni_jacobian", f"{report.vni_jacobian:.8g}" if report.vni_jacobian is not None else "nan"],
        ["vni_theoretical_raw", f"{theo_raw:.8g}"],
        ["var_x_L", f"{report.var_x_L:.8g}"],
        ["predicted_var_x_L", f"{report.predicted_var_x_L:.8g}"],
        ["var_input_grad", f"{report.var_input_grad:.8g}"],
        ["predicted_var_input_grad", f"{report.predicted_var_input_grad:.8g}"],
        ["gain_median", f"{float(np.median(report.per_layer_gain)):.8g}"],
    ]
    rows += [[f"enn@{eps:g}", n] for eps, n in report.enn.items()]
    _write_csv(config, "diagnostics", "quantity,value", rows)
    return {"report": report}
