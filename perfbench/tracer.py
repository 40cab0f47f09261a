"""Spans around calls into each vannodes module, installed from outside.

The tracer replaces a public name with a timing wrapper in every vannodes
module that holds it (``training.forward``, ``analysis.forward`` and
``experiments.train`` as well as the defining module), and on the class for
methods.  No file under ``src/`` changes.  Spans stay in memory; per-name
calls, self time and the derived counts are computed when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Boundaries timed as spans, by "<module>.<name>" or "<module>.<Class>.<method>".
SPANS = (
    "activations.tune_sigma_w_sq",
    "activations.variance_fixed_point",
    "activations.mu_quadrature",
    "initializers.init_weight",
    "initializers.householder_materialize",
    "initializers.householder_backward",
    "network.build_network",
    "network.forward",
    "network.backward",
    "network.NetworkState.rematerialize",
    "analysis.vni_report",
    "analysis.vni_empirical",
    "analysis.epsilon_enn",
    "linalg.sym_eigenvalues",
    "training.train",
    "training.Optimizer.step",
    "training.evaluate",
    "training._epoch_stats",
    "training.softmax_cross_entropy",
    "data.gaussian_probe",
    "experiments.build_task",
    "experiments.resolve_gain",
    "experiments.RunStore.add",
    "experiments.run_vni_sweep",
    "experiments.run_grid",
    "experiments.run_orthogonal_table",
    "svgplot.line_plot",
    "svgplot.heatmap",
    "svgplot.box_plot",
)
# Boundaries only counted: 3.9M calls per tanh tune would make spans the cost.
COUNTS = ("activations.mean_sq_activation",)

# name -> (unit, better) of every per-layer metric a traced run reports.
METRICS = {}
for _name in SPANS:
    METRICS[f"{_name}.calls"] = ("count", "lower")
    METRICS[f"{_name}.self_s"] = ("s", "lower")
for _name in COUNTS:
    METRICS[f"{_name}.calls"] = ("count", "lower")
METRICS.update(
    {
        "network.forward.rows": ("count", "lower"),
        "network.forward.gflop": ("Gflop_computed", "lower"),
        "analysis.eigensolves_per_report": ("count/call", "lower"),
        "training.epoch_stats_share": ("fraction", "lower"),
        "import_s": ("s", "lower"),
        "trace.cells": ("count", "higher"),
        "trace.span_coverage": ("fraction", "higher"),
        "trace_overhead_s": ("s", "lower"),
    }
)


def _resolve(path: str):
    """(owner, attribute) for "module.name" or "module.Class.method"."""
    parts = path.split(".")
    owner = sys.modules[f"vannodes.{parts[0]}"]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _forward_flop(state, batch) -> tuple[int, int]:
    spec = state.spec
    rows = batch.shape[0]
    macs = sum(spec.fan_in(l) * spec.width_N for l in range(spec.depth_L))
    macs += spec.width_N * spec.num_classes
    return rows, 2 * rows * macs


class Tracer:
    def __init__(self):
        self.spans = []  # [name, cell, parent index, start, end]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.rows = 0
        self.flop = 0
        self.cell = 0
        self._cells = 0
        self._stack = []  # [span index, child seconds]

    def begin(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, self.cell, parent, time.perf_counter(), None])
        self._stack.append([len(self.spans) - 1, 0.0])

    def end(self):
        now = time.perf_counter()
        index, child_s = self._stack.pop()
        span = self.spans[index]
        span[4] = now
        duration = now - span[3]
        name = span[0]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    def _span(self, name: str, fn):
        begin, end = self.begin, self.end
        forward = name == "network.forward"

        def wrapper(*args, **kwargs):
            if forward:
                rows, flop = _forward_flop(*args[:2])
                self.rows += rows
                self.flop += flop
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cell_bounds(self, fn, start: bool, end: bool):
        def wrapper(*args, **kwargs):
            if start:
                self._cells += 1
                self.cell = self._cells
            try:
                return fn(*args, **kwargs)
            finally:
                if end:
                    self.cell = 0

        return wrapper

    def install(self, cell_start: str, cell_end: str):
        """Wrap every boundary; ``cell_start``/``cell_end`` name the call
        (as seen from the module that makes it) that opens/closes a cell."""
        modules = [m for n, m in sys.modules.items() if n == "vannodes" or n.startswith("vannodes.")]
        for names, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name in names:
                owner, attr = _resolve(name)
                original = getattr(owner, attr)
                wrapped = make(name, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        for path in {cell_start, cell_end}:
            owner, attr = _resolve(path)
            setattr(
                owner,
                attr,
                self._cell_bounds(getattr(owner, attr), path == cell_start, path == cell_end),
            )

    def metrics(self, wall_s: float, t0_perf: float) -> dict:
        """Per-layer metrics; ``wall_s`` is the traced time to the first
        finished result, ``t0_perf`` the perf_counter value at process start."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTS:
            out[f"{name}.calls"] = self.calls[name]
        reports = self.calls["analysis.vni_report"]
        train_s = self.total_s["training.train"]
        end = t0_perf + wall_s
        covered = sum(
            min(s[4], end) - s[3] for s in self.spans if s[2] == -1 and s[4] is not None and s[3] < end
        )
        out.update(
            {
                "network.forward.rows": self.rows,
                "network.forward.gflop": self.flop / 1e9,
                "analysis.eigensolves_per_report": (
                    self.calls["linalg.sym_eigenvalues"] / reports if reports else 0.0
                ),
                "training.epoch_stats_share": (
                    self.total_s["training._epoch_stats"] / train_s if train_s else 0.0
                ),
                "import_s": self.total_s["import"],
                "trace.cells": len({s[1] for s in self.spans if s[1]}),
                "trace.span_coverage": covered / wall_s,
            }
        )
        return out
