"""Output checker behind ``fail_frac``.

Every pass of a workload is checked cell by cell.  A cell fails when it is
missing from the result files, when its row is malformed, when the value in
the file differs from the value the runner returned, when an invariant does
not hold, when the pass did not start from a fresh ``out_dir`` (a resumed
pass computes nothing), or, for the pinned seeds, when it is off the value
recorded at the benchmark's seed commit by more than ``REF_RTOL``.  The
per-cell references apply only where set-up reproduces the recorded
numerics bit for bit (see ``numerics`` in workload.py); elsewhere the other
checks still hold.

The returned values are built by the runners from their in-memory rows, so a
file row that was truncated or altered after it was written no longer agrees
with them.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance against the recorded references.  Reruns with the same
# numerics are bit-identical; the slack covers last-digit differences that
# the numerics probe does not see.
REF_RTOL = 1e-6
# |W^T W - I|_inf of every final Householder layer.
ORTHO_TOL = 1e-12
# The tuned gain's |sigma_w^2 mu_1 - 1| may exceed the seed commit's value by
# this share: numpy's tanh differs in the last bits between CPUs, which moves
# where the damped tuning iteration stops.
GAIN_RESIDUAL_SLACK = 0.01


@dataclass
class CheckResult:
    values: dict  # cell key -> checked values (None when missing)
    failures: list = field(default_factory=list)  # "cell: reason"

    @property
    def attempted(self) -> int:
        return len(self.values)

    @property
    def failed(self) -> int:
        return len({f.split(":", 1)[0] for f in self.failures})

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def vni_in_range(value: float, width: int) -> bool:
    """The indicator is a weighted mean of squared correlations: 1/N..1."""
    eps = 1e-12
    return math.isfinite(value) and 1.0 / width - eps <= value <= 1.0 + eps


def _close(value: float, ref: float) -> bool:
    return math.isclose(value, ref, rel_tol=REF_RTOL, abs_tol=1e-12)


def read_store(path: str, n_columns: int):
    """Rows of a RunStore CSV as key -> list of floats, plus malformed keys."""
    rows, malformed = {}, []
    if not os.path.exists(path):
        return rows, malformed
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#") or line.startswith("key,"):
                continue
            parts = line.split(",")
            try:
                if len(parts) != n_columns + 1:
                    raise ValueError("column count")
                rows[parts[0]] = [float(p) for p in parts[1:]]
            except ValueError:
                malformed.append(parts[0])
    return rows, malformed


def _read_table(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_pass(workload: str, config, returned, fresh: bool, refs: dict | None) -> CheckResult:
    """Check one pass of ``workload`` run with ``config``.

    ``returned`` is what the runner returned, ``fresh`` whether ``out_dir``
    was absent before the pass, ``refs`` the recorded per-cell references of
    this master seed (None when the seed is not pinned).
    """
    check = {"sweep": _check_sweep, "grid-tanh": _check_grid, "orth-householder": _check_orth}
    values, failures = check[workload](config, returned)
    result = CheckResult(values, failures)
    for key, vals in values.items():
        if not fresh:
            result.failures.append(f"{key}: out_dir existed before the pass")
        if refs is not None:
            ref = refs.get(key)
            if ref is None or vals is None or not all(map(_close, vals, ref)):
                result.failures.append(f"{key}: off reference {ref} (got {vals})")
    return result


def _check_sweep(config, returned):
    h = config.config_hash()
    out = config.out_dir
    rows, malformed = read_store(os.path.join(out, f"sweep_runs_{h}.csv"), 3)
    summary = os.path.exists(os.path.join(out, f"sweep_{h}.csv"))
    values, failures = {}, []
    for width in config.widths:
        plots = os.path.exists(os.path.join(out, f"sweep_N{width}_{h}.svg"))
        for d_index, depth in enumerate(config.depths):
            keys = [f"N{width}_L{depth}_r{run}" for run in range(config.runs)]
            cell_vals = []
            for key in keys:
                row = rows.get(key)
                values[key] = None if row is None else [row[2]]
                if key in malformed or row is None:
                    failures.append(f"{key}: missing or malformed row")
                    continue
                if row[:2] != [width, depth] or not vni_in_range(row[2], width):
                    failures.append(f"{key}: bad row {row}")
                if not (summary and plots):
                    failures.append(f"{key}: summary CSV or SVG missing")
                cell_vals.append(row[2])
            if len(cell_vals) == len(keys):
                mean = float(np.array(cell_vals).mean())
                if width not in returned or mean != returned[width][1][d_index]:
                    for key in keys:
                        failures.append(f"{key}: file mean {mean} differs from returned")
    return values, failures


def _check_grid(config, returned):
    h = config.config_hash()
    out = config.out_dir
    width = config.widths[0]
    rows, malformed = read_store(os.path.join(out, f"grid_runs_{h}.csv"), 6)
    summary = os.path.exists(os.path.join(out, f"grid_{h}.csv")) and os.path.exists(
        os.path.join(out, f"grid_{h}.svg")
    )
    per_run = Counter(
        tuple(r) for part in ("success", "failure") for r in np.asarray(returned[part]).tolist()
    )
    values, failures = {}, []
    for i, depth in enumerate(config.depths):
        for j, lr in enumerate(config.learning_rates):
            successes = []
            for run in range(config.runs):
                key = f"L{depth}_lr{j}_r{run}"
                row = rows.get(key)
                values[key] = None if row is None else row[3:]
                if key in malformed or row is None:
                    failures.append(f"{key}: missing or malformed row")
                    continue
                ok, vni, gain = row[3], row[4], row[5]
                if (
                    row[:3] != [depth, lr, run]
                    or ok not in (0.0, 1.0)
                    or not vni_in_range(vni, width)
                    or not (math.isfinite(gain) and gain > 0)
                ):
                    failures.append(f"{key}: bad row {row}")
                if not summary:
                    failures.append(f"{key}: summary CSV or SVG missing")
                if per_run[(ok, vni, gain)] > 0:
                    per_run[(ok, vni, gain)] -= 1
                else:
                    failures.append(f"{key}: file row differs from returned")
                successes.append(ok)
            if successes and returned["probability"][i, j] != sum(successes) / config.runs:
                failures.append(f"L{depth}_lr{j}_r0: success fraction differs from returned")
    return values, failures


ORTH_INITS = ("scaled_gaussian", "orthogonal", "householder")  # rows per depth


def _check_orth(config, returned):
    h = config.config_hash()
    width = config.widths[0]
    table = {
        (int(r[0]), r[1]): r
        for r in _read_table(os.path.join(config.out_dir, f"orthogonal_table_{h}.csv"))
    }
    by_cell = {(depth, init.value): v for (depth, init), v in returned.items()}
    values, failures = {}, []
    for depth in config.depths:
        for init in ORTH_INITS:
            n_success, mean_vni, cell = by_cell.get((depth, init), (0, math.nan, []))
            expected = [str(depth), init, str(n_success), str(config.runs), f"{mean_vni:.6g}"]
            for run in range(config.runs):
                key = f"L{depth}_{init}_r{run}"
                if run >= len(cell):
                    values[key] = None
                    failures.append(f"{key}: missing run")
                    continue
                result = cell[run]
                values[key] = [result.records[-1].vni, result.records[-1].train_loss]
                if table.get((depth, init)) != expected:
                    failures.append(f"{key}: table row differs from returned {expected}")
                if not all(vni_in_range(r.vni, width) for r in result.records):
                    failures.append(f"{key}: indicator outside [1/N, 1]")
                if not math.isfinite(result.records[-1].train_loss):
                    failures.append(f"{key}: non-finite loss")
                if init == "householder":
                    err = orthogonality_error(result.final_state)
                    if not err <= ORTHO_TOL:
                        failures.append(f"{key}: |W^T W - I| = {err:.3g}")
    return values, failures


def orthogonality_error(state) -> float:
    """Largest |W^T W - I| entry over the Householder layers of ``state``."""
    err = 0.0
    for stack, w in zip(state.stacks, state.weights):
        if stack is not None:
            err = max(err, float(np.abs(w.T @ w - np.eye(w.shape[1])).max()))
    return err


def gain_residual(gain) -> float:
    return abs(gain.sigma_w_sq * gain.mu1 - 1.0)
