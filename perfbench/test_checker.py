"""Tests of the benchmark's output checker, on small versions of each workload.

    PYTHONPATH=src python -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import json
import os

import pytest

from checker import check_pass
from run import END_TO_END
from tracer import METRICS
from vannodes import experiments
from vannodes.config import ExperimentConfig
from workloads import WORKLOADS

SMALL = {
    "sweep": dict(widths=[8], depths=[2, 3], probe_samples=64, runs=2, sigma_w_sq=1.0),
    "grid-tanh": dict(
        widths=[8], depths=[2], learning_rates=[0.1], epochs=2, max_epochs=2, batch_size=4,
        runs=2, sigma_w_sq=1.0,
    ),
    "orth-householder": dict(widths=[8], depths=[2], epochs=1, max_epochs=1, runs=1),
}  # fmt: skip
STORE = {"sweep": "sweep_runs", "grid-tanh": "grid_runs"}
VNI_COLUMN = {"sweep": 3, "grid-tanh": 5}  # in a RunStore row, after the key


def _run(name: str, out_dir) -> tuple:
    work = WORKLOADS[name]
    config = ExperimentConfig(**{**work.config, **SMALL[name]}, out_dir=str(out_dir))
    return config, getattr(experiments, work.runner)(config)


def _store_path(name: str, config) -> str:
    return os.path.join(config.out_dir, f"{STORE[name]}_{config.config_hash()}.csv")


def _edit_rows(path: str, edit):
    with open(path) as f:
        lines = f.read().splitlines(keepends=True)
    with open(path, "w") as f:
        f.write("".join(edit(lines)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fresh_pass_passes_and_matches_its_own_references(name, tmp_path):
    config, returned = _run(name, tmp_path / "out")
    result = check_pass(name, config, returned, True, None)
    assert result.failures == [] and result.attempted > 0
    again = check_pass(name, config, returned, True, result.values)
    assert again.fail_frac == 0.0


@pytest.mark.parametrize("name", sorted(STORE))
def test_truncated_last_row_fails(name, tmp_path):
    config, returned = _run(name, tmp_path / "out")
    _edit_rows(_store_path(name, config), lambda lines: lines[:-1] + [lines[-1][:-4] + "\n"])
    assert check_pass(name, config, returned, True, None).fail_frac > 0


def test_resume_over_truncated_row_fails(tmp_path):
    # The RunStore resume defect: a crash leaves a cut-off last row, and a
    # rerun over the same out_dir takes the cut-off value as the cell's result.
    config, returned = _run("sweep", tmp_path / "out")
    refs = check_pass("sweep", config, returned, True, None).values
    path = _store_path("sweep", config)
    _edit_rows(path, lambda lines: lines[:-1] + [lines[-1][:-6] + "\n"])
    resumed = experiments.run_vni_sweep(config)
    result = check_pass("sweep", config, resumed, False, refs)
    assert result.fail_frac == 1.0
    last_key = list(refs)[-1]
    assert any(f.startswith(f"{last_key}: off reference") for f in result.failures)


@pytest.mark.parametrize("name", sorted(STORE))
def test_perturbed_value_fails(name, tmp_path):
    config, returned = _run(name, tmp_path / "out")
    refs = check_pass(name, config, returned, True, None).values

    def perturb(lines):
        parts = lines[2].rstrip("\n").split(",")
        parts[VNI_COLUMN[name]] = repr(float(parts[VNI_COLUMN[name]]) * (1 + 1e-3))
        return lines[:2] + [",".join(parts) + "\n"] + lines[3:]

    _edit_rows(_store_path(name, config), perturb)
    result = check_pass(name, config, returned, True, refs)
    assert result.fail_frac > 0
    assert any("off reference" in f for f in result.failures)


@pytest.mark.parametrize("name", sorted(STORE))
def test_missing_cell_fails(name, tmp_path):
    config, returned = _run(name, tmp_path / "out")
    _edit_rows(_store_path(name, config), lambda lines: lines[:2] + lines[3:])
    result = check_pass(name, config, returned, True, None)
    assert result.fail_frac > 0
    assert any("missing" in f for f in result.failures)


def test_orth_table_value_and_missing_cell_fail(tmp_path):
    config, returned = _run("orth-householder", tmp_path / "out")
    missing = dict(returned)
    missing.pop(next(iter(missing)))
    assert check_pass("orth-householder", config, missing, True, None).fail_frac > 0
    path = os.path.join(config.out_dir, f"orthogonal_table_{config.config_hash()}.csv")

    def perturb(lines):
        parts = lines[-1].rstrip("\n").split(",")
        parts[-1] = repr(float(parts[-1]) * 1.5)
        return lines[:-1] + [",".join(parts) + "\n"]

    _edit_rows(path, perturb)
    assert check_pass("orth-householder", config, returned, True, None).fail_frac > 0


def test_benchmark_json_lists_what_the_benchmark_reports():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == METRICS
