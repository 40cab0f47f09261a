import warnings
from pathlib import Path

import numpy as np
import pytest

from vannodes import experiments
from vannodes.config import ExperimentConfig

SMALL = dict(
    depths=[4, 6], widths=[12, 10], runs=3, epochs=3, max_epochs=3, batch_size=4,
    learning_rates=[0.1, 0.5], dataset="xor2", probe_samples=200,
    success_metric="train_accuracy",
)  # fmt: skip


def _files(out_dir) -> dict:
    return {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}


@pytest.mark.parametrize(
    "experiment,runner",
    [("vni_sweep", "run_vni_sweep"), ("dynamics", "run_dynamics"), ("grid", "run_grid")],
)
def test_resumed_run_rewrites_identical_files(experiment, runner, tmp_path):
    config = ExperimentConfig(experiment=experiment, **SMALL, out_dir=str(tmp_path))
    getattr(experiments, runner)(config)
    fresh = _files(tmp_path)
    getattr(experiments, runner)(config)  # every run is stored: nothing is computed
    assert _files(tmp_path) == fresh


def test_run_store_recomputes_rows_cut_short(tmp_path):
    # A crash while appending leaves a cut-off last row: it is dropped with
    # a warning and recomputed, wherever the cut falls.
    config = ExperimentConfig(
        experiment="vni_sweep", widths=[8], depths=[2], runs=2, probe_samples=64,
        sigma_w_sq=1.0, out_dir=str(tmp_path),
    )  # fmt: skip
    experiments.run_vni_sweep(config)
    fresh = _files(tmp_path)
    runs_name = f"sweep_runs_{config.config_hash()}.csv"
    data = fresh[runs_name]
    last_row = data.rstrip(b"\n").rfind(b"\n") + 1
    for cut in range(len(data)):
        for path in tmp_path.iterdir():
            path.unlink()
        (tmp_path / runs_name).write_bytes(data[:cut])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            experiments.run_vni_sweep(config)
        assert _files(tmp_path) == fresh, cut
        if cut > last_row:
            assert any(runs_name in str(w.message) for w in caught), cut

    # a complete line with a field missing is dropped and recomputed too
    summary_name = f"sweep_{config.config_hash()}.csv"
    (tmp_path / runs_name).write_bytes(data[:last_row] + data[last_row:].split(b",")[0] + b",8,2\n")
    with pytest.warns(UserWarning, match=runs_name):
        experiments.run_vni_sweep(config)
    assert _files(tmp_path)[summary_name] == fresh[summary_name]


def test_run_store_closed_when_a_run_fails(tmp_path, monkeypatch):
    closed = []
    close = experiments.RunStore.close
    monkeypatch.setattr(experiments.RunStore, "close", lambda self: closed.append(close(self)))

    def fail(*args, **kwargs):
        raise RuntimeError("run failed")

    monkeypatch.setattr(experiments, "train", fail)
    config = ExperimentConfig(experiment="grid", **SMALL, out_dir=str(tmp_path))
    with pytest.raises(RuntimeError):
        experiments.run_grid(config)
    assert len(closed) == 1


@pytest.mark.parametrize("nb", [1, 3])
def test_diagnostics_use_bottleneck_rank(nb, tmp_path):
    # A rank-1 bottleneck collapses layer L to one direction; rank 3 does not.
    config = ExperimentConfig(
        experiment="diagnostics", depths=[4], widths=[12], probe_samples=200,
        init="bottleneck", bottleneck_nb=nb, out_dir=str(tmp_path),
    )  # fmt: skip
    vni = experiments.run_diagnostics(config)["report"].vni_empirical
    if nb == 1:
        assert vni == pytest.approx(1.0, abs=1e-9)
    else:
        assert vni < 0.9


def test_sweep_without_closed_form_s1(tmp_path):
    # The bottleneck ensemble has no closed-form s_1: the sweep still runs,
    # writes nan for the moment prediction and plots the simulation alone.
    config = ExperimentConfig(
        experiment="vni_sweep", widths=[8], depths=[2, 3], runs=2, probe_samples=64,
        init="bottleneck", out_dir=str(tmp_path),
    )  # fmt: skip
    results = experiments.run_vni_sweep(config)
    assert np.isnan(results[8][3]).all()
    rows = (tmp_path / f"sweep_{config.config_hash()}.csv").read_text().splitlines()[2:]
    assert [row.split(",")[-1] for row in rows] == ["nan", "nan"]
    svg = (tmp_path / f"sweep_N8_{config.config_hash()}.svg").read_text()
    assert "simulation" in svg and "moment prediction" not in svg


@pytest.mark.parametrize("runs", [1, 3])
def test_dynamics_quartiles_over_early_stopped_runs(runs, tmp_path):
    # Early stop ends runs at different epochs: the summary covers the
    # shortest run, and its median is the median of the stored series.
    config = ExperimentConfig(
        experiment="dynamics", **{**SMALL, "runs": runs, "epochs": 30, "max_epochs": 30},
        early_stop=True, out_dir=str(tmp_path),
    )  # fmt: skip
    series = experiments.run_dynamics(config)
    rows = (tmp_path / f"dynamics_runs_{config.config_hash()}.csv").read_text().splitlines()[2:]
    lengths = set()
    for lr_index, lr in enumerate(config.learning_rates):
        stored = [
            [float(v) for v in row.split(",")[4].split(";")] for row in rows if row.startswith(f"lr{lr_index}_")
        ]
        assert len(stored) == runs
        lengths |= {len(s) for s in stored}
        n = min(len(s) for s in stored)
        epochs, q1, med, q3 = series[lr]
        assert epochs.tolist() == list(range(n))
        assert med.tolist() == np.median([s[:n] for s in stored], axis=0).tolist()
        assert np.all(q1 <= med) and np.all(med <= q3)
    summary = (tmp_path / f"dynamics_{config.config_hash()}.csv").read_text().splitlines()[2:]
    assert len(summary) == sum(len(s[0]) for s in series.values())
    if runs > 1:
        assert len(lengths) > 1  # the runs did stop at different epochs
