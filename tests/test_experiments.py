import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vannodes import experiments
from vannodes.analysis import vni_empirical
from vannodes.config import ExperimentConfig
from vannodes.data import gaussian_probe
from vannodes.initializers import InitializerSpec
from vannodes.linalg import Rng
from vannodes.network import build_network, output

SMALL = dict(
    depths=[4, 6], widths=[12, 10], runs=3, epochs=3, max_epochs=3, batch_size=4,
    learning_rates=[0.1, 0.5], dataset="xor2", probe_samples=200,
    success_metric="train_accuracy",
)  # fmt: skip

# the smallest resumable runs, with two runs per cell
TINY = {
    "vni_sweep": dict(experiment="vni_sweep", widths=[8], depths=[2], runs=2, probe_samples=64, sigma_w_sq=1.0),
    "grid": dict(
        experiment="grid", widths=[8], depths=[2], runs=2, learning_rates=[0.1], epochs=2, max_epochs=2,
        batch_size=4, success_metric="train_accuracy", sigma_w_sq=1.0,
    ),
}  # fmt: skip


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
    config = ExperimentConfig(**TINY["vni_sweep"], out_dir=str(tmp_path))
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

    # a complete line with a field missing, with bytes that are not UTF-8 or
    # with a value that is not a finite float is dropped and recomputed too
    summary_name = f"sweep_{config.config_hash()}.csv"
    value = data.rfind(b",") + 1  # the last row's indicator
    damaged = [data[:value] + bad + b"\n" for bad in (b"\xff", b"abc", b"nan", b"-inf", b"0.5;x")]
    for corrupt in [data[:last_row] + data[last_row:].split(b",")[0] + b",8,2\n", *damaged]:
        (tmp_path / runs_name).write_bytes(corrupt)
        with pytest.warns(UserWarning, match=runs_name):
            experiments.run_vni_sweep(config)
        assert _files(tmp_path)[summary_name] == fresh[summary_name], corrupt



def test_run_store_drops_a_corrupt_row_from_the_file(tmp_path):
    # The rerun that drops a corrupt row rewrites the file without it, so
    # the next rerun warns of nothing and finds each key once.
    config = ExperimentConfig(**TINY["vni_sweep"], out_dir=str(tmp_path))
    experiments.run_vni_sweep(config)
    path = tmp_path / f"sweep_runs_{config.config_hash()}.csv"
    fresh = path.read_bytes()
    value = fresh.rfind(b",") + 1  # the last row's indicator
    path.write_bytes(fresh[:value] + b"abc\n")
    with pytest.warns(UserWarning, match="dropped 1"):
        experiments.run_vni_sweep(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        experiments.run_vni_sweep(config)
    keys = [line.split(b",")[0] for line in path.read_bytes().splitlines()[2:]]
    assert len(keys) == len(set(keys)) == config.runs
    assert sorted(path.read_bytes().splitlines()) == sorted(fresh.splitlines())
    assert not list(tmp_path.glob("*.part"))

def _aggregates(config) -> list:
    """The arrays a resumable runner aggregates from its run CSV."""
    if config.experiment == "vni_sweep":
        return [a for _, means, stds, _ in experiments.run_vni_sweep(config).values() for a in (means, stds)]
    return list(experiments.run_grid(config).values())


@pytest.fixture(scope="module")
def fresh_run_csvs(tmp_path_factory) -> dict:
    """experiment -> (config, run CSV path, its bytes after a fresh run)."""
    runs = {}
    for experiment, fields in TINY.items():
        config = ExperimentConfig(**fields, out_dir=str(tmp_path_factory.mktemp(experiment)))
        _aggregates(config)
        [path] = Path(config.out_dir).glob("*_runs_*.csv")
        runs[experiment] = (config, path, path.read_bytes())
    return runs


@st.composite
def _damaged(draw, data: bytes) -> bytes:
    """A prefix of ``data``, or ``data`` with up to 8 bytes overwritten."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data)))]
    damaged = bytearray(data)
    for _ in range(draw(st.integers(1, 8))):
        damaged[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(damaged)


@pytest.mark.parametrize("experiment", sorted(TINY))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_run_store_survives_any_damage(experiment, fresh_run_csvs, data):
    # Whatever a crash or a stray write leaves of a run CSV, the rerun
    # raises nothing and aggregates finite values only.
    config, path, fresh = fresh_run_csvs[experiment]
    for old in path.parent.iterdir():
        old.unlink()
    path.write_bytes(data.draw(_damaged(fresh)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        aggregates = _aggregates(config)
    assert all(np.isfinite(a).all() for a in aggregates)


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


def _sweep_reference(config) -> dict:
    """Each sweep run's indicator from a network of exactly its depth, drawn
    with the (width, run) key the sweep reads all its depths from."""
    gain = experiments.resolve_gain(config, config.sigma_x_sq, config.init_kind)
    init = InitializerSpec(config.init_kind, gain.sigma_w_sq, config.bottleneck_nb)
    values = {}
    for width in config.widths:
        for run in range(config.runs):
            rng = Rng(config.master_seed, (width, run))
            probe = gaussian_probe(config.probe_samples, width, config.sigma_x_sq, rng.spawn(1))
            for depth in config.depths:
                state = build_network(config.network_spec(depth, width, width, 0), init, rng.spawn(0))
                values[f"N{width}_L{depth}_r{run}"] = vni_empirical(output(state, probe))[0]
    return values


def _stored_vni(config, out_dir) -> dict:
    lines = (out_dir / f"sweep_runs_{config.config_hash()}.csv").read_text().splitlines()[2:]
    return {key: vni for key, _, _, vni in (line.split(",") for line in lines)}


SWEEP = dict(experiment="vni_sweep", widths=[12, 10], depths=[6, 2, 4], runs=2, probe_samples=200)


def test_sweep_reads_every_depth_from_one_network(tmp_path, monkeypatch):
    config = ExperimentConfig(**SWEEP, out_dir=str(tmp_path))
    added = {}
    add = experiments.RunStore.add

    def record(self, key, values):
        added[key] = values[2]
        add(self, key, values)

    monkeypatch.setattr(experiments.RunStore, "add", record)
    experiments.run_vni_sweep(config)
    reference = _sweep_reference(config)
    assert added.keys() == reference.keys()
    for key, value in added.items():
        assert value == reference[key], key  # bit for bit


def test_sweep_resumes_a_run_with_some_depths_stored(tmp_path):
    # A run CSV cut after any row holds some depths of a (width, run): the
    # missing ones are read from the same network as the stored ones.
    config = ExperimentConfig(**SWEEP, out_dir=str(tmp_path))
    experiments.run_vni_sweep(config)
    fresh = _files(tmp_path)
    runs_name = f"sweep_runs_{config.config_hash()}.csv"
    lines = fresh[runs_name].decode().splitlines(keepends=True)
    for kept in range(2, len(lines)):
        for path in tmp_path.iterdir():
            path.unlink()
        (tmp_path / runs_name).write_text("".join(lines[:kept]))
        experiments.run_vni_sweep(config)
        assert _files(tmp_path) == fresh, kept
    reference = _sweep_reference(config)
    assert _stored_vni(config, tmp_path) == {key: f"{v:.10g}" for key, v in reference.items()}

    # rows kept out of order: the same rows and the same summary files
    for path in tmp_path.iterdir():
        path.unlink()
    (tmp_path / runs_name).write_text("".join(lines[:2] + [line for line in lines[2:] if "_L4_" in line]))
    experiments.run_vni_sweep(config)
    resumed = _files(tmp_path)
    assert sorted(resumed.pop(runs_name).splitlines()) == sorted(fresh[runs_name].splitlines())
    assert resumed == {name: data for name, data in fresh.items() if name != runs_name}


def test_sweep_with_a_depth_listed_twice(tmp_path):
    config = ExperimentConfig(**{**SWEEP, "depths": [4, 2, 4]}, out_dir=str(tmp_path))
    results = experiments.run_vni_sweep(config)
    reference = _sweep_reference(config)
    assert _stored_vni(config, tmp_path) == {key: f"{v:.10g}" for key, v in reference.items()}
    rows = (tmp_path / f"sweep_{config.config_hash()}.csv").read_text().splitlines()[2:]
    for width in config.widths:
        by_depth = [row for row in rows if row.startswith(f"{width},")]
        assert [row.split(",")[1] for row in by_depth] == ["4", "2", "4"]
        assert by_depth[0] == by_depth[2]
        assert results[width][1][0] == results[width][1][2]


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


def test_grid_resume_trains_only_the_missing_runs(tmp_path, monkeypatch):
    # The grid trains the missing runs of one depth together: a run CSV cut
    # after any row, also inside a depth's group, is completed by training
    # exactly the runs it lacks, and every file comes out byte for byte.
    config = ExperimentConfig(experiment="grid", **SMALL, out_dir=str(tmp_path))
    experiments.run_grid(config)
    fresh = _files(tmp_path)
    runs_name = f"grid_runs_{config.config_hash()}.csv"
    lines = fresh[runs_name].decode().splitlines(keepends=True)
    rng_keys = {
        f"L{depth}_lr{j}_r{run}": (i, j, run)
        for i, depth in enumerate(config.depths)
        for j in range(len(config.learning_rates))
        for run in range(config.runs)
    }
    trained = []
    train = experiments.train

    def counting_train(*args, **kwargs):
        rngs = args[5]
        trained.extend(r.key for r in (rngs if isinstance(rngs, list) else [rngs]))
        return train(*args, **kwargs)

    monkeypatch.setattr(experiments, "train", counting_train)
    for kept in range(2, len(lines) + 1):
        for path in tmp_path.iterdir():
            path.unlink()
        (tmp_path / runs_name).write_text("".join(lines[:kept]))
        trained.clear()
        experiments.run_grid(config)
        assert _files(tmp_path) == fresh, kept
        assert trained == [rng_keys[line.split(",")[0]] for line in lines[kept:]], kept


def test_sweep_keeps_the_rows_computed_before_a_failure(tmp_path, monkeypatch):
    # The sweep stores each row as it is computed: when a later row fails,
    # the rows before it are in the run CSV and are not computed again.
    config = ExperimentConfig(**SWEEP, out_dir=str(tmp_path))
    experiments.run_vni_sweep(config)
    fresh = _files(tmp_path)
    runs_name = f"sweep_runs_{config.config_hash()}.csv"
    fresh_lines = fresh[runs_name].decode().splitlines(keepends=True)
    for path in tmp_path.iterdir():
        path.unlink()
    streamed_layers = experiments.streamed_layers
    calls = []

    def failing_streamed_layers(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("run failed")
        return streamed_layers(*args)

    monkeypatch.setattr(experiments, "streamed_layers", failing_streamed_layers)
    with pytest.raises(RuntimeError):
        experiments.run_vni_sweep(config)
    # the first width's two probe passes gave all its rows; the next width's first failed
    kept = (tmp_path / runs_name).read_text().splitlines(keepends=True)
    assert kept == fresh_lines[: 2 + len(SWEEP["depths"]) * SWEEP["runs"]]
    monkeypatch.setattr(experiments, "streamed_layers", streamed_layers)
    experiments.run_vni_sweep(config)
    assert _files(tmp_path) == fresh
