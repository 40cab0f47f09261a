import hashlib
import os
import shutil
import struct
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vannodes import cpus as cpus_module, experiments
from vannodes.activations import in_place
from vannodes.analysis import vni_empirical
from vannodes.cli import _RUNNERS
from vannodes.config import ExperimentConfig
from vannodes.data import gaussian_probe
from vannodes.initializers import InitKind, InitializerSpec
from vannodes.linalg import Rng
from vannodes.network import _layer_step, build_network, layers

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
    "dynamics": dict(
        experiment="dynamics", widths=[8], depths=[2], runs=2, learning_rates=[0.1], epochs=2, max_epochs=2,
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


# sha256 of every file the seven subcommands write at SMALL, recorded before
# the run-CSV columns were typed: the typed store writes the same bytes.  The
# sweep and heatmap CSVs were recorded again when the probe pass moved to
# float32 (their values moved by at most 2.75e-8, or one last printed digit),
# and dynamics_runs and heatmap_N10_L4 when the tuned hard-tanh gain became
# exactly 1, from 1 + 2^-39 (per-epoch indicators moved by at most 2.8e-12
# relative; two grid entries below 1e-4 by one last printed digit)
OUTPUT_DIGESTS = {
    "diagnostics_9bd2917e5f4d.csv": "f94b3f11d6fa528861d4a2fc10db5df23243cbda00c681e914d6ca03f2f5c2e9",
    "dynamics_69f636575cc1.csv": "0a3b4ac4b82ed1fe93e8e872ebab6d414ea2a56370e8480dc439dc21e7652a67",
    "dynamics_69f636575cc1.svg": "6d124cb1e601147bb157b99680fc74eeb2821fd6a16409a1619927e9ee883624",
    "dynamics_runs_69f636575cc1.csv": "bec6f43775e715f3eea54508737fbbf2610b86bee3b7f73a3bc8059385e71a29",
    "grid_d2fe2541efd5.csv": "6b742626cff63427221209577847f2e184dca63863b4a319c496d377cfc0fa5c",
    "grid_d2fe2541efd5.svg": "e16ed658b35709057235ca791eaf2ebfd1b6e88bee91d2747486af6c7e8f7269",
    "grid_gain_box_d2fe2541efd5.svg": "975a92dce032e57aa9b8d68a206848c9e21a6474248a8e416da877bf82ef1a5f",
    "grid_runs_d2fe2541efd5.csv": "6e456e3a9aefa16992bb47ebbbee6b329f619cd8785182ee17777af83d625d96",
    "grid_vni_hist_d2fe2541efd5.csv": "0b5c495e99d9dd9eedbe28b4e82a9bb428960140ce3ba4daea79d55c68f64dc7",
    "heatmap_N10_L4_ef7b08b6227f.csv": "9675713484f824885ef3892c2fd29c8bfa2a609ba57266c94cf4fa665c3e8003",
    "heatmap_N10_L4_ef7b08b6227f.svg": "caee37a9e9e7d7e2d4eb210d851857c189aaadc533265cc02b2af0a082320e7d",
    "heatmap_N12_L4_ef7b08b6227f.csv": "6077659837a76cad08e4150a7599390c3f2de48a861394db6c05d7e9c4317c90",
    "heatmap_N12_L4_ef7b08b6227f.svg": "7852b930486f75d32564992f7efbf10a6669f9afb37e923bcaf333468454eb2c",
    "heatmap_N12_L6_ef7b08b6227f.csv": "174d8f6450c4cb9fc750f2777173b7e1a7043367d4ec9a0ed055adc06e2dfa69",
    "heatmap_N12_L6_ef7b08b6227f.svg": "31fcd61571cd2427d64ba08d8c4e73fa028abd30a842e41db4b6e752d335f4c8",
    "heatmap_summary_ef7b08b6227f.csv": "ae8185b3191ce57fda00e3b940417941fc8f3008146512de31005a3097081cd6",
    "orthogonal_table_91a2cf6b5167.csv": "3c9f07069cbd4ef490e939e430d8746a9546530e3a0065b7a0001c180f998d2d",
    "sweep_5150ab322a67.csv": "990ec83491dce8d31067a84c1584dc4bc82ece4d2240b95596de2e9adbbdaf50",
    "sweep_N10_5150ab322a67.svg": "80b82a2d054ea56df00b4358df716c2df6ea65b464c08bcd8efaecf8088d5024",
    "sweep_N12_5150ab322a67.svg": "afab768265cd8d43dc9a3a485f21394ea5d17fd434dd7ff3de598f4c4d62e39c",
    "sweep_runs_5150ab322a67.csv": "340471d35e5708244edcbd4dc932c828b83ced0b7a6d1b04cef6c096ca301acb",
    "tasks_ratio_4b95172312cd.csv": "dc552d4d5ab3072e6ec22334c46f1e158bc3887c8a14f60c216c8e43a70c956f",
    "tasks_table_4b95172312cd.csv": "c169d11c6ab5727f66edaad8e43610ff518be649d8e1dc1de8b7e00b15c0ccc2",
}


def test_every_subcommand_writes_the_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative out_dir keeps the config hashes fixed
    for experiment, runner, _ in _RUNNERS.values():
        runner(ExperimentConfig(experiment=experiment, **SMALL, out_dir="out"))
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in _files(tmp_path / "out").items()}
    assert digests == OUTPUT_DIGESTS


@pytest.mark.parametrize("threads", [1, 2])
def test_every_subcommand_writes_the_recorded_bytes_at_any_blas_thread_count(threads, tmp_path, monkeypatch):
    blas = cpus_module._openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS is not found")
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(threads)
    try:
        test_every_subcommand_writes_the_recorded_bytes(tmp_path, monkeypatch)
    finally:
        set_threads(before)


def test_every_subcommand_writes_the_recorded_bytes_without_an_affinity_call(tmp_path, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: there nothing is split
    # or forked, even where every fan-out would fork, and the files keep
    # their recorded bytes.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(cpus_module, "_FAN_OUT_FLOOR", 0)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a fan-out forked without an affinity call"))
    test_every_subcommand_writes_the_recorded_bytes(tmp_path, monkeypatch)


def _write_mnist(directory: Path):
    """The four MNIST IDX files in ``directory``: random pixels and labels
    0-9 of 100 training and 50 test images."""
    directory.mkdir()
    rng = Rng(7)
    for prefix, count in (("train", 100), ("t10k", 50)):
        images = rng.integers(0, 256, size=(count, 28, 28)).astype(np.uint8).tobytes()
        labels = rng.integers(0, 10, size=count).astype(np.uint8).tobytes()
        (directory / f"{prefix}-images-idx3-ubyte").write_bytes(struct.pack(">IIII", 0x803, count, 28, 28) + images)
        (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, count) + labels)


def test_dynamics_writes_the_same_bytes_at_any_blas_thread_count(tmp_path, monkeypatch):
    # At MNIST's shape two BLAS threads and one differ in the last bit of a
    # training step; dynamics trains inside the fan-out's one-thread pin, so
    # its files do not depend on the caller's thread count.
    blas = cpus_module._openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS is not found")
    monkeypatch.chdir(tmp_path)  # relative paths keep the config hash fixed
    _write_mnist(tmp_path / "mnist")
    config = ExperimentConfig(
        experiment="dynamics", dataset="mnist", mnist_dir="mnist", widths=[100], depths=[1], batch_size=100,
        epochs=2, runs=2, learning_rates=[0.01, 0.1], out_dir="out",
    )  # fmt: skip
    get_threads, set_threads = blas
    before, written = get_threads(), []
    try:
        for threads in (1, 2):
            set_threads(threads)
            experiments.run_dynamics(config)
            written.append(_files("out"))
            shutil.rmtree("out")
    finally:
        set_threads(before)
    assert len(written[0]) == 3 and written[0] == written[1]


def test_diagnostics_return_the_same_bits_at_any_blas_thread_count(tmp_path):
    # At this shape two BLAS threads and one differ in the last bits of the
    # Jacobian route; diag computes inside the fan-out's one-thread pin, so
    # its report does not depend on the caller's thread count.
    blas = cpus_module._openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS is not found")
    config = ExperimentConfig(experiment="diagnostics", widths=[250], depths=[30], probe_samples=1000, out_dir=str(tmp_path))
    get_threads, set_threads = blas
    before, returned = get_threads(), []
    try:
        for threads in (1, 2):
            set_threads(threads)
            result = experiments.run_diagnostics(config)
            with np.printoptions(floatmode="unique", threshold=sys.maxsize):
                returned.append(repr((result["report"], result["diagnostics"])))
    finally:
        set_threads(before)
    assert returned[0] == returned[1]


def test_a_crash_while_replacing_a_file_keeps_the_old_one(tmp_path, monkeypatch):
    # Every aggregate file is written to <name>.part and renamed over <name>,
    # so a crash at the rename leaves the file of the last whole run as it was.
    config = ExperimentConfig(experiment="grid", **SMALL, out_dir=str(tmp_path))
    experiments.run_grid(config)
    fresh = _files(tmp_path)
    replaced, replace = [], os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: replaced.append(os.path.basename(dst)) or replace(src, dst))
    experiments.run_grid(config)  # every run is stored: only the aggregates are written
    assert sorted(replaced) == sorted(name for name in fresh if not name.startswith("grid_runs_"))

    def crash(src, dst):
        raise OSError(f"crashed renaming {src}")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="crashed renaming"):
        experiments.run_grid(config)
    assert {name: data for name, data in _files(tmp_path).items() if not name.endswith(".part")} == fresh


# each resumable runner's run CSV: the index of its indicator field in a row
# (the key is field 0), and (field, text) damages of its other columns: a
# count that is not an int, and grid's success that is not 0/1
INDICATOR_FIELD = {"vni_sweep": 3, "grid": 5, "dynamics": 4}
OWN_DAMAGES = {"vni_sweep": [(1, b"2.5")], "grid": [(1, b"2.5"), (4, b"2")], "dynamics": [(2, b"2.5")]}
RUNNERS = {experiment: runner for experiment, runner, _ in _RUNNERS.values()}


def _with_field(data: bytes, index: int, text: bytes) -> bytes:
    """``data`` with field ``index`` of its last row replaced by ``text``."""
    head, last = data.rstrip(b"\n").rsplit(b"\n", 1)
    fields = last.split(b",")
    fields[index] = text
    return head + b"\n" + b",".join(fields) + b"\n"


@pytest.mark.parametrize("experiment", sorted(TINY))
def test_run_store_recomputes_rows_cut_short(experiment, tmp_path):
    # A crash while appending leaves a cut-off last row: it is dropped with
    # a warning and recomputed, wherever the cut falls.
    config = ExperimentConfig(**TINY[experiment], out_dir=str(tmp_path))
    run = RUNNERS[experiment]
    run(config)
    fresh = _files(tmp_path)
    runs_name = next(name for name in fresh if "_runs_" in name)
    data = fresh[runs_name]
    last_row = data.rstrip(b"\n").rfind(b"\n") + 1
    for cut in range(len(data)):
        for path in tmp_path.iterdir():
            path.unlink()
        (tmp_path / runs_name).write_bytes(data[:cut])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(config)
        assert _files(tmp_path) == fresh, cut
        if cut > last_row:
            assert any(runs_name in str(w.message) for w in caught), cut

    # A complete last row with a field missing, with bytes that are not
    # UTF-8, or with a value outside its column's kind is dropped with one
    # warning and recomputed. An indicator must be in [0, 1]: a ";" in place
    # of its "." splits it, or a series element, into two numbers.
    field = INDICATOR_FIELD[experiment]
    indicator = data[last_row:].rstrip(b"\n").split(b",")[field]
    bad_indicators = [b"\xff", b"abc", b"nan", b"-inf", b"0.5;x", b"0.362964e255", b"1.5", indicator.replace(b".", b";", 1)]
    damages = [(field, bad) for bad in bad_indicators] + OWN_DAMAGES[experiment]
    short = data[:last_row] + b",".join(data[last_row:].split(b",")[:-1]) + b"\n"
    for corrupt in [short, *(_with_field(data, index, bad) for index, bad in damages)]:
        for path in tmp_path.iterdir():
            path.unlink()
        (tmp_path / runs_name).write_bytes(corrupt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(config)
        assert [str(w.message) for w in caught] == [
            f"{tmp_path / runs_name}: dropped 1 incomplete or corrupt row(s); their runs are recomputed"
        ], corrupt
        assert _files(tmp_path) == fresh, corrupt


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


def test_run_store_drops_a_row_of_another_config(tmp_path):
    # A row whose key is no run of this config (a renamed key) is dropped
    # like a corrupt one: the first rerun warns once and leaves the file as
    # a fresh run writes it, the next warns of nothing.
    config = ExperimentConfig(**TINY["vni_sweep"], out_dir=str(tmp_path))
    experiments.run_vni_sweep(config)
    path = tmp_path / f"sweep_runs_{config.config_hash()}.csv"
    fresh = path.read_bytes()
    assert b"\nN8_L2_r1," in fresh
    path.write_bytes(fresh.replace(b"\nN8_L2_r1,", b"\nN8_L2_s1,"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        experiments.run_vni_sweep(config)
    assert [str(w.message) for w in caught] == [
        f"{path}: dropped 1 incomplete or corrupt row(s); their runs are recomputed"
    ]
    assert path.read_bytes() == fresh
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        experiments.run_vni_sweep(config)
    assert path.read_bytes() == fresh


@pytest.mark.parametrize("experiment", sorted(TINY))
def test_run_store_drops_every_row_of_a_repeated_key(experiment, tmp_path):
    # Run 1's row relabelled with run 0's key: neither row can be told to
    # hold run 0, so the first rerun drops both with one warning and leaves
    # the file and the aggregates as a fresh run gives them; the next rerun
    # warns of nothing.
    config = ExperimentConfig(**TINY[experiment], out_dir=str(tmp_path))
    want = _aggregates(config)
    [path] = tmp_path.glob("*_runs_*.csv")
    fresh = path.read_bytes()
    *head, first, second = fresh.splitlines(keepends=True)
    assert len(head) == 2
    path.write_bytes(b"".join(head) + first + first.partition(b",")[0] + b"," + second.partition(b",")[2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _aggregates(config)
    assert [str(w.message) for w in caught] == [
        f"{path}: dropped 2 incomplete or corrupt row(s); their runs are recomputed"
    ]
    assert path.read_bytes() == fresh
    assert [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in want]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _aggregates(config)
    assert path.read_bytes() == fresh


def _aggregates(config) -> list:
    """The arrays a resumable runner aggregates from its run CSV."""
    if config.experiment == "vni_sweep":
        return [a for _, means, stds, _ in experiments.run_vni_sweep(config).values() for a in (means, stds)]
    if config.experiment == "dynamics":
        return [a for quartiles in experiments.run_dynamics(config).values() for a in quartiles[1:]]
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


def test_run_store_refuses_a_row_its_load_would_drop(tmp_path, monkeypatch):
    # A computed indicator outside [0, 1] raises, naming its column, and
    # never reaches the run CSV, where the next load would drop it.
    config = ExperimentConfig(**TINY["vni_sweep"], out_dir=str(tmp_path))
    monkeypatch.setattr(experiments, "vni_empirical", lambda x: (1.5, None, None))
    with pytest.raises(ValueError, match="column vni: '1.5'"):
        experiments.run_vni_sweep(config)
    path = tmp_path / f"sweep_runs_{config.config_hash()}.csv"
    assert path.read_text().splitlines()[1:] == ["key,width,depth,vni"]


# The runners that read one value of some lists, and those lists
ONE_VALUE_OF = {
    "grid": ["widths"],
    "dynamics": ["widths", "depths"],
    "tasks_table": ["widths", "depths", "learning_rates"],
    "orthogonal_table": ["widths", "learning_rates"],
    "diagnostics": ["widths", "depths"],
}


@pytest.mark.parametrize("experiment", sorted(ONE_VALUE_OF))
def test_a_runner_names_the_list_values_it_drops(experiment, tmp_path):
    # Two values in every list: one UserWarning per list the runner reads
    # one value of, naming the key, the value used and the values dropped,
    # attributed to the runner's caller and issued before any cell is
    # computed (so before out_dir is made).
    config = ExperimentConfig(
        experiment=experiment, widths=[8, 6], depths=[2, 3], learning_rates=[0.1, 0.3], runs=1, epochs=1,
        max_epochs=1, batch_size=4, probe_samples=32, success_metric="train_accuracy", sigma_w_sq=1.0,
        out_dir=str(tmp_path / "out"),
    )  # fmt: skip
    [run] = [runner for name, runner, _ in _RUNNERS.values() if name == experiment]
    dropped = {"widths": "uses 8, drops [6]", "depths": "uses 2, drops [3]", "learning_rates": "uses 0.1, drops [0.3]"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match=f"reads one value of {ONE_VALUE_OF[experiment][0]}"):
            run(config)
    assert not (tmp_path / "out").exists()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(config)
    assert [str(w.message) for w in caught] == [
        f"{experiment} reads one value of {key}: {dropped[key]}" for key in ONE_VALUE_OF[experiment]
    ]
    assert {(w.category, w.filename) for w in caught} == {(UserWarning, __file__)}


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


@pytest.mark.parametrize("width,depth", [(6, 3), (4, 10)])
def test_diagnostics_without_a_jacobian_route(width, depth, tmp_path):
    # At sigma_w^2 mu_1 = 1/2 every ReLU of some layer is off at the first
    # probe row, so J = 0 and the Jacobian route is undefined: the report
    # leaves it out and the CSV writes nan, as for any absent route.
    config = ExperimentConfig(
        experiment="diagnostics", activation="relu", init="householder",
        depths=[depth], widths=[width], out_dir=str(tmp_path),
    )  # fmt: skip
    report = experiments.run_diagnostics(config)["report"]
    assert report.vni_jacobian is None and 0 < report.vni_empirical <= 1
    rows = (tmp_path / f"diagnostics_{config.config_hash()}.csv").read_text().splitlines()
    assert "vni_jacobian,nan" in rows


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
    with the (width, run) key the sweep reads all its depths from and
    stepped as the probe pass steps it: weights and probe rounded to float32,
    every layer in float32."""
    gain = experiments.resolve_gain(config, config.sigma_x_sq, config.init_kind)
    init = InitializerSpec(config.init_kind, gain.sigma_w_sq, config.bottleneck_nb)
    phi, values = in_place(config.activation_kind), {}
    for width in config.widths:
        bias = np.zeros(width, np.float32)
        for run in range(config.runs):
            rng = Rng(config.master_seed, (width, run))
            probe = gaussian_probe(config.probe_samples, width, config.sigma_x_sq, rng.spawn(1))
            for depth in config.depths:
                state = build_network(config.network_spec(depth, width, width, 0), init, rng.spawn(0))
                x = probe.astype(np.float32)
                for w in state.weights:
                    x = _layer_step(phi, x, w.astype(np.float32), bias)
                values[f"N{width}_L{depth}_r{run}"] = vni_empirical(x)[0]
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


def test_tanh_cells_of_every_ensemble_share_one_gain():
    # The tuned gain of a scaled-Gaussian or orthogonal cell is the sigma_w^2 = 1
    # that Householder fixes by construction, so the cells of one table share it.
    config = ExperimentConfig(activation="tanh")
    kinds = (InitKind.SCALED_GAUSSIAN, InitKind.ORTHOGONAL, InitKind.HOUSEHOLDER)
    gains = [experiments.resolve_gain(config, 0.5, kind) for kind in kinds]
    assert gains[0] == gains[1] == gains[2]
    assert (gains[0].sigma_w_sq, gains[0].q_star) == (1.0, 0.0)


# Far below the critical gain tanh shrinks |x| by about 10^-0.5 a layer, so
# a float32 pass underflows from L ~ 62 at N = 64 (`vannodes sweep --set
# activation=tanh --set sigma_w_sq=0.1 --set sigma_x_sq=0.1 --set widths=64
# --set depths=40,80 --set runs=2 --set probe_samples=500`).
FAR_BELOW = dict(activation="tanh", sigma_w_sq=0.1, sigma_x_sq=0.1, widths=[64], runs=2, probe_samples=500)


def _float64_pass(config, depth: int, width: int, key: tuple) -> list:
    """x_1..x_depth of the built network's float64 ``layers``, drawn and
    probed as the probe pass draws them from ``Rng(master_seed, key)``."""
    gain = experiments.resolve_gain(config, config.sigma_x_sq, config.init_kind)
    init = InitializerSpec(config.init_kind, gain.sigma_w_sq, config.bottleneck_nb)
    rng = Rng(config.master_seed, key)
    probe = gaussian_probe(config.probe_samples, width, config.sigma_x_sq, rng.spawn(1))
    return list(layers(build_network(config.network_spec(depth, width, width, 0), init, rng.spawn(0)), probe))


def _recording_streamed_passes(monkeypatch) -> list:
    """Record every streamed probe pass the runners open, as (its dtype's
    name, the pass)."""
    passes, streamed_layers = [], experiments.streamed_layers

    def recorded(spec, init, rng, batch, dtype=np.float32):
        passes.append((np.dtype(dtype).name, streamed_layers(spec, init, rng, batch, dtype)))
        return passes[-1][1]

    monkeypatch.setattr(experiments, "streamed_layers", recorded)
    return passes


def test_a_pass_out_of_float32_range_is_read_in_float64(tmp_path, monkeypatch):
    # Every depth of a refused (width, run) comes from one float64 streamed
    # pass of the same draws, with the bits of the built network's float64
    # layers, and each pass is closed or exhausted.
    passes = _recording_streamed_passes(monkeypatch)
    config = ExperimentConfig(experiment="vni_sweep", depths=[40, 80], **FAR_BELOW, out_dir=str(tmp_path / "sweep"))
    experiments.run_vni_sweep(config)
    reference = {}
    for run in range(2):
        x = _float64_pass(config, 80, 64, (64, run))
        reference |= {f"N64_L{d}_r{run}": f"{vni_empirical(x[d - 1])[0]:.10g}" for d in (40, 80)}
    assert _stored_vni(config, tmp_path / "sweep") == reference
    assert reference["N64_L40_r0"] == "0.4919508845" and reference["N64_L80_r0"] == "0.5233211099"

    config = ExperimentConfig(experiment="heatmap", depths=[80], **FAR_BELOW, out_dir=str(tmp_path / "heatmap"))
    off_diag = experiments.run_heatmap(config)[(64, 80)]
    corr_sq = vni_empirical(_float64_pass(config, 80, 64, (64, 80))[-1])[1]
    assert off_diag == (corr_sq.sum() - np.trace(corr_sq)) / (64 * 63)
    # two sweep runs and one heatmap cell, each refused in float32 and read in float64
    assert [dtype for dtype, _ in passes] == ["float32", "float64"] * 3
    assert all(p.gi_frame is None for _, p in passes)


def test_a_float64_pass_that_fails_still_raises(tmp_path, monkeypatch):
    # 400 layers far below the critical gain underflow float64 too: the
    # float64 pass's constant nodes raise, as they did before the float32
    # pass, and the pass that raised is closed.
    passes = _recording_streamed_passes(monkeypatch)
    config = ExperimentConfig(
        experiment="vni_sweep", **{**FAR_BELOW, "widths": [8], "runs": 1, "probe_samples": 64},
        depths=[400], out_dir=str(tmp_path),
    )  # fmt: skip
    with pytest.raises(ValueError, match="all nodes are constant"):
        experiments.run_vni_sweep(config)
    assert [dtype for dtype, _ in passes] == ["float32", "float64"]
    assert all(p.gi_frame is None for _, p in passes)


def test_no_pass_at_the_tuned_gain_is_read_in_float64(tmp_path, monkeypatch):
    # Both runners make their passes in-process here, so every pass is recorded.
    passes = _recording_streamed_passes(monkeypatch)
    experiments.run_vni_sweep(ExperimentConfig(**SWEEP, activation="hard_tanh", out_dir=str(tmp_path)))
    experiments.run_heatmap(ExperimentConfig(experiment="heatmap", **SMALL, out_dir=str(tmp_path)))
    assert [dtype for dtype, _ in passes] == ["float32"] * 7  # 2 x 2 sweep runs, 3 heatmap cells


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
        trained.extend(rng.key for _, rng in args[2])
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


def test_grid_plots_the_gains_of_successes_and_failures(tmp_path, monkeypatch):
    # and2 at depth 2: every run at lr 0.5 fits the task in 20 epochs and
    # none at lr 1e-4, so the gain box plot has both series, each the
    # gain medians of its runs, and the indicator histogram both outcomes.
    config = ExperimentConfig(
        experiment="grid", widths=[8], depths=[2], runs=2, learning_rates=[0.5, 1e-4], epochs=20, max_epochs=20,
        batch_size=4, dataset="and2", success_metric="train_accuracy", sigma_w_sq=1.0, out_dir=str(tmp_path),
    )  # fmt: skip
    plotted = {}
    box_plot = experiments.svgplot.box_plot
    monkeypatch.setattr(experiments.svgplot, "box_plot", lambda groups, **kw: plotted.update(groups) or box_plot(groups, **kw))
    experiments.run_grid(config)
    runs = [line.split(",") for line in (tmp_path / f"grid_runs_{config.config_hash()}.csv").read_text().splitlines()[2:]]
    gains = {outcome: [float(r[6]) for r in runs if r[4] == flag] for outcome, flag in (("success", "1"), ("failure", "0"))}
    assert gains["success"] and gains["failure"]
    assert {label: list(v) for label, v in plotted.items()} == {"success gain": gains["success"], "failure gain": gains["failure"]}
    hist = (tmp_path / f"grid_vni_hist_{config.config_hash()}.csv").read_text().splitlines()[2:]
    counts = {outcome: sum(int(row.split(",")[3]) for row in hist if row.startswith(outcome)) for outcome in ("failed", "success")}
    assert counts == {"failed": 2, "success": 2}


class _Groups(Exception):
    """Raised, with the groups it was handed, by a stand-in for ``_stored_runs``."""


def _capture_groups(config, name, columns, groups, compute, work=None, part=None):
    raise _Groups(groups)


@settings(max_examples=40, deadline=None)
@given(
    depths=st.lists(st.integers(1, 300), min_size=1, max_size=4, unique=True),
    widths=st.lists(st.integers(1, 300), min_size=1, max_size=4, unique=True),
    learning_rates=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=4, unique=True),
    runs=st.integers(1, 3),
)
def test_resumable_runners_store_each_run_key_once(depths, widths, learning_rates, runs):
    # The config lists no depth, width or learning rate twice, so each
    # resumable runner hands ``_stored_runs`` one key per run of its cells:
    # a key listed twice would be stored in two rows, and a resume drops both.
    cells = {
        experiments.run_vni_sweep: len(widths) * len(depths),
        experiments.run_grid: len(depths) * len(learning_rates),
        experiments.run_dynamics: len(learning_rates),
    }
    fields = dict(depths=depths, widths=widths, learning_rates=learning_rates, runs=runs, sigma_w_sq=1.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_stored_runs", _capture_groups)
        for runner, n_cells in cells.items():
            with pytest.raises(_Groups) as caught:  # before anything is computed
                runner(ExperimentConfig(**fields))
            keys = [key for group in caught.value.args[0] for key, _ in group]
            assert len(set(keys)) == len(keys) == n_cells * runs, runner.__name__


def test_sweep_keeps_the_rows_computed_before_a_failure(tmp_path, monkeypatch):
    # The sweep stores a width's rows when its probe passes end: when a later
    # width fails, the rows before it are in the run CSV and are not computed
    # again.
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


def _forking(monkeypatch) -> list:
    """Force every fan-out of two or more calls to fork (work floor 0); the
    returned list gets one entry per fork."""
    if cpus_module._openblas_threads() is None:
        pytest.skip("numpy's OpenBLAS is not found, so every fan-out runs in-process")
    monkeypatch.setattr(cpus_module, "_FAN_OUT_FLOOR", 0)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _cpus(n: int):
    """The test process's own affinity cut to n of its CPUs inside the block."""
    affinity = os.sched_getaffinity(0)
    if len(affinity) < n:
        pytest.skip(f"the process may use {len(affinity)} CPU(s); {n} are needed")
    os.sched_setaffinity(0, sorted(affinity)[:n])
    try:
        yield
    finally:
        os.sched_setaffinity(0, affinity)


@pytest.mark.parametrize("activation", ["linear", "relu", "tanh", "hard_tanh"])
@pytest.mark.parametrize("init", ["scaled_gaussian", "householder"])
def test_the_sweep_forks_one_call_per_probe_pass(activation, init, tmp_path, monkeypatch):
    # Each (width, run) pass is one call of the fan-out: at 2 CPUs a forked
    # child steps some of the 4 passes, and for every activation and layer
    # kind the sweep writes the bytes of the passes made in-process at 1
    # CPU, the reference's indicators.
    forks = _forking(monkeypatch)
    fanned, fan_out = [], experiments.fan_out
    monkeypatch.setattr(experiments, "fan_out", lambda calls: fanned.append(len(calls)) or fan_out(calls))
    config, written = ExperimentConfig(**SWEEP, activation=activation, init=init, out_dir="out"), []
    monkeypatch.chdir(tmp_path)
    for cpus in (1, 2):
        shutil.rmtree("out", ignore_errors=True)
        with _cpus(cpus):
            experiments.run_vni_sweep(config)
        written.append(_files("out"))
        assert len(forks) == cpus - 1
    assert fanned == [4, 4] and written[0] == written[1]
    assert _stored_vni(config, tmp_path / "out") == {key: f"{v:.10g}" for key, v in _sweep_reference(config).items()}
    _no_child_left()


def test_a_forked_pass_out_of_float32_range_is_read_in_float64(tmp_path, monkeypatch):
    # Run 1's pass is the child's share: it underflows float32 there and is
    # read again in float64 in the child, with the values the in-process
    # pass stores.
    forks = _forking(monkeypatch)
    config = ExperimentConfig(experiment="vni_sweep", depths=[40, 80], **FAR_BELOW, out_dir=str(tmp_path))
    with _cpus(2):
        experiments.run_vni_sweep(config)
    assert len(forks) == 1
    reference = {}
    for run in range(2):
        x = _float64_pass(config, 80, 64, (64, run))
        reference |= {f"N64_L{d}_r{run}": f"{vni_empirical(x[d - 1])[0]:.10g}" for d in (40, 80)}
    assert _stored_vni(config, tmp_path) == reference
    assert reference["N64_L40_r0"] == "0.4919508845" and reference["N64_L80_r0"] == "0.5233211099"
    _no_child_left()


def test_fan_out_pins_one_blas_thread_and_restores_the_count(monkeypatch):
    # Every call sees one BLAS thread, in the parent and in a child, and the
    # caller's count is back after the results, also after a failure.
    forks = _forking(monkeypatch)
    get_threads, set_threads = cpus_module._openblas_threads()
    before = get_threads()
    set_threads(2)
    try:
        assert list(cpus_module.fan_out([(1, get_threads), (1, get_threads)])) == [1, 1]
        assert get_threads() == 2
        with pytest.raises(ZeroDivisionError):
            list(cpus_module.fan_out([(1, get_threads), (1, lambda: 1 / 0)]))
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert len(forks) == (2 if len(os.sched_getaffinity(0)) > 1 else 0)
    _no_child_left()


@pytest.mark.parametrize("cpus", [2, 1])
def test_forked_runners_write_the_recorded_bytes(cpus, tmp_path, monkeypatch):
    # With every fan-out forced, grid's depth groups and the tables' cells
    # are trained by forked workers at 2 CPUs and in-process at 1, and every
    # file of the seven subcommands keeps its recorded bytes either way.
    forks = _forking(monkeypatch)
    affinity = os.sched_getaffinity(0)
    if len(affinity) < cpus:
        pytest.skip(f"the process may use {len(affinity)} CPU(s); {cpus} are needed for {cpus} workers")
    os.sched_setaffinity(0, sorted(affinity)[:cpus])
    try:
        test_every_subcommand_writes_the_recorded_bytes(tmp_path, monkeypatch)
    finally:
        os.sched_setaffinity(0, affinity)
    assert bool(forks) == (cpus > 1)
    _no_child_left()


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


@pytest.mark.parametrize(
    "depths,failing,error",
    [
        ([4, 6], 4, ValueError),  # a child's share, the first group: no row is stored
        ([4, 6], 4, Unpicklable),  # the same, arriving as a RuntimeError
        ([4, 6], 6, ValueError),  # the parent's share, after the child's group
        ([6, 4], 6, ValueError),  # the parent's share, before the child's: the child is killed
    ],
    ids=["child", "child-unpicklable", "parent-after-child", "parent-before-child"],
)
def test_a_crash_in_a_fan_out_leaves_the_rows_of_a_serial_crash(depths, failing, error, tmp_path, monkeypatch):
    # Grid's deeper group is the parent's share and the other a child's.
    # Whichever raises, the exception reaches the caller, the run CSV holds
    # the rows that the groups before the failing one give in-process, and
    # no child is left.
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: every fan-out runs in-process")
    config = ExperimentConfig(experiment="grid", **dict(SMALL, depths=depths), out_dir=str(tmp_path))
    runs_name = f"grid_runs_{config.config_hash()}.csv"
    parent, train = os.getpid(), experiments.train

    def failing_train(spec, *args, **kwargs):
        if spec.depth_L == failing:
            raise error(f"depth {spec.depth_L} failed in process {os.getpid()}")
        return train(spec, *args, **kwargs)

    monkeypatch.setattr(experiments, "train", failing_train)
    with pytest.raises(error):
        experiments.run_grid(config)
    serial = (tmp_path / runs_name).read_bytes()
    (tmp_path / runs_name).unlink()

    forks = _forking(monkeypatch)
    expected = RuntimeError if error is Unpicklable else error
    with pytest.raises(expected, match=f"depth {failing} failed in process") as caught:
        experiments.run_grid(config)
    assert forks
    in_child = failing == min(depths)
    assert (f"in process {parent}" not in str(caught.value)) == in_child
    if expected is RuntimeError:
        assert "Traceback" in str(caught.value)
    assert (tmp_path / runs_name).read_bytes() == serial
    _no_child_left()


def test_dynamics_trains_its_learning_rates_in_forked_workers(tmp_path, monkeypatch):
    # One group per learning rate, each trained by a forked worker where the
    # fan-out forks; test_forked_runners_write_the_recorded_bytes checks
    # their bytes.
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: every fan-out runs in-process")
    forks = _forking(monkeypatch)
    experiments.run_dynamics(ExperimentConfig(experiment="dynamics", **SMALL, out_dir=str(tmp_path)))
    assert forks
    _no_child_left()
