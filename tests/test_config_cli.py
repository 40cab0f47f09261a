import os

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vannodes.cli import _RUNNERS, _load_config, build_parser, main
from vannodes.config import EXPERIMENTS, ExperimentConfig

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)]
# values near every field's type, and any text
VALUES = st.one_of(
    st.sampled_from(["-1", "0", "1", "2.5", "1e3", "nan", "inf", "true", "no", "4,8", "0.1,-2", "", "tanh", "grid"]),
    st.text(),
)


class TestConfig:
    def test_round_trip(self):
        c = ExperimentConfig(
            experiment="grid",
            depths=[3, 9],
            learning_rates=[0.01, 0.5],
            dataset="and4",
            early_stop=True,
            sigma_x_sq=0.25,
        )
        back = ExperimentConfig.from_text(c.to_text())
        assert back == c
        assert back.config_hash() == c.config_hash()

    def test_hash_sensitivity(self):
        a = ExperimentConfig(master_seed=0)
        b = ExperimentConfig(master_seed=1)
        assert a.config_hash() != b.config_hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_text("nonsense=1\n")

    def test_bad_experiment_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="frobnicate")

    def test_comments_and_blanks_ignored(self):
        c = ExperimentConfig.from_text("# comment\n\nexperiment=grid\nruns=3\n")
        assert c.experiment == "grid"
        assert c.runs == 3

    def test_with_overrides_parses_strings(self):
        c = ExperimentConfig().with_overrides({"depths": "4,8", "early_stop": "true"})
        assert c.depths == [4, 8]
        assert c.early_stop is True

    @pytest.mark.parametrize("value", ["out\nruns=3", "out\rruns=3", "out\u2028runs=3", " out ", "out\t"])
    def test_unwritable_string_rejected(self, value):
        # one would come back as another key, the other stripped
        with pytest.raises(ValueError, match="out_dir"):
            ExperimentConfig(out_dir=value)
        with pytest.raises(ValueError, match="out_dir"):
            ExperimentConfig().with_overrides({"out_dir": value})

    @pytest.mark.parametrize(
        "line, key",
        [
            ("batch_size=-5", "batch_size"),
            ("batch_size=0", "batch_size"),
            ("epochs=-2", "epochs"),
            ("epochs=0", "epochs"),
            ("probe_samples=0", "probe_samples"),
            ("widths=0", "widths"),
            ("widths=8,-1", "widths"),
            ("depths=-1", "depths"),
            ("max_epochs=0", "max_epochs"),
            ("learning_rates=-1", "learning_rates"),
            ("learning_rates=", "learning_rates"),
            ("success_threshold=2", "success_threshold"),
            ("success_metric=bogus", "success_metric"),
            ("widths=", "widths"),
            ("depths=", "depths"),
            ("sigma_x_sq=-1", "sigma_x_sq"),
            ("sigma_x_sq=inf", "sigma_x_sq"),
            ("learning_rates=nan", "learning_rates"),
            ("bottleneck_nb=0", "bottleneck_nb"),
            ("probe_samples=1", "probe_samples"),
            ("sigma_w_sq=nan", "sigma_w_sq"),
            ("dataset=foo", "dataset"),
            ("master_seed=-1", "master_seed"),
            ("train_slice=0", "train_slice"),
            ("train_slice=-5", "train_slice"),
            ("test_slice=0", "test_slice"),
            ("test_slice=-5", "test_slice"),
            ("activation=foo", "activation"),
            ("init=foo", "init"),
            ("optimizer=adam", "optimizer"),
            ("depths=4,2,4", "depths"),
            ("widths=8,8", "widths"),
            ("learning_rates=0.1,0.10", "learning_rates"),
        ],
    )
    def test_bad_sizes_rejected(self, line, key):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_text(line)

    @pytest.mark.parametrize(
        "line, key",
        [("runs=abc", "runs"), ("sigma_x_sq=x", "sigma_x_sq"), ("depths=4,x", "depths"), ("early_stop=maybe", "early_stop")],
    )
    def test_parse_error_names_the_key(self, line, key):
        with pytest.raises(ValueError, match=f"^{key}: "):
            ExperimentConfig.from_text(line)

    def test_key_given_twice_rejected(self):
        with pytest.raises(ValueError, match=r"'runs' given twice: lines 2 and 4"):
            ExperimentConfig.from_text("# runs\nruns=2\nepochs=3\nruns=3\n")
        # --set still overrides a key the file gives once
        assert ExperimentConfig.from_text("runs=2\n", {"runs": "3"}).runs == 3

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.lists(st.tuples(st.sampled_from(KEYS), VALUES), max_size=4)))
    def test_any_text_gives_a_config_or_value_error(self, text):
        if isinstance(text, list):
            text = "\n".join(f"{k}={v}" for k, v in text)
        try:
            config = ExperimentConfig.from_text(text)
        except ValueError:
            return
        assert isinstance(config, ExperimentConfig)

    def test_comma_and_equals_round_trip(self):
        c = ExperimentConfig(out_dir="runs/a,b=c", mnist_dir="data, mnist")
        assert ExperimentConfig.from_text(c.to_text()) == c

    def test_all_experiments_constructible(self):
        for name in EXPERIMENTS:
            assert ExperimentConfig(experiment=name).experiment == name


SMALL = [
    "--set", "depths=4", "--set", "widths=12", "--set", "runs=2",
    "--set", "probe_samples=100", "--set", "epochs=3", "--set", "max_epochs=3",
    "--set", "batch_size=4", "--set", "learning_rates=0.1",
    "--set", "dataset=xor2", "--set", "success_metric=train_accuracy",
]


class TestCli:
    def test_sweep_writes_outputs(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["sweep", *SMALL, "--set", f"out_dir={out}"])
        assert rc == 0
        names = os.listdir(out)
        assert any(n.startswith("sweep_") and n.endswith(".csv") for n in names)
        assert any(n.endswith(".svg") for n in names)

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("depths=4\nwidths=10\nruns=1\nprobe_samples=50\n")
        out = str(tmp_path / "o")
        rc = main(["sweep", "--config", str(cfg), "--set", f"out_dir={out}"])
        assert rc == 0
        assert os.path.isdir(out)

    def test_resume_skips_completed(self, tmp_path):
        out = str(tmp_path / "out")
        args = ["sweep", *SMALL, "--set", f"out_dir={out}"]
        assert main(args) == 0
        runs_csv = next(
            os.path.join(out, n) for n in os.listdir(out) if n.startswith("sweep_runs")
        )
        before = open(runs_csv).read()
        assert main(args) == 0  # second invocation resumes, adds nothing
        assert open(runs_csv).read() == before

    @pytest.mark.parametrize(
        "line, key",
        [
            ("bogus_key=1", "bogus_key"),
            ("learning_rates=-1", "learning_rates"),
            ("learning_rates=nan", "learning_rates"),
            ("optimizer=adam", "optimizer"),
            ("epochs=0", "epochs"),
            ("depths=4,4", "depths"),
            ("widths=12,10,12", "widths"),
            ("learning_rates=0.5,0.1,0.5", "learning_rates"),
        ],
    )
    def test_bad_config_exits_2(self, line, key, tmp_path, capsys):
        # refused at load, before a runner writes anything
        rc = main(["grid", *SMALL, "--set", line, "--set", f"out_dir={tmp_path}/o"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not os.path.exists(tmp_path / "o")

    def test_heatmap_of_one_node_exits_2(self, tmp_path, capsys):
        # a mean off-diagonal correlation needs two nodes: refused before any pass
        rc = main(["heatmap", "--set", "widths=1", "--set", "depths=2", "--set", "probe_samples=50", "--set", f"out_dir={tmp_path}/o"])
        assert rc == 2
        assert "config error: heatmap widths must be >= 2, got width 1 in [1]" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_set_without_equals_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "--set", "foo", "--set", f"out_dir={tmp_path}"])
        assert rc == 2
        assert "config error: --set expects key=value, got 'foo'" in capsys.readouterr().err

    def test_config_file_key_given_twice_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("runs=2\nruns=3\n")
        rc = main(["sweep", "--config", str(cfg), "--set", f"out_dir={tmp_path}"])
        assert rc == 2
        assert "config error: config key 'runs' given twice: lines 1 and 2" in capsys.readouterr().err

    def test_failed_run_exits_nonzero(self, tmp_path, capsys):
        # point the grid at a missing MNIST directory: the run cannot complete
        rc = main([
            "grid", "--set", "dataset=mnist",
            "--set", f"mnist_dir={tmp_path}/absent", "--set", f"out_dir={tmp_path}/o",
        ])
        assert rc == 1
        assert "run failed" in capsys.readouterr().err

    def test_train_subcommands(self, tmp_path):
        out = str(tmp_path / "out")
        for cmd in ("dynamics", "tasks", "orth", "grid"):
            rc = main([cmd, *SMALL, "--set", f"out_dir={out}"])
            assert rc == 0, cmd

    def test_diag_and_heatmap(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["diag", *SMALL, "--set", f"out_dir={out}"]) == 0
        assert main(["heatmap", *SMALL, "--set", f"out_dir={out}"]) == 0
        assert any(n.startswith("diagnostics_") for n in os.listdir(out))
        assert any(n.startswith("heatmap_") for n in os.listdir(out))


# Hashes of the presets as they were first published, so that run CSVs under
# out/ written by earlier versions keep resuming.
PRESET_HASHES = {
    "sweep": "5003e5b6a231",
    "heatmap": "526d87d47569",
    "dynamics": "5b13a1001778",
    "tasks": "9ae09a99bc62",
    "grid": "2354674322aa",
    "orth": "64b893e970a5",
}


@pytest.mark.parametrize("cmd", sorted(PRESET_HASHES))
def test_preset_config_loads_with_its_hash(cmd):
    args = build_parser().parse_args([cmd, "--config", os.path.join(CONFIGS, f"{cmd}.cfg")])
    config = _load_config(args, _RUNNERS[cmd][0])
    assert config.config_hash() == PRESET_HASHES[cmd]


def test_dynamics_preset_offline_overrides_keep_their_hash():
    # The README's xor2 stand-in for the MNIST dynamics preset.
    args = build_parser().parse_args([
        "dynamics", "--config", os.path.join(CONFIGS, "dynamics.cfg"),
        "--set", "dataset=xor2", "--set", "widths=32", "--set", "batch_size=4",
        "--set", "success_metric=train_accuracy", "--set", "success_threshold=0.99",
    ])  # fmt: skip
    assert _load_config(args, "dynamics").config_hash() == "6757e71d5f2d"
