import gzip
import hashlib
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vannodes import cli
from vannodes import data as dt
from vannodes.linalg import Rng


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   label_count=None, truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    ip = tmp_path / "images-idx3-ubyte"
    lp = tmp_path / "labels-idx1-ubyte"
    blob = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        blob = blob[:-truncate_images]
    ip.write_bytes(blob)
    lp.write_bytes(
        struct.pack(">II", label_magic, label_count if label_count is not None else len(labels))
        + labels.tobytes()
    )
    return ip, lp


class TestIdxLoader:
    def test_parses_and_centers(self, tmp_path):
        images = Rng(1).integers(0, 256, size=(10, 4, 3)).astype(np.uint8)
        labels = np.arange(10) % 10
        ip, lp = write_idx_pair(tmp_path, images, labels)
        ds = dt.load_mnist_idx(ip, lp)
        assert ds.inputs.shape == (10, 12)
        assert ds.labels.tolist() == labels.tolist()
        assert ds.num_classes == 10
        # scaled to [0,1] then per-feature centered
        assert np.allclose(ds.inputs.mean(axis=0), 0.0, atol=1e-12)
        recon = ds.inputs + (images.reshape(10, 12) / 255.0).mean(axis=0)
        assert np.allclose(recon, images.reshape(10, 12) / 255.0)

    def test_bad_image_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], image_magic=0x123)
        with pytest.raises(ValueError, match="magic"):
            dt.load_mnist_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], label_magic=0x803)
        with pytest.raises(ValueError, match="magic"):
            dt.load_mnist_idx(ip, lp)

    def test_truncated_images(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((4, 3, 3)), [0, 1, 2, 3], truncate_images=5)
        with pytest.raises(ValueError, match="truncated"):
            dt.load_mnist_idx(ip, lp)

    @pytest.mark.parametrize(
        "count, rows, cols",
        [(1, 2**32 - 1, 2**32 - 1), (2**32 - 1, 2**32 - 1, 2**32 - 1), (2**20, 1000, 1000)],
    )
    def test_header_larger_than_file(self, tmp_path, count, rows, cols):
        # a header that asks for more pixels than the file holds is rejected
        # before any read, naming the file and the header fields
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        ip.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + bytes(8))
        with pytest.raises(ValueError, match=f"{ip.name}.*rows x columns = {count} x {rows} x {cols}"):
            dt.load_mnist_idx(ip, lp)

    @pytest.mark.parametrize("count, rows, cols", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_empty_image_set(self, tmp_path, count, rows, cols):
        # a header of zero images fits any file, yet the per-feature mean
        # would allocate rows x cols floats
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        ip.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + bytes(8))
        with pytest.raises(ValueError, match=f"empty IDX image set in .*{ip.name}"):
            dt.load_mnist_idx(ip, lp)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_prefix_or_mutation_loads_or_raises_value_error(self, data, tmp_path):
        images = Rng(37).integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, [0, 9, 4])
        for path in (ip, lp):  # each file is kept, cut, or has bytes replaced
            raw = bytearray(path.read_bytes())
            edit = data.draw(st.sampled_from(["keep", "cut", "mutate"]), label=f"{path.name} edit")
            if edit == "cut":
                raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="prefix")]
            elif edit == "mutate":
                edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
                for i, byte in data.draw(st.lists(edits, min_size=1, max_size=8), label="mutations"):
                    raw[i] = byte
            path.write_bytes(bytes(raw))
        try:
            ds = dt.load_mnist_idx(ip, lp)
        except ValueError:
            return
        assert ds.inputs.shape[0] == ds.labels.shape[0] >= 1
        assert ds.inputs.size <= ip.stat().st_size

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2))
        ip, lp = write_idx_pair(tmp_path, images, [0, 1], label_count=2)
        with pytest.raises(ValueError, match="mismatch"):
            dt.load_mnist_idx(ip, lp)

    def test_label_out_of_range(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 12])
        with pytest.raises(ValueError, match="labels"):
            dt.load_mnist_idx(ip, lp)


class TestSyntheticTasks:
    def test_and2_truth_table(self):
        ds = dt.synthetic_task("and2")
        assert ds.inputs.shape == (4, 2)
        assert set(np.unique(ds.inputs)) == {-1.0, 1.0}
        for x, y in zip(ds.inputs, ds.labels):
            assert y == int(x[0] > 0 and x[1] > 0)

    def test_xor2_truth_table(self):
        ds = dt.synthetic_task("xor2")
        for x, y in zip(ds.inputs, ds.labels):
            assert y == int((x[0] > 0) != (x[1] > 0))

    def test_and4_pairs(self):
        ds = dt.synthetic_task("and4")
        assert ds.inputs.shape == (16, 4)
        assert ds.num_classes == 4
        for x, y in zip(ds.inputs, ds.labels):
            hi = int(x[0] > 0 and x[1] > 0)
            lo = int(x[2] > 0 and x[3] > 0)
            assert y == hi * 2 + lo
        assert sorted(np.unique(ds.labels)) == [0, 1, 2, 3]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dt.synthetic_task("or3")


def test_gaussian_probe_statistics():
    probe = dt.gaussian_probe(50000, 10, 0.25, Rng(2))
    assert probe.shape == (50000, 10)
    assert abs(probe.mean()) < 0.01
    assert probe.var() == pytest.approx(0.25, rel=0.02)
    for bad in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma_x_sq"):
            dt.gaussian_probe(10, 5, bad, Rng(0))


def test_take():
    ds = dt.synthetic_task("and4")
    sub = ds.take(5)
    assert sub.num_samples == 5
    assert np.array_equal(sub.inputs, ds.inputs[:5])
    assert np.array_equal(sub.labels, ds.labels[:5])
    assert sub.num_classes == ds.num_classes


def _fake_mirror(tmp_path, count=2) -> tuple:
    """(file:// mirror URL, {name: (sha256, count)}, {name: IDX bytes}) of
    four small IDX files of ``count`` items, gzipped, as the real ones are."""
    mirror = tmp_path / "mirror"
    mirror.mkdir()
    files, contents = {}, {}
    for name in dt.MNIST_FILES:
        raw = bytes(range(256)) * 8
        raw = raw[: 16 + 784 * count] if "images" in name else raw[: 8 + count]
        blob = gzip.compress(raw)
        (mirror / f"{name}.gz").write_bytes(blob)
        files[name] = (hashlib.sha256(blob).hexdigest(), count)
        contents[name] = raw
    return mirror.as_uri() + "/", files, contents


class TestFetchMnist:
    def test_checksum_mismatch_leaves_no_file(self, tmp_path):
        url, _, _ = _fake_mirror(tmp_path)  # the published checksums do not match these
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="checksum mismatch"):
            dt.fetch_mnist(out, mirrors=(url,))
        assert os.listdir(out) == []

    def test_truncated_present_file_is_fetched_again(self, tmp_path, monkeypatch):
        url, files, contents = _fake_mirror(tmp_path)
        monkeypatch.setattr(dt, "MNIST_FILES", files)
        out = tmp_path / "out"
        out.mkdir()
        names = list(files)
        (out / names[0]).write_bytes(b"\0\0")  # cut short
        (out / names[1]).write_bytes(bytes(len(contents[names[1]])))  # the IDX size: kept
        paths = dt.fetch_mnist(out, mirrors=(url,))
        assert paths == [os.path.join(out, name) for name in names]
        assert (out / names[0]).read_bytes() == contents[names[0]]
        assert (out / names[1]).read_bytes() == bytes(len(contents[names[1]]))
        assert sorted(os.listdir(out)) == sorted(names)

    def test_cli_reports_a_checksum_mismatch(self, tmp_path, monkeypatch, capsys):
        url, _, _ = _fake_mirror(tmp_path)
        monkeypatch.setattr(cli, "fetch_mnist", lambda out_dir: dt.fetch_mnist(out_dir, mirrors=(url,)))
        assert cli.main(["fetch-mnist", "--out-dir", str(tmp_path / "out")]) == 1
        assert "fetch failed: checksum mismatch" in capsys.readouterr().err


def test_import_loads_no_network_modules():
    # Only fetch_mnist downloads; importing the package (and every runner
    # through it) must not pay for http, email and ssl.
    code = "import sys, vannodes; print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "inputs, labels, phrase",
    [
        ([[0.0], [np.nan]], [0, 1], "dataset inputs must be finite"),
        ([[0.0], [np.inf]], [0, 1], "dataset inputs must be finite"),
        ([[0.0], [1.0]], [0], "label count does not match input count"),
        ([[0.0], [1.0]], [0, -1], "labels outside [0, 2)"),
        ([[0.0], [1.0]], [0, 2], "labels outside [0, 2)"),
    ],
    ids=["nan", "inf", "label_count", "label_below", "label_above"],
)
def test_bad_dataset_raises_a_value_error_that_names_it(inputs, labels, phrase):
    with pytest.raises(ValueError, match=re.escape(phrase)):
        dt.Dataset(np.array(inputs), np.array(labels), 2)
