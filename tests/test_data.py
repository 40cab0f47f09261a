import struct

import numpy as np
import pytest

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
    ds = dt.gaussian_probe(50000, 10, 0.25, Rng(2))
    assert ds.labels is None
    assert abs(ds.inputs.mean()) < 0.01
    assert ds.inputs.var() == pytest.approx(0.25, rel=0.02)
    with pytest.raises(ValueError):
        dt.gaussian_probe(10, 5, -1.0, Rng(0))


def test_take():
    ds = dt.synthetic_task("and4")
    sub = ds.take(5)
    assert sub.num_samples == 5
    assert np.array_equal(sub.inputs, ds.inputs[:5])
    assert np.array_equal(sub.labels, ds.labels[:5])
    assert sub.num_classes == ds.num_classes
