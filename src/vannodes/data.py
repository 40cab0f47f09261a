"""Dataset ingestion: MNIST IDX files, the AND/XOR truth-table tasks, and
Gaussian probe batches.

MNIST files are user-supplied paths (nothing is downloaded implicitly);
``fetch_mnist`` is the explicit, checksum-verified helper used by the CLI.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import struct
import urllib.request
from dataclasses import dataclass, replace

import numpy as np

from .linalg import Rng

__all__ = [
    "Dataset",
    "load_mnist_idx",
    "synthetic_task",
    "gaussian_probe",
    "fetch_mnist",
    "MNIST_FILES",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Official IDX archives with published SHA-256 checksums of the .gz files and
# the item count of each.
MNIST_FILES = {
    "train-images-idx3-ubyte": (
        "440fcabf73cc546fa21475e81ea370265605f56be210a4024d2ca8f203523609",
        60000,
    ),
    "train-labels-idx1-ubyte": (
        "3552534a0a558bbed6aed32b30c495cca23d567ec52cac8be1a0730e8010255c",
        60000,
    ),
    "t10k-images-idx3-ubyte": (
        "8d422c7b0a1c1c79245a5bcf07fe86e33eeafee792b84584aec276f5a2dbc4e6",
        10000,
    ),
    "t10k-labels-idx1-ubyte": (
        "f7ae60f92e00ec6debd23a6088c31dbd2371eca3ffa0defaefb259924204aec6",
        10000,
    ),
}

MNIST_MIRRORS = (
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
)


@dataclass
class Dataset:
    inputs: np.ndarray  # num_samples x input_dim, float64, finite
    labels: np.ndarray | None  # int64 in [0, num_classes), or None (probe)
    num_classes: int
    name: str

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("dataset inputs must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape[0] != self.inputs.shape[0]:
                raise ValueError("label count does not match input count")
            if self.num_classes > 0 and (
                self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.num_classes
            ):
                raise ValueError(f"labels outside [0, {self.num_classes})")

    @property
    def num_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def take(self, n: int) -> "Dataset":
        """The first ``n`` samples, for desk-scale runs."""
        return replace(
            self,
            inputs=self.inputs[:n].copy(),
            labels=None if self.labels is None else self.labels[:n].copy(),
            name=f"{self.name}[0:{n}]",
        )


def _read_be_u32(f, what: str) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise ValueError(f"truncated IDX file while reading {what}")
    return struct.unpack(">I", raw)[0]


def _read_body(f, path, fields: str, size: int) -> bytes:
    """The ``size`` bytes after the header, checked against the file size first."""
    available = os.fstat(f.fileno()).st_size - f.tell()
    if size > available:
        raise ValueError(
            f"truncated IDX file {path}: header {fields} needs {size} bytes, "
            f"{available} follow the header"
        )
    return f.read(size)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Parse the big-endian IDX pair; pixels are scaled to [0, 1] and then
    mean-centered per feature over the dataset."""
    with open(images_path, "rb") as f:
        magic = _read_be_u32(f, "image magic")
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"bad image magic 0x{magic:08x} in {images_path}")
        count = _read_be_u32(f, "image count")
        rows = _read_be_u32(f, "row count")
        cols = _read_be_u32(f, "column count")
        fields = f"image count x rows x columns = {count} x {rows} x {cols}"
        if min(count, rows, cols) == 0:  # the per-feature mean would allocate rows x cols floats
            raise ValueError(f"empty IDX image set in {images_path}: {fields}")
        raw = _read_body(f, images_path, fields, count * rows * cols)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic = _read_be_u32(f, "label magic")
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"bad label magic 0x{magic:08x} in {labels_path}")
        label_count = _read_be_u32(f, "label count")
        raw = _read_body(f, labels_path, f"label count = {label_count}", label_count)
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if label_count != count:
        raise ValueError(f"image/label count mismatch: {count} vs {label_count}")
    if labels.size and (labels.min() < 0 or labels.max() > 9):
        raise ValueError("labels outside 0-9")
    inputs = images.astype(np.float64) / 255.0
    inputs -= inputs.mean(axis=0)
    return Dataset(inputs=inputs, labels=labels, num_classes=10, name="mnist")


_SYNTHETIC_KINDS = ("and2", "and4", "xor2")


def synthetic_task(kind: str) -> Dataset:
    """Exhaustive +-1-encoded truth tables: and2 (4 patterns, 2 classes),
    and4 (16 patterns, 4 classes), xor2 (4 patterns, 2 classes)."""
    kind = kind.lower()
    if kind not in _SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic task {kind!r}")
    n_bits = 4 if kind == "and4" else 2
    patterns = np.array(
        [[(i >> b) & 1 for b in range(n_bits - 1, -1, -1)] for i in range(2**n_bits)]
    )
    if kind == "and2":
        labels = patterns[:, 0] & patterns[:, 1]
        classes = 2
    elif kind == "xor2":
        labels = patterns[:, 0] ^ patterns[:, 1]
        classes = 2
    else:
        labels = (patterns[:, 0] & patterns[:, 1]) * 2 + (patterns[:, 2] & patterns[:, 3])
        classes = 4
    inputs = patterns.astype(np.float64) * 2.0 - 1.0
    return Dataset(inputs=inputs, labels=labels.astype(np.int64), num_classes=classes, name=kind)


def gaussian_probe(n_samples: int, dim: int, sigma_x_sq: float, rng: Rng) -> Dataset:
    """Unlabeled i.i.d. Gaussian probe batch with zero mean and the given
    per-feature variance."""
    if sigma_x_sq <= 0:
        raise ValueError("sigma_x_sq must be positive")
    inputs = rng.normal(size=(n_samples, dim), std=np.sqrt(sigma_x_sq))
    return Dataset(inputs=inputs, labels=None, num_classes=0, name="gaussian_probe")


def fetch_mnist(out_dir, mirrors=MNIST_MIRRORS) -> list:
    """Download and verify the four IDX files into ``out_dir``.

    Files already present (and matching their expected sizes) are kept.
    Each file is written to ``<name>.part`` and renamed when complete.
    Raises if no mirror is reachable or a checksum fails.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, (sha256, count) in MNIST_FILES.items():
        dest = os.path.join(out_dir, name)
        size = 16 + 784 * count if "images" in name else 8 + count  # IDX header, then 28 x 28 images or labels
        if os.path.isfile(dest) and os.path.getsize(dest) == size:
            written.append(dest)
            continue
        blob = None
        errors = []
        for mirror in mirrors:
            url = mirror + name + ".gz"
            try:
                with urllib.request.urlopen(url, timeout=60) as r:
                    blob = r.read()
                break
            except OSError as e:  # try the next mirror
                errors.append(f"{url}: {e}")
        if blob is None:
            raise OSError("could not fetch MNIST from any mirror:\n" + "\n".join(errors))
        digest = hashlib.sha256(blob).hexdigest()
        if digest != sha256:
            raise ValueError(f"checksum mismatch for {name}.gz: {digest}")
        with open(dest + ".part", "wb") as f:
            f.write(gzip.decompress(blob))
        os.replace(dest + ".part", dest)
        written.append(dest)
    return written
