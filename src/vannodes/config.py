"""Flat experiment configuration: a documented key=value text format with
lossless round-tripping and a content hash for provenance headers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field, fields

from .activations import ActivationKind
from .data import DATASETS
from .initializers import InitKind, InitializerSpec
from .network import NetworkSpec
from .training import OptimizerKind, OptimizerSpec, SuccessCriterion

__all__ = ["ExperimentConfig", "EXPERIMENTS"]

EXPERIMENTS = (
    "vni_sweep",
    "heatmap",
    "dynamics",
    "tasks_table",
    "grid",
    "orthogonal_table",
    "diagnostics",
)


@dataclass
class ExperimentConfig:
    experiment: str = "vni_sweep"
    # architecture
    depths: list[int] = field(default_factory=lambda: [10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
    widths: list[int] = field(default_factory=lambda: [200])
    activation: str = "hard_tanh"
    # initialization; sigma_w_sq <= 0 means "auto": tune sigma_w^2 mu_1 = 1
    init: str = "scaled_gaussian"
    sigma_w_sq: float = 0.0
    bottleneck_nb: int = 1
    # optimization
    optimizer: str = "sgd"
    learning_rates: list[float] = field(default_factory=lambda: [0.01])
    batch_size: int = 100
    epochs: int = 100
    early_stop: bool = False
    # task / probe
    dataset: str = "xor2"  # one of data.DATASETS
    mnist_dir: str = "data/mnist"
    train_slice: int = 5000
    test_slice: int = 1000
    probe_samples: int = 1000
    sigma_x_sq: float = 0.1
    # protocol
    runs: int = 20
    master_seed: int = 0
    success_metric: str = "test_accuracy"
    success_threshold: float = 0.99
    max_epochs: int = 100
    out_dir: str = "out"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name, kind in (("activation", ActivationKind), ("init", InitKind), ("optimizer", OptimizerKind)):
            value, choices = getattr(self, name), [k.value for k in kind]
            if value not in choices:
                raise ValueError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        if self.dataset.lower() not in DATASETS:
            raise ValueError(f"dataset must be one of {', '.join(DATASETS)}, got {self.dataset!r}")
        for name in ("widths", "depths", "learning_rates"):
            if not getattr(self, name):
                raise ValueError(f"{name} must hold at least one value")
        # the indicator correlates probe rows, so it needs two of them
        smallest = {
            "runs": 1, "batch_size": 1, "probe_samples": 2, "epochs": 0, "widths": 1, "depths": 1,
            "train_slice": 1, "test_slice": 1, "master_seed": 0,
        }  # fmt: skip
        for name, least in smallest.items():
            v = getattr(self, name)
            if min(v if isinstance(v, list) else [v]) < least:
                raise ValueError(f"{name} must be >= {least}, got {v}")
        if not 0 < self.sigma_x_sq < math.inf:
            raise ValueError(f"sigma_x_sq must be positive and finite, got {self.sigma_x_sq}")
        if not math.isfinite(self.sigma_w_sq):
            raise ValueError(f"sigma_w_sq must be finite, got {self.sigma_w_sq}")
        # the rules of the runners' own specs, stated once in their classes
        owned = {
            "max_epochs, success_metric, success_threshold": self.success_criterion,
            "learning_rates": lambda: [self.optimizer_spec(lr) for lr in self.learning_rates],
            "bottleneck_nb": lambda: InitializerSpec(self.init_kind, 1.0, self.bottleneck_nb),
        }
        for keys, build in owned.items():
            try:
                build()
            except ValueError as e:
                raise ValueError(f"{keys}: {e}") from None
        # to_text writes one key=value line and from_text splits lines and
        # strips values, so a line break (any that str.splitlines knows) would
        # smuggle in keys and outer whitespace would be lost.
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "str" and ("".join(v.splitlines()) != v or v != v.strip()):
                raise ValueError(f"{f.name} must not hold a line break or outer whitespace, got {v!r}")

    # -- structured views ---------------------------------------------------

    @property
    def activation_kind(self) -> ActivationKind:
        return ActivationKind(self.activation)

    @property
    def init_kind(self) -> InitKind:
        return InitKind(self.init)

    def optimizer_spec(self, learning_rate: float) -> OptimizerSpec:
        return OptimizerSpec(OptimizerKind(self.optimizer), learning_rate)

    def network_spec(self, depth: int, width: int, input_dim: int, num_classes: int) -> NetworkSpec:
        return NetworkSpec(depth, width, input_dim, num_classes, self.activation_kind)

    def success_criterion(self) -> SuccessCriterion:
        return SuccessCriterion(self.success_metric, self.success_threshold, self.max_epochs)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = ["# vannodes experiment config"]
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, list):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, overrides: dict | None = None) -> "ExperimentConfig":
        raw: dict = {}
        first_line: dict = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in raw:
                raise ValueError(f"config key {key!r} given twice: lines {first_line[key]} and {lineno}")
            raw[key], first_line[key] = value, lineno
        if overrides:
            raw.update(overrides)
        return cls().with_overrides(raw)

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        raw = {}
        by_name = {f.name: f for f in fields(self)}
        for key, value in overrides.items():
            if key not in by_name:
                raise ValueError(f"unknown config key {key!r}")
            raw[key] = _parse_field(by_name[key], value) if isinstance(value, str) else value
        return dataclasses.replace(self, **raw)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]


def _parse_field(f, value: str):
    """``value`` as field ``f``'s type; a failure names the field."""
    try:
        if f.type.startswith("list[int]"):
            return [int(x) for x in value.split(",") if x.strip()]
        if f.type.startswith("list[float]"):
            return [float(x) for x in value.split(",") if x.strip()]
        if f.type == "bool":
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"bad boolean {value!r}")
        if f.type == "int":
            return int(value)
        if f.type == "float":
            return float(value)
        return value
    except ValueError as e:
        raise ValueError(f"{f.name}: {e}") from None
