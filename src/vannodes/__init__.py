"""Diagnostics for vanishing effective width in deep feed-forward networks.

The package measures how strongly hidden-node activations correlate as depth
grows, predicts that growth from activation moments and the weight ensemble,
and provides initializers and a reflection-based orthogonal parametrization
for studying and counteracting the collapse during training.
"""

from .activations import ActivationKind, ActivationMoments, tune_sigma_w_sq, variance_fixed_point
from .analysis import (
    DEFAULT_ENN_EPSILONS,
    GradientDiagnostics,
    VniReport,
    correlation_heatmap,
    enn_from_rsq,
    epsilon_enn,
    gradient_diagnostics,
    s1_for_ensemble,
    vni_empirical,
    vni_from_covariance,
    vni_from_jacobian,
    vni_report,
    vni_theoretical,
)
from .config import EXPERIMENTS, ExperimentConfig
from .data import Dataset, fetch_mnist, gaussian_probe, load_mnist_idx, synthetic_task
from .initializers import HouseholderStack, InitKind, InitializerSpec, householder_backward, householder_materialize, init_weight
from .linalg import Rng
from .network import (
    ForwardTrace,
    Gradients,
    NetworkSpec,
    NetworkState,
    backward,
    build_network,
    forward,
    jacobian,
)
from .training import (
    Optimizer,
    SuccessCriterion,
    TrainRecord,
    TrainResult,
    softmax_cross_entropy,
    train,
)

__version__ = "0.1.0"
