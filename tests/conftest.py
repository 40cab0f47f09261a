"""Fixtures shared by the test modules."""

import pytest

from vannodes.cpus import one_blas_thread


@pytest.fixture
def one_blas():
    """BLAS on one thread, as every runner steps a probe pass (inside
    ``cpus.fan_out``'s pin; ``streamed_layers`` leaves the count alone)."""
    with one_blas_thread():
        yield
