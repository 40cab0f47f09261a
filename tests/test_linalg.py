import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vannodes.initializers import init_orthogonal
from vannodes import cpus
from vannodes.cpus import one_blas_thread
from vannodes.linalg import Rng, sym_eigenvalues


class TestRng:
    def test_deterministic_stream(self):
        a = Rng(7, (1, 2)).normal(size=100)
        b = Rng(7, (1, 2)).normal(size=100)
        assert np.array_equal(a, b)

    def test_frozen_values(self):
        # pinned counter-based stream; must not drift across platforms
        got = Rng(123, (4, 5)).normal(size=3)
        want = [1.1508936016244635, -0.00015375896635594656, -1.440999370685093]
        assert np.allclose(got, want, rtol=0, atol=0)
        assert Rng(123, (4, 5)).integers(0, 1000, size=5).tolist() == [358, 65, 882, 500, 364]
        assert Rng(0).permutation(8).tolist() == [3, 6, 4, 0, 7, 5, 2, 1]

    def test_spawn_streams_differ(self):
        r = Rng(7)
        a = r.spawn(0).normal(size=50)
        b = r.spawn(1).normal(size=50)
        assert not np.allclose(a, b)
        # spawning is itself deterministic
        assert np.array_equal(Rng(7).spawn(0).normal(size=50), a)

    def test_normal_moments(self):
        x = Rng(3).normal(size=200_000, mean=2.0, std=0.5)
        assert abs(x.mean() - 2.0) < 0.01
        assert abs(x.std() - 0.5) < 0.01


class TestEigenvalues:
    def test_hand_case_2x2(self):
        w = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [3.0, 1.0])

    def test_descending_order(self):
        a = Rng(5).normal(size=(12, 12))
        w = sym_eigenvalues(a + a.T)
        assert np.all(np.diff(w) <= 1e-12)

    def test_eigenpair_residual(self):
        # independent check: A v = lambda v, not a comparison against
        # another eigensolver
        a = Rng(9).normal(size=(10, 10))
        a = a + a.T
        w, v = sym_eigenvalues(a, return_vectors=True)
        for i in range(10):
            assert np.allclose(a @ v[:, i], w[i] * v[:, i], atol=1e-9)

    def test_trace_and_det_identities(self):
        a = Rng(13).normal(size=(8, 8))
        a = a + a.T
        w = sym_eigenvalues(a)
        assert abs(w.sum() - np.trace(a)) < 1e-9
        assert abs(np.prod(w) - np.linalg.det(a)) < 1e-6 * abs(np.linalg.det(a)) + 1e-9

    def test_psd_spectrum_nonnegative(self):
        x = Rng(17).normal(size=(6, 20))
        w = sym_eigenvalues(x @ x.T)
        assert np.all(w >= -1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_orthogonal_conjugation_invariance(self, n, seed):
        rng = Rng(seed)
        a = rng.normal(size=(n, n))
        a = a + a.T
        q = init_orthogonal(n, 1.0, rng.spawn(0))
        assert np.allclose(sym_eigenvalues(a), sym_eigenvalues(q @ a @ q.T), atol=1e-8)



def test_one_blas_thread_pins_and_restores_the_count(monkeypatch):
    blas = cpus._openblas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS is not found")
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(2)
    try:
        with one_blas_thread():
            assert get_threads() == 1
        assert get_threads() == 2
        with pytest.raises(ZeroDivisionError), one_blas_thread():
            1 / 0
        assert get_threads() == 2
    finally:
        set_threads(before)
    monkeypatch.setattr(cpus, "_openblas_threads", lambda: None)
    with one_blas_thread():  # nothing to pin, so no work is split
        assert cpus._cpus() == 1


@pytest.mark.parametrize(
    "call, phrase",
    [
        (lambda: Rng(-1), "seed must be a non-negative integer"),
        (lambda: sym_eigenvalues(np.zeros((2, 3))), "matrix must be square, got shape (2, 3)"),
        (lambda: sym_eigenvalues(np.zeros(4)), "matrix must be square, got shape (4,)"),
    ],
    ids=["negative_seed", "rectangular", "vector"],
)
def test_bad_input_raises_a_value_error_that_names_it(call, phrase):
    with pytest.raises(ValueError, match=re.escape(phrase)):
        call()
