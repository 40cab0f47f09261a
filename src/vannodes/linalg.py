"""Deterministic random streams and the symmetric eigen-solve.

Matrices and vectors are plain float64 numpy arrays.  The eigensolver is
delegated to LAPACK (via numpy); the contract here adds the shape and
symmetry checks the rest of the package relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Rng", "sym_eigenvalues"]


class Rng:
    """Deterministic random stream backed by the counter-based Philox generator.

    Identical ``(seed, key)`` pairs produce identical sample streams on every
    platform.  ``spawn(i)`` derives an independent child stream, so concurrent
    runs keyed by run index never interact.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([self.seed, *self.key]))
        )

    def spawn(self, index: int) -> "Rng":
        return Rng(self.seed, self.key + (int(index),))

    def normal(self, size=None, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(loc=mean, scale=std, size=size)

    def uniform(self, size=None, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low=low, high=high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)


def sym_eigenvalues(a: np.ndarray, return_vectors: bool = False):
    """Eigenvalues of a symmetric matrix, sorted descending.

    With ``return_vectors=True`` also returns the matching eigenvector columns,
    so ``Q @ diag(w) @ Q.T`` reconstructs the input.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within tolerance 1e-10")
    if return_vectors:
        w, q = np.linalg.eigh(a)
        order = np.argsort(-w, kind="stable")
        return w[order], q[:, order]
    w = np.linalg.eigvalsh(a)
    return w[::-1].copy()
