"""Random states and operators for property tests and stress checks."""
from __future__ import annotations

import numpy as np

from .qops import dag

__all__ = [
    "haar_unitary", "random_hermitian", "random_density",
    "random_projector", "random_effect", "random_commuting_pair",
]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity so the distribution is exactly Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + dag(g)) / 2


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    r = rank or dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    w = g @ dag(g)
    return w / np.trace(w)


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    cols = haar_unitary(dim, rng)[:, :rank]
    return cols @ dag(cols)


def random_effect(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = haar_unitary(dim, rng)
    return v @ np.diag(rng.uniform(0.0, 1.0, size=dim)).astype(complex) @ dag(v)


def random_commuting_pair(dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two Hermitian matrices sharing a random eigenbasis."""
    v = haar_unitary(dim, rng)
    a = v @ np.diag(rng.normal(size=dim)).astype(complex) @ dag(v)
    b = v @ np.diag(rng.normal(size=dim)).astype(complex) @ dag(v)
    return (a + dag(a)) / 2, (b + dag(b)) / 2
