"""Seeded random states and unitaries.

All generators take a ``numpy.random.Generator`` so that a (config, seed)
pair reproduces identical instances everywhere: pure states are Haar
vectors (complex Gaussian amplitudes, normalized), mixed states arise by
tracing a purifier out of a larger seeded pure state.
"""

from __future__ import annotations

import numpy as np

from .qmat import (
    DensityOperator,
    RegisterSystem,
    StateVector,
    marginal_matrix,
)


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_pure_state(sys_: RegisterSystem, rng: np.random.Generator) -> StateVector:
    return StateVector(sys_, haar_vector(sys_.dim, rng))


def random_density(
    sys_: RegisterSystem, rng: np.random.Generator, rank: int | None = None
) -> DensityOperator:
    """Mixed state from a Haar pure state on sys_ x purifier of the given rank."""
    d = sys_.dim
    r = d if rank is None else int(rank)
    if not 1 <= r:
        raise ValueError(f"rank must be positive, got {r}")
    big = RegisterSystem(sys_.registers + (("_purifier", r),))
    amps = haar_vector(big.dim, rng)
    # trace the purifier out of the raw outer product: the global state is never validated
    marginal = marginal_matrix(np.outer(amps, amps.conj()), big.dims, range(len(sys_.dims)))
    return DensityOperator(sys_, marginal)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase convention so the distribution is Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
