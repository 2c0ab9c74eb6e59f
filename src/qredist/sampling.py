"""Seeded random states, operators and channels.

All generators take a ``numpy.random.Generator`` so that a (config, seed)
pair reproduces identical instances everywhere: pure states are Haar
vectors (complex Gaussian amplitudes, normalized), mixed states arise by
tracing a purifier out of a larger seeded pure state.
"""

from __future__ import annotations

import numpy as np

from .qmat import (
    DensityOperator,
    KrausChannel,
    RegisterSystem,
    StateVector,
    partial_trace,
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
    psi = random_pure_state(big, rng)
    return partial_trace(psi.to_density(), sys_.labels)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase convention so the distribution is Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_isometry(dim_in: int, dim_out: int, rng: np.random.Generator) -> np.ndarray:
    if dim_out < dim_in:
        raise ValueError("isometry needs dim_out >= dim_in")
    return random_unitary(dim_out, rng)[:, :dim_in]


def random_channel(
    in_sys: RegisterSystem,
    out_sys: RegisterSystem,
    rng: np.random.Generator,
    env_dim: int | None = None,
) -> KrausChannel:
    """Random CPTP map: Haar isometry into out x env, sliced into Kraus operators."""
    din, dout = in_sys.dim, out_sys.dim
    m = env_dim if env_dim is not None else max(2, din)
    v = random_isometry(din, dout * m, rng)
    kraus = tuple(v.reshape(dout, m, din)[:, i, :] for i in range(m))
    return KrausChannel(in_sys, out_sys, kraus)
