"""Seeded random isometries and channels, and the Kraus-sum action of a channel.

The package itself never applies a general channel; the property tests of
``test_qmat.py`` and ``test_coherence.py`` use these to check channel
validation and the monotonicity of the coherence measure.
"""

from __future__ import annotations

import numpy as np

from qredist.qmat import DensityOperator, DimensionMismatch, KrausChannel, RegisterSystem
from qredist.sampling import random_unitary


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


def apply_channel(channel: KrausChannel, rho: DensityOperator) -> DensityOperator:
    if channel.in_system.registers != rho.system.registers:
        raise DimensionMismatch("channel input system does not match the state")
    out = np.zeros((channel.out_system.dim, channel.out_system.dim), dtype=complex)
    for k in channel.kraus:
        out += k @ rho.matrix @ k.conj().T
    return DensityOperator(channel.out_system, out, subnormalized=rho.subnormalized)
