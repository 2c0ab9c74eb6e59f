"""Resource theory of local coherence.

Free states are diagonal in the fixed computational product basis, free
operations have incoherent Kraus representations (at most one nonzero
entry per column), and free measurement operators are diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import (
    DensityOperator,
    KrausChannel,
    RegisterError,
    RegisterSystem,
    StateVector,
    _prod,
)

COHERENCE_TOL = 1e-10


class NotFreeOperation(ValueError):
    """An operator or channel claimed free fails the free-set test."""


def _register_digits(dims: Sequence[int], axis: int) -> np.ndarray:
    """Digit of each global index along one register axis."""
    d = _prod(dims)
    block = _prod(dims[axis + 1:])
    return (np.arange(d) // block) % dims[axis]


def dephase_matrix(mat: np.ndarray, dims: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """Zero every entry whose row and column digits differ on the given axes."""
    keep = np.ones(mat.shape, dtype=bool)
    for ax in axes:
        digit = _register_digits(dims, ax)
        keep &= digit[:, None] == digit[None, :]
    return np.where(keep, mat, 0.0)


def dephase(rho: DensityOperator, labels: Sequence[str] | None = None) -> DensityOperator:
    """Apply the dephasing channel to the named registers (default: all).

    Dephasing is idempotent, self-adjoint and factorizes over registers, so
    dephasing R then S equals dephasing the pair at once.
    """
    if labels is None:
        axes = list(range(len(rho.system.dims)))
    else:
        axes = [rho.system.axis(l) for l in labels]
    out = dephase_matrix(rho.matrix, rho.system.dims, axes)
    return DensityOperator(rho.system, out, subnormalized=rho.subnormalized)


def is_diagonal(mat: np.ndarray) -> bool:
    return bool(np.max(np.abs(mat - np.diag(np.diagonal(mat)))) <= COHERENCE_TOL)


def is_free_state(rho: DensityOperator) -> bool:
    return is_diagonal(rho.matrix)


def is_incoherent_channel(channel: KrausChannel) -> tuple[bool, tuple[int, int] | None]:
    """Check every Kraus operator maps basis states to (scaled) basis states.

    Returns (True, None) or (False, (kraus_index, column)) naming the first
    column with two entries above the tolerance.
    """
    for ki, k in enumerate(channel.kraus):
        counts = (np.abs(k) > COHERENCE_TOL).sum(axis=0)
        bad = np.nonzero(counts > 1)[0]
        if bad.size:
            return False, (ki, int(bad[0]))
    return True, None


@dataclass(frozen=True)
class IncoherentKrausSet:
    """Kraus channel certified incoherent at construction."""

    channel: KrausChannel

    def __post_init__(self):
        ok, witness = is_incoherent_channel(self.channel)
        if not ok:
            ki, col = witness
            raise NotFreeOperation(
                f"Kraus operator {ki} has two entries above {COHERENCE_TOL} in column {col}"
            )


def maximally_coherent_state(num_qubits: int) -> StateVector:
    """|+>^(x n) on qubit registers Q1..QN."""
    if num_qubits < 1:
        raise RegisterError("need at least one qubit")
    sys_ = RegisterSystem(tuple((f"Q{i + 1}", 2) for i in range(num_qubits)))
    d = 2 ** num_qubits
    return StateVector(sys_, np.full(d, 1.0 / np.sqrt(d), dtype=complex))
