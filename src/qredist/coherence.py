"""Resource theory of local coherence.

Free states are diagonal in the fixed computational product basis, free
operations have incoherent Kraus representations (at most one nonzero
entry per column), and free measurement operators are diagonal.  The
collapsing map is full dephasing, register by register.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qmat import (
    HERM_TOL,
    DensityOperator,
    InvalidState,
    KrausChannel,
    Povm,
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


@dataclass(frozen=True)
class CollapsingMap:
    """Idempotent free channel that fixes every free state.

    The shipped instance is register-wise dephasing, which is self-adjoint
    and surjective onto the diagonal measurement operators; those two
    properties drive the restricted hypothesis-testing reduction.
    """

    name: str = "dephasing"

    def apply(self, rho: DensityOperator, labels: Sequence[str] | None = None) -> DensityOperator:
        return dephase(rho, labels)

    def apply_matrix(self, mat: np.ndarray, sys_: RegisterSystem,
                     labels: Sequence[str] | None = None) -> np.ndarray:
        axes = (list(range(len(sys_.dims))) if labels is None
                else [sys_.axis(l) for l in labels])
        return dephase_matrix(mat, sys_.dims, axes)

    # dephasing is its own adjoint
    adjoint_matrix = apply_matrix


def dephasing_map() -> CollapsingMap:
    return CollapsingMap()


def is_diagonal(mat: np.ndarray, tol: float = COHERENCE_TOL) -> bool:
    return bool(np.max(np.abs(mat - np.diag(np.diagonal(mat)))) <= tol)


def is_free_state(rho: DensityOperator, tol: float = COHERENCE_TOL) -> bool:
    return is_diagonal(rho.matrix, tol)


def is_free_measurement_operator(op: np.ndarray, tol: float = COHERENCE_TOL) -> bool:
    if not is_diagonal(op, tol):
        return False
    diag = np.diagonal(op).real
    return bool(diag.min() >= -tol and diag.max() <= 1.0 + tol)


def is_incoherent_channel(
    channel: KrausChannel, tol: float = COHERENCE_TOL
) -> tuple[bool, tuple[int, int] | None]:
    """Check every Kraus operator maps basis states to (scaled) basis states.

    Returns (True, None) or (False, (kraus_index, column)) naming the first
    column with two entries above the tolerance.
    """
    for ki, k in enumerate(channel.kraus):
        counts = (np.abs(k) > tol).sum(axis=0)
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


def maximally_coherent_state(num_qubits: int, prefix: str = "Q") -> StateVector:
    """|+>^(x n) on qubit registers prefix1..prefixN."""
    if num_qubits < 1:
        raise RegisterError("need at least one qubit")
    sys_ = RegisterSystem(tuple((f"{prefix}{i + 1}", 2) for i in range(num_qubits)))
    d = 2 ** num_qubits
    return StateVector(sys_, np.full(d, 1.0 / np.sqrt(d), dtype=complex))


@dataclass(frozen=True)
class NeumarkDilation:
    """Unitary on system x pointer realizing a measurement projectively."""

    unitary: np.ndarray
    system: RegisterSystem
    pointer_label: str

    @property
    def pointer_dim(self) -> int:
        return self.system.registers[-1][1]


def neumark_dilation(povm: Povm, pointer_label: str = "P") -> NeumarkDilation:
    """Dilate measurement operators {A_i} to a unitary on system x pointer.

    The block isometry V|psi> = sum_i (A_i |psi>) x |i> fills the pointer-0
    input columns; the remaining columns come from the orthonormal
    complement of its range.  Projecting the pointer of
    U (rho x |0><0|) U^dag onto |i> reproduces the branch A_i rho A_i^dag.
    """
    if pointer_label in povm.system.labels:
        raise RegisterError(f"pointer label {pointer_label!r} collides with a system register")
    d = povm.system.dim
    m = len(povm.operators)
    stack = np.stack(povm.operators)            # (m, d, d)
    v = np.transpose(stack, (1, 0, 2)).reshape(d * m, d)
    if m == 1:
        q_rest = np.zeros((d, 0), dtype=complex)
    else:
        q = np.linalg.qr(v, mode="complete")[0]
        q_rest = q[:, d:]
    u = np.zeros((d * m, d * m), dtype=complex)
    cols = [(s, k) for s in range(d) for k in range(m)]
    rest_iter = iter(range(q_rest.shape[1]))
    for s, k in cols:
        col = s * m + k
        if k == 0:
            u[:, col] = v[:, s]
        else:
            u[:, col] = q_rest[:, next(rest_iter)]
    if np.max(np.abs(u.conj().T @ u - np.eye(d * m))) > max(HERM_TOL, 1e-9 * d * m):
        raise InvalidState("Neumark completion failed to produce a unitary")
    sys_ = RegisterSystem(povm.system.registers + ((pointer_label, m),))
    return NeumarkDilation(u, sys_, pointer_label)


def neumark_branch(dilation: NeumarkDilation, rho: DensityOperator, outcome: int) -> np.ndarray:
    """Unnormalized post-measurement branch <i|_P U (rho x |0><0|) U^dag |i>_P."""
    m = dilation.pointer_dim
    d = rho.system.dim
    pointer0 = np.zeros((m, m), dtype=complex)
    pointer0[0, 0] = 1.0
    joint = np.kron(rho.matrix, pointer0)
    evolved = dilation.unitary @ joint @ dilation.unitary.conj().T
    t = evolved.reshape(d, m, d, m)
    return np.ascontiguousarray(t[:, outcome, :, outcome])


@dataclass(frozen=True)
class ResourceTheory:
    """Free states, operations and measurements, with optional extras.

    ``collapsing`` is the theory's collapsing map when one exists;
    ``min_relative_entropy_to_free`` computes the relative entropy of
    resource when a closed form is available;
    ``min_log_norm_over_free`` gives inf over free states of the sup-norm of
    the log, the constant entering continuity bounds.
    """

    name: str
    is_free_state: Callable[[DensityOperator], bool]
    is_free_operation: Callable[[KrausChannel], bool]
    is_free_measurement_operator: Callable[[np.ndarray], bool]
    collapsing: CollapsingMap | None = None
    min_relative_entropy_to_free: Callable[[DensityOperator], float] | None = None
    min_log_norm_over_free: Callable[[RegisterSystem], float] | None = None


def coherence_theory() -> ResourceTheory:
    from .entropy import relative_entropy_of_coherence

    return ResourceTheory(
        name="coherence",
        is_free_state=is_free_state,
        is_free_operation=lambda ch: is_incoherent_channel(ch)[0],
        is_free_measurement_operator=is_free_measurement_operator,
        collapsing=dephasing_map(),
        min_relative_entropy_to_free=relative_entropy_of_coherence,
        # the uniform state minimizes ||log tau||_inf over diagonal states
        min_log_norm_over_free=lambda sys_: float(np.log2(sys_.dim)),
    )
