"""Dense linear algebra over labeled multi-register Hilbert spaces.

Every state and operator carries an explicit :class:`RegisterSystem`, a
tuple of (label, dimension) pairs in canonical tensor order (the first
register is the most significant index).  All subsystem operations work by
index arithmetic on the reshaped amplitude tensor; permutation matrices of
the full dimension are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Shared numerical tolerances.  Normalization, hermiticity and positivity
# checks use the 1e-9 family; reconstruction checks (Stinespring, Neumark)
# are allowed the looser 1e-8.
NORM_TOL = 1e-9
HERM_TOL = 1e-9
PSD_TOL = 1e-9
RECON_TOL = 1e-8

# Eigenvalues below this floor are treated as exact zeros when taking
# logarithms, square roots or numerical ranks.
EIG_FLOOR = 1e-12


class RegisterError(ValueError):
    """Unknown labels, duplicate labels or malformed register lists."""


class DimensionMismatch(ValueError):
    """Operands act on incompatible register systems."""


class InvalidState(ValueError):
    """A state, channel or measurement violates its defining invariants."""


def _prod(xs: Iterable[int]) -> int:
    out = 1
    for x in xs:
        out *= int(x)
    return out


@dataclass(frozen=True)
class RegisterSystem:
    """Ordered collection of labeled registers spanning a tensor product."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        regs = tuple((str(lab), int(dim)) for lab, dim in self.registers)
        object.__setattr__(self, "registers", regs)
        labels = [lab for lab, _ in regs]
        if len(set(labels)) != len(labels):
            raise RegisterError(f"duplicate register labels in {labels}")
        if not regs:
            raise RegisterError("a register system needs at least one register")
        for lab, dim in regs:
            if dim < 1:
                raise RegisterError(f"register {lab!r} has non-positive dimension {dim}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.registers)

    @property
    def dim(self) -> int:
        return _prod(self.dims)

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.registers):
            if lab == label:
                return i
        raise RegisterError(f"no register labeled {label!r} in {self.labels}")

    def dim_of(self, labels: Sequence[str]) -> int:
        return _prod(self.registers[self.axis(l)][1] for l in labels)

    def subsystem(self, labels: Sequence[str]) -> "RegisterSystem":
        """Sub-collection of registers, keeping this system's order."""
        keep = set(labels)
        unknown = keep - set(self.labels)
        if unknown:
            raise RegisterError(f"unknown labels {sorted(unknown)}")
        return RegisterSystem(tuple(r for r in self.registers if r[0] in keep))

    def drop(self, labels: Sequence[str]) -> "RegisterSystem":
        gone = set(labels)
        unknown = gone - set(self.labels)
        if unknown:
            raise RegisterError(f"unknown labels {sorted(unknown)}")
        rest = tuple(r for r in self.registers if r[0] not in gone)
        if not rest:
            raise RegisterError("cannot drop every register")
        return RegisterSystem(rest)


def system(*registers: tuple[str, int]) -> RegisterSystem:
    """Shorthand constructor: ``system(("R", 2), ("B", 2))``."""
    return RegisterSystem(tuple(registers))


def qubits(*labels: str) -> RegisterSystem:
    return RegisterSystem(tuple((lab, 2) for lab in labels))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Read-only complex copy; every validated class rejects NaN and infinity here."""
    out = np.array(arr, dtype=complex)
    if not np.isfinite(out).all():
        raise InvalidState("array has non-finite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateVector:
    """Pure state with unit norm over a register system."""

    system: RegisterSystem
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape[0] != self.system.dim:
            raise DimensionMismatch(
                f"vector of length {amps.shape[0]} on a system of dimension {self.system.dim}"
            )
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > NORM_TOL:
            raise InvalidState(f"state vector norm {nrm} deviates from 1 beyond {NORM_TOL}")

    def tensorized(self) -> np.ndarray:
        return self.amplitudes.reshape(self.system.dims)

    def to_density(self) -> "DensityOperator":
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(self.system, mat)


@dataclass(frozen=True)
class DensityOperator:
    """Positive semidefinite operator with unit (or bounded, if subnormalized) trace."""

    system: RegisterSystem
    matrix: np.ndarray
    subnormalized: bool = False

    def __post_init__(self):
        mat = _frozen(self.matrix)
        object.__setattr__(self, "matrix", mat)
        d = self.system.dim
        if mat.shape != (d, d):
            raise DimensionMismatch(f"matrix shape {mat.shape} does not match dimension {d}")
        if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
            raise InvalidState("matrix is not Hermitian within tolerance")
        evals = np.linalg.eigvalsh(mat)
        if evals[0] < -PSD_TOL:
            raise InvalidState(f"matrix has negative eigenvalue {evals[0]}")
        tr = float(mat.trace().real)
        if self.subnormalized:
            if tr > 1.0 + NORM_TOL or tr < -NORM_TOL:
                raise InvalidState(f"subnormalized trace {tr} outside [0, 1]")
        elif abs(tr - 1.0) > NORM_TOL:
            raise InvalidState(f"trace {tr} deviates from 1 beyond {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.system.dim

    def trace(self) -> float:
        return float(self.matrix.trace().real)


@dataclass(frozen=True)
class Isometry:
    """Inner-product preserving map between register systems (V^dag V = id)."""

    in_system: RegisterSystem
    out_system: RegisterSystem
    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen(self.matrix)
        object.__setattr__(self, "matrix", mat)
        din, dout = self.in_system.dim, self.out_system.dim
        if mat.shape != (dout, din):
            raise DimensionMismatch(f"isometry shape {mat.shape}, expected {(dout, din)}")
        if dout < din:
            raise DimensionMismatch("isometry cannot shrink the space")
        gram = mat.conj().T @ mat
        if np.max(np.abs(gram - np.eye(din))) > max(HERM_TOL, 1e-9 * din):
            raise InvalidState("V^dag V deviates from the identity beyond tolerance")


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map given by Kraus operators; trace preserving unless flagged."""

    in_system: RegisterSystem
    out_system: RegisterSystem
    kraus: tuple[np.ndarray, ...]
    subnormalized: bool = False

    def __post_init__(self):
        ops = tuple(_frozen(k) for k in self.kraus)
        object.__setattr__(self, "kraus", ops)
        if not ops:
            raise InvalidState("a channel needs at least one Kraus operator")
        din, dout = self.in_system.dim, self.out_system.dim
        for k in ops:
            if k.shape != (dout, din):
                raise DimensionMismatch(f"Kraus shape {k.shape}, expected {(dout, din)}")
        total = sum(k.conj().T @ k for k in ops)
        dev = np.max(np.abs(total - np.eye(din)))
        if self.subnormalized:
            evals = np.linalg.eigvalsh(total)
            if evals[-1] > 1.0 + HERM_TOL:
                raise InvalidState("Kraus completeness sum exceeds the identity")
        elif dev > max(HERM_TOL, 1e-9 * din):
            raise InvalidState(f"Kraus completeness deviates by {dev}")


@dataclass(frozen=True)
class Povm:
    """Measurement operators A_i with sum_i A_i^dag A_i = id.

    Each operator must satisfy 0 <= A_i <= id.  A list of POVM *elements*
    {E_i} (positive, summing to the identity) is converted by taking
    operator square roots, which leaves the outcome statistics unchanged.
    """

    system: RegisterSystem
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_frozen(a) for a in self.operators)
        object.__setattr__(self, "operators", ops)
        d = self.system.dim
        if not ops:
            raise InvalidState("a measurement needs at least one operator")
        for a in ops:
            if a.shape != (d, d):
                raise DimensionMismatch(f"operator shape {a.shape}, expected {(d, d)}")
            if np.max(np.abs(a - a.conj().T)) > HERM_TOL:
                raise InvalidState("measurement operator is not Hermitian within tolerance")
            evals = np.linalg.eigvalsh(a)
            if evals[0] < -PSD_TOL or evals[-1] > 1.0 + PSD_TOL:
                raise InvalidState("measurement operator not between 0 and the identity")
        total = sum(a.conj().T @ a for a in ops)
        if np.max(np.abs(total - np.eye(d))) > max(HERM_TOL, 1e-9 * d):
            raise InvalidState("measurement completeness sum_i A_i^dag A_i deviates from id")

    @classmethod
    def from_elements(cls, system: RegisterSystem, elements: Sequence[np.ndarray]) -> "Povm":
        """Build from POVM elements {E_i} by taking operator square roots."""
        return cls(system, tuple(psd_sqrt(np.asarray(e, dtype=complex)) for e in elements))


# ---------------------------------------------------------------------------
# array-level helpers


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Operator square root of a PSD matrix, clamping tiny negative eigenvalues."""
    evals, vecs = np.linalg.eigh(mat)
    if evals[0] < -PSD_TOL:
        raise InvalidState(f"matrix has negative eigenvalue {evals[0]}, no PSD square root")
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def trace_norm(mat: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def marginal_matrix(mat: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]) -> np.ndarray:
    """Partial trace on a raw matrix: keep the listed axes, trace the rest."""
    dims = list(dims)
    n = len(dims)
    keep = list(keep_axes)
    drop = [i for i in range(n) if i not in keep]
    t = mat.reshape(*dims, *dims)
    perm = keep + drop + [a + n for a in keep] + [a + n for a in drop]
    t = np.transpose(t, perm)
    dk = _prod(dims[i] for i in keep)
    dd = _prod(dims[i] for i in drop)
    t = t.reshape(dk, dd, dk, dd)
    return np.einsum("ajbj->ab", t)


def vector_marginal_matrix(
    amps: np.ndarray, dims: Sequence[int], keep_axes: Sequence[int]
) -> np.ndarray:
    """Marginal of raw, possibly subnormalized amplitudes on the listed axes, in that order."""
    keep = list(keep_axes)
    rest = [i for i in range(len(dims)) if i not in keep]
    t = np.transpose(amps.reshape(dims), keep + rest)
    x = t.reshape(_prod(dims[a] for a in keep), -1)
    return x @ x.conj().T


def apply_subsystem_matrix(
    amps: np.ndarray,
    sys_: RegisterSystem,
    matrix: np.ndarray,
    in_labels: Sequence[str],
    out_registers: Sequence[tuple[str, int]] | None = None,
) -> tuple[np.ndarray, RegisterSystem]:
    """Apply an operator on a subset of registers of a raw amplitude vector.

    The operator maps the registers ``in_labels`` (in the given order) to
    ``out_registers`` (defaults to the same registers).  Output registers are
    placed at the position of the earliest input register; all other
    registers keep their relative order.  Returns the new amplitude array
    and the new register system.  Norm is not enforced, so subnormalized
    branch vectors can be pushed through measurements.
    """
    in_labels = list(in_labels)
    in_axes = [sys_.axis(l) for l in in_labels]
    in_dims = [sys_.dims[a] for a in in_axes]
    if out_registers is None:
        out_regs = [sys_.registers[a] for a in in_axes]
    else:
        out_regs = [(str(l), int(d)) for l, d in out_registers]
    out_dims = [d for _, d in out_regs]
    din, dout = _prod(in_dims), _prod(out_dims)
    if matrix.shape != (dout, din):
        raise DimensionMismatch(f"operator shape {matrix.shape}, expected {(dout, din)}")

    t = amps.reshape(sys_.dims)
    op = matrix.reshape(*out_dims, *in_dims)
    moved = np.tensordot(op, t, axes=(list(range(len(out_dims), len(out_dims) + len(in_dims))), in_axes))
    # moved axes: out registers first, then the untouched registers in original order
    rest = [r for i, r in enumerate(sys_.registers) if i not in in_axes]
    insert_at = sum(1 for i, _ in enumerate(sys_.registers) if i < min(in_axes) and i not in in_axes)
    new_regs = rest[:insert_at] + out_regs + rest[insert_at:]
    new_sys = RegisterSystem(tuple(new_regs))
    k = len(out_regs)
    order = list(range(k, k + insert_at)) + list(range(k)) + list(range(k + insert_at, moved.ndim))
    arranged = np.transpose(moved, order)
    return arranged.reshape(-1), new_sys


def permute_vector_axes(
    amps: np.ndarray, sys_: RegisterSystem, new_order: Sequence[str]
) -> tuple[np.ndarray, RegisterSystem]:
    if sorted(new_order) != sorted(sys_.labels):
        raise RegisterError(f"{list(new_order)} is not a permutation of {list(sys_.labels)}")
    perm = [sys_.axis(l) for l in new_order]
    t = np.transpose(amps.reshape(sys_.dims), perm)
    new_sys = RegisterSystem(tuple(sys_.registers[p] for p in perm))
    return t.reshape(-1), new_sys


# ---------------------------------------------------------------------------
# public typed operations


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Tensor product; register labels must be disjoint."""
    overlap = set(a.system.labels) & set(b.system.labels)
    if overlap:
        raise RegisterError(f"label collision {sorted(overlap)} in tensor product")
    sys_ = RegisterSystem(a.system.registers + b.system.registers)
    return DensityOperator(sys_, np.kron(a.matrix, b.matrix),
                           subnormalized=a.subnormalized or b.subnormalized)


def tensor_vectors(a: StateVector, b: StateVector) -> StateVector:
    overlap = set(a.system.labels) & set(b.system.labels)
    if overlap:
        raise RegisterError(f"label collision {sorted(overlap)} in tensor product")
    sys_ = RegisterSystem(a.system.registers + b.system.registers)
    return StateVector(sys_, np.kron(a.amplitudes, b.amplitudes))


def partial_trace(rho: DensityOperator, keep: Sequence[str]) -> DensityOperator:
    """Marginal on the named registers, preserving their relative order."""
    keep = list(keep)
    axes = [rho.system.axis(l) for l in keep]
    axes.sort()
    mat = marginal_matrix(rho.matrix, rho.system.dims, axes)
    sub = RegisterSystem(tuple(rho.system.registers[a] for a in axes))
    return DensityOperator(sub, mat, subnormalized=rho.subnormalized)


def vector_marginal(psi: StateVector, keep: Sequence[str]) -> DensityOperator:
    """Marginal density operator of a pure state, without forming the global matrix."""
    axes = sorted(psi.system.axis(l) for l in keep)
    sub = RegisterSystem(tuple(psi.system.registers[a] for a in axes))
    return DensityOperator(sub, vector_marginal_matrix(psi.amplitudes, psi.system.dims, axes))


def permute_registers(rho: DensityOperator, new_order: Sequence[str]) -> DensityOperator:
    if sorted(new_order) != sorted(rho.system.labels):
        raise RegisterError(f"{list(new_order)} is not a permutation of {list(rho.system.labels)}")
    perm = [rho.system.axis(l) for l in new_order]
    n = len(perm)
    t = rho.matrix.reshape(*rho.system.dims, *rho.system.dims)
    t = np.transpose(t, perm + [p + n for p in perm])
    new_sys = RegisterSystem(tuple(rho.system.registers[p] for p in perm))
    d = new_sys.dim
    return DensityOperator(new_sys, t.reshape(d, d), subnormalized=rho.subnormalized)


def permute_vector(psi: StateVector, new_order: Sequence[str]) -> StateVector:
    amps, sys_ = permute_vector_axes(psi.amplitudes, psi.system, new_order)
    return StateVector(sys_, amps)


def purify(rho: DensityOperator, purifier_label: str = "P") -> StateVector:
    """Canonical purification sum_i sqrt(lam_i) |e_i>|i> on system x purifier.

    The purifier dimension equals the numerical rank of ``rho`` (eigenvalues
    above the shared floor), so pure inputs get a trivial one-dimensional
    purifier.
    """
    if purifier_label in rho.system.labels:
        raise RegisterError(f"purifier label {purifier_label!r} collides with an existing register")
    evals, vecs = np.linalg.eigh(rho.matrix)
    mask = evals > EIG_FLOOR
    lam = evals[mask]
    v = vecs[:, mask]
    r = int(lam.shape[0])
    amps = (v * np.sqrt(lam)).reshape(rho.system.dim, r)
    nrm = np.linalg.norm(amps)
    amps = amps / nrm
    sys_ = RegisterSystem(rho.system.registers + ((purifier_label, r),))
    return StateVector(sys_, amps.reshape(-1))


def fidelity_matrices(rho_mat: np.ndarray, sigma_mat: np.ndarray,
                      sqrt_sigma: np.ndarray | None = None) -> float:
    """|| sqrt(rho) sqrt(sigma) ||_1 via the spectrum of sqrt(sigma) rho sqrt(sigma)."""
    s = psd_sqrt(sigma_mat) if sqrt_sigma is None else sqrt_sigma
    evals = np.linalg.eigvalsh(s @ rho_mat @ s)
    return float(np.sum(np.sqrt(np.clip(evals, 0.0, None))))


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity F = || sqrt(rho) sqrt(sigma) ||_1."""
    if rho.system.registers != sigma.system.registers:
        raise DimensionMismatch("fidelity requires identical register systems")
    f = fidelity_matrices(rho.matrix, sigma.matrix)
    return float(min(max(f, 0.0), 1.0))


def purified_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    f = fidelity(rho, sigma)
    return float(np.sqrt(max(0.0, 1.0 - f * f)))


def trace_norm_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace norm || rho - sigma ||_1 (twice the usual trace distance)."""
    if rho.system.registers != sigma.system.registers:
        raise DimensionMismatch("trace norm distance requires identical register systems")
    return trace_norm(rho.matrix - sigma.matrix)


def apply_channel(channel: KrausChannel, rho: DensityOperator) -> DensityOperator:
    if channel.in_system.registers != rho.system.registers:
        raise DimensionMismatch("channel input system does not match the state")
    out = np.zeros((channel.out_system.dim, channel.out_system.dim), dtype=complex)
    for k in channel.kraus:
        out += k @ rho.matrix @ k.conj().T
    return DensityOperator(channel.out_system, out,
                           subnormalized=rho.subnormalized or channel.subnormalized)


def apply_isometry(iso: Isometry, rho: DensityOperator) -> DensityOperator:
    if iso.in_system.registers != rho.system.registers:
        raise DimensionMismatch("isometry input system does not match the state")
    return DensityOperator(iso.out_system, iso.matrix @ rho.matrix @ iso.matrix.conj().T,
                           subnormalized=rho.subnormalized)


def stinespring_dilation(channel: KrausChannel, env_label: str = "E") -> tuple[Isometry, str]:
    """Isometry V|psi> = sum_i (K_i|psi>) x |i>_env with env dimension = #Kraus.

    Tracing the environment from V rho V^dag recovers the channel action.
    """
    if env_label in channel.out_system.labels:
        raise RegisterError(f"environment label {env_label!r} collides with an output register")
    m = len(channel.kraus)
    dout, din = channel.out_system.dim, channel.in_system.dim
    stack = np.stack(channel.kraus)          # (m, dout, din)
    v = np.transpose(stack, (1, 0, 2)).reshape(dout * m, din)
    out_sys = RegisterSystem(channel.out_system.registers + ((env_label, m),))
    return Isometry(channel.in_system, out_sys, v), env_label


def relabel_system(sys_: RegisterSystem, mapping: dict[str, str]) -> RegisterSystem:
    """Rename registers in place (no axis movement); unknown keys are rejected."""
    unknown = set(mapping) - set(sys_.labels)
    if unknown:
        raise RegisterError(f"unknown labels {sorted(unknown)}")
    return RegisterSystem(tuple((mapping.get(lab, lab), dim) for lab, dim in sys_.registers))


def relabel_vector(psi: StateVector, mapping: dict[str, str]) -> StateVector:
    return StateVector(relabel_system(psi.system, mapping), psi.amplitudes)


def relabel_density(rho: DensityOperator, mapping: dict[str, str]) -> DensityOperator:
    return DensityOperator(relabel_system(rho.system, mapping), rho.matrix,
                           subnormalized=rho.subnormalized)


def computational_basis_vector(sys_: RegisterSystem, digits: Sequence[int]) -> StateVector:
    """Product basis state |d_1 d_2 ...> for the given per-register digits."""
    if len(digits) != len(sys_.dims):
        raise DimensionMismatch("one digit per register required")
    idx = 0
    for d, dim in zip(digits, sys_.dims):
        if not 0 <= d < dim:
            raise DimensionMismatch(f"digit {d} out of range for dimension {dim}")
        idx = idx * dim + d
    amps = np.zeros(sys_.dim, dtype=complex)
    amps[idx] = 1.0
    return StateVector(sys_, amps)
