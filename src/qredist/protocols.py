"""One-shot protocols: coherence creation, convex split, redistribution.

Protocol states are tracked as pure branch vectors whenever global purity
allows; density matrices appear only for marginals and for the explicit
convex-split mixture.  Runs that would materialize a vector above the
amplitude budget are refused rather than attempted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import qmat
from .coherence import (
    IncoherentKrausSet,
    NotFreeOperation,
    is_free_state,
    maximally_coherent_state,
)
from .entropy import _max_relative_entropy_eig, diagonal_hypothesis_test, entropy_of_probs
from .qmat import (
    DensityOperator,
    DimensionMismatch,
    InvalidState,
    Isometry,
    KrausChannel,
    RegisterError,
    RegisterSystem,
    StateVector,
    _check_bound,
    fidelity_matrices,
    partial_trace,
    purified_distance,
    purify,
    vector_factor_matrix,
    vector_marginal,
)

# largest state vector a protocol run may materialize (complex amplitudes)
MAX_AMPLITUDES = 2 ** 13
# explicit density matrices are kept much smaller than the vector budget
MAX_DENSITY_DIM = 2 ** 11


class BudgetExceeded(RuntimeError):
    """A run would materialize a state above the amplitude budget."""


@dataclass
class ProtocolTranscript:
    """Ordered step log with aggregate resource counters; each step is the dict
    {"description", "resources", "data"} that ``to_json`` writes."""

    COUNTERS = ("qubits_sent", "cobits_sent", "singlets_consumed", "coherent_qubits_out")

    steps: list[dict[str, Any]] = field(default_factory=list)
    qubits_sent: int = 0
    cobits_sent: int = 0
    singlets_consumed: int = 0
    coherent_qubits_out: int = 0
    achieved_fidelity: float = 1.0
    details: dict[str, Any] = field(default_factory=dict)

    def add(self, description: str, **kwargs: Any) -> None:
        """Log a step; each of its resources is added into the counter of that name."""
        resources = kwargs.pop("resources", {})
        self.steps.append({"description": description, "resources": dict(resources),
                           "data": kwargs})
        for name, amount in resources.items():
            setattr(self, name, getattr(self, name) + amount)

    def finalize(self) -> "ProtocolTranscript":
        for name in self.COUNTERS:
            if getattr(self, name) < 0:
                raise InvalidState(f"negative resource counter {name}")
        if not -1e-9 <= self.achieved_fidelity <= 1.0 + 1e-9:
            raise InvalidState(f"achieved fidelity {self.achieved_fidelity} outside [0, 1]")
        self.achieved_fidelity = float(min(max(self.achieved_fidelity, 0.0), 1.0))
        return self

    def to_json(self) -> dict[str, Any]:
        return {
            "steps": _jsonable(self.steps),
            "counters": {name: getattr(self, name) for name in self.COUNTERS},
            "achieved_fidelity": self.achieved_fidelity,
            "details": _jsonable(self.details),
        }


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


def _check_budget(base: int, factor: int, power: int, budget: int, what: str) -> None:
    """Refuse a run that needs base * factor**power amplitudes, more than the budget.

    The count is at least 2^e with e = (bits(factor) - 1) power + bits(base) - 1,
    so once e reaches both 64 and the budget's bit length the count is refused
    without being formed; any other count is formed, compared and printed exactly.
    """
    e = (factor.bit_length() - 1) * power + base.bit_length() - 1
    if e >= max(64, max(budget, 0).bit_length()):
        raise BudgetExceeded(f"{what} needs at least 2^{e} amplitudes, over the budget of {budget}")
    dim = base * factor ** power
    if dim > budget:
        raise BudgetExceeded(f"{what} needs {dim} amplitudes, over the budget of {budget}")


def _slot_count(k: float, delta: float) -> int:
    """n = ceil(2^k / delta); a count that overflows a float is over any budget."""
    try:
        return int(math.ceil(2.0 ** k / delta - 1e-12))
    except (OverflowError, ZeroDivisionError):
        raise BudgetExceeded(
            f"slot count 2^{k} / {delta} overflows a float, over any budget") from None


# ---------------------------------------------------------------------------
# coherence creation from qubit channels plus entanglement

_BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
# singlet rotated by Alice: (|0,+> + |1,->)/sqrt(2)
_ROTATED_PAIR = np.array([0.5, 0.5, 0.5, -0.5], dtype=complex)


def coherence_creation(q: int, e: int, budget: int = MAX_AMPLITUDES) -> ProtocolTranscript:
    """Create c = q + min(e, q) coherent qubits at Bob from q sent qubits and e singlets.

    For each consumed singlet Alice rotates her half with a Hadamard and
    sends it; Bob applies a controlled-Z (incoherent, diagonal) to turn the
    pair into |+>|+>.  Remaining channel uses send fresh |+> states.  Every
    Bob-side operation is certified incoherent and the local-coherence gain
    per received qubit is audited against the factor-two bound.  Bob's state
    is pure, so its relative entropy of coherence is the Shannon entropy of
    |amplitudes|^2 and the audit forms no density matrix.
    """
    if q < 0 or e < 0:
        raise ValueError("resource counts must be nonnegative")
    m = min(e, q)
    c = q + m
    _check_budget(1, 2, max(c, 1), budget, "coherence creation output")
    t = ProtocolTranscript()
    bob_amps = np.ones(1, dtype=complex)
    audit: list[dict[str, float]] = []

    def bob_rc() -> float:
        return entropy_of_probs(np.abs(bob_amps) ** 2)

    # every singlet is rotated alike and decoded by the same controlled-Z: check both once
    pair = (_HADAMARD @ _BELL.reshape(2, 2)).reshape(-1)  # Alice-side rotation on her half
    if np.max(np.abs(pair - _ROTATED_PAIR)) > 1e-12:
        raise InvalidState("rotated singlet deviates from its closed form")
    IncoherentKrausSet(KrausChannel(qmat.qubits("a", "b"), qmat.qubits("a", "b"), (_CZ,)))
    # Bob's controlled-Z on the pair he has just received; a diagonal of signs, so the
    # |amplitudes|^2 audited below are those of the undecoded pair
    decoded = _CZ @ pair

    for i in range(m):
        t.add(f"alice rotates singlet {i + 1} with a Hadamard on her half")
        rc_before = bob_rc()
        # Bob's half was maximally mixed; after the send he holds the pure pair
        bob_amps = np.kron(bob_amps, decoded)
        t.add(
            f"alice sends her half of singlet {i + 1}",
            resources={"qubits_sent": 1, "singlets_consumed": 1},
        )
        rc_after = bob_rc()
        audit.append({"step": len(t.steps), "rc_gain": rc_after - rc_before})
        t.add(
            f"bob applies a controlled-Z to pair {i + 1} (certified incoherent)",
            incoherent=True,
        )

    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    for i in range(q - m):
        rc_before = bob_rc()
        bob_amps = np.kron(bob_amps, plus)
        t.add(
            f"alice sends a fresh |+> qubit ({i + 1} of {q - m})",
            resources={"qubits_sent": 1},
        )
        rc_after = bob_rc()
        audit.append({"step": len(t.steps), "rc_gain": rc_after - rc_before})

    for entry in audit:
        _check_bound("coherence gain per received qubit", entry["rc_gain"], 2.0, "<=", 1e-8)

    if c == 0:
        t.achieved_fidelity = 1.0
    else:
        target = maximally_coherent_state(c).amplitudes
        t.achieved_fidelity = float(abs(np.vdot(target, bob_amps)))
    t.coherent_qubits_out = c
    t.details = {"q": q, "e": e, "coherent_qubits_out": c, "rc_audit": audit}
    return t.finalize()


# ---------------------------------------------------------------------------
# convex split

def _slot_swaps(t: np.ndarray, slot_axes: Sequence[Sequence[int]]):
    """Views of ``t`` with slot 1's axes exchanged for slot j's, for j = 1..n;
    ``slot_axes[j - 1]`` lists slot j's axes in the order of slot 1's."""
    first = slot_axes[0]
    for axes in slot_axes:
        perm = list(range(t.ndim))
        for a, b in zip(first, axes):
            perm[a], perm[b] = b, a
        yield np.transpose(t, perm)


def _with_sigma_copies(
    amps: np.ndarray, registers: tuple[tuple[str, int], ...], sigma_pure: StateVector,
    slots: Sequence[int],
) -> tuple[np.ndarray, RegisterSystem]:
    """amps x |sigma>_{C_i L_i} for each slot i, the copies' registers appended in slot order."""
    copies = np.ones(1, dtype=complex)
    for i in slots:
        copies = np.kron(copies, sigma_pure.amplitudes)
        registers += tuple((f"{lab}{i}", d) for lab, d in sigma_pure.system.registers)
    return np.kron(amps, copies), RegisterSystem(registers)


def _pq_order(rho_pq: DensityOperator, sigma_q: DensityOperator) -> tuple[DensityOperator, list[str]]:
    """The joint state in (P, Q) order, Q in sigma's register order, and P's labels."""
    q_labels = list(sigma_q.system.labels)
    for lab in q_labels:
        if lab not in rho_pq.system.labels:
            raise RegisterError(f"sigma register {lab!r} missing from the joint state")
        if rho_pq.system.registers[rho_pq.system.axis(lab)][1] != sigma_q.system.registers[sigma_q.system.axis(lab)][1]:
            raise DimensionMismatch(f"dimension mismatch on register {lab!r}")
    p_labels = [lab for lab in rho_pq.system.labels if lab not in q_labels]
    if not p_labels:
        raise RegisterError("the joint state must have at least one register outside sigma")
    if list(rho_pq.system.labels) != p_labels + q_labels:
        rho_pq = qmat.permute_registers(rho_pq, p_labels + q_labels)
    return rho_pq, p_labels


def _split_system(rho_pq: DensityOperator, sigma_q: DensityOperator, n: int,
                  budget: int) -> RegisterSystem:
    """The split state's registers for rho_pq in (P, Q) order: P, then the slots Q1..Qn in
    sigma's register order.  Refuses a split over the budget."""
    if n < 1:
        raise ValueError(f"slot count must be positive, got {n}")
    _check_budget(rho_pq.system.dim, sigma_q.system.dim, n - 1, budget,
                  f"convex split over {n} slots")
    return RegisterSystem(rho_pq.system.registers[:-len(sigma_q.system.registers)] + tuple(
        (f"{lab}{j}", d) for j in range(1, n + 1) for lab, d in sigma_q.system.registers))


def _kron_matrices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices as one broadcast product: the same entries, without
    np.kron's general set-up, which dominates its cost on small operands."""
    prod = a[:, None, :, None] * b[None, :, None, :]
    return prod.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _split_matrix(rho_pq: np.ndarray, sigma: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_j of the slot-1/slot-j swaps of rho_pq x sigma^{x(n-1)}, rho_pq in (P, Q) order.

    The product and its swapped views are released on return, before the
    caller validates the result.
    """
    d_q = sigma.shape[0]
    d_p = rho_pq.shape[0] // d_q
    first = rho_pq
    for _ in range(n - 1):
        first = np.kron(first, sigma)
    # one axis for P and one per slot, on the row side and on the column side
    t = first.reshape(((d_p,) + (d_q,) * n) * 2)
    acc = np.zeros(t.shape, dtype=complex)
    for term in _slot_swaps(t, [(j, n + 1 + j) for j in range(1, n + 1)]):
        acc += term
    acc /= n
    return acc.reshape(first.shape)


def convex_split_state(
    rho_pq: DensityOperator,
    sigma_q: DensityOperator,
    n: int,
    budget: int = MAX_DENSITY_DIM,
) -> DensityOperator:
    """(1/n) sum_j rho_{PQ_j} x sigma^{x(n-1) on the other slots}.

    Output registers are P, then the slots Q1..Qn in sigma's register order.
    Term j is the first term, built once, with slots 1 and j swapped.
    """
    rho_pq = _pq_order(rho_pq, sigma_q)[0]
    return DensityOperator(_split_system(rho_pq, sigma_q, n, budget),
                           _split_matrix(rho_pq.matrix, sigma_q.matrix, n))


def _product_frame(rho_pq: np.ndarray, rho_p: np.ndarray, sigma: np.ndarray):
    """rho_pq, in (P, Q) order, in the eigenbasis U_P x U_sigma of rho_P x sigma, the
    eigenvalues of rho_P and of sigma, and k = D_max(rho_pq||rho_P x sigma) read in that basis."""
    lam_p, u_p = np.linalg.eigh(rho_p)
    lam_q, u_q = np.linalg.eigh(sigma)
    u = _kron_matrices(u_p, u_q)
    rotated = u.conj().T @ rho_pq @ u
    return rotated, lam_p, lam_q, _max_relative_entropy_eig(rotated, np.kron(lam_p, lam_q))


def random_split_instance(
    rng: np.random.Generator, k_cap: float, dim_p: int = 2, dim_q: int = 2
) -> tuple[DensityOperator, DensityOperator]:
    """Seeded correlated pair whose distance from product is capped at k_cap.

    Draws a full-rank correlated state and, when its max-relative entropy k
    against the product of its own marginals exceeds the cap, mixes toward
    the product; the mixing weight lands the capped state at exactly k_cap
    because the extremal eigendirection is unchanged.  Returns the pair
    (joint state on P and Q, its Q marginal).
    """
    from .sampling import random_density

    if not 0.0 <= k_cap < math.inf:
        raise ValueError(f"k_cap must be finite and nonnegative, got {k_cap}")
    sys_pq = qmat.system(("P", dim_p), ("Q", dim_q))
    corr = random_density(sys_pq, rng)
    rho_p = partial_trace(corr, ["P"])
    sigma_q = partial_trace(corr, ["Q"])
    k0 = _product_frame(corr.matrix, rho_p.matrix, sigma_q.matrix)[3]
    if not k0.finite:
        raise InvalidState("drawn state is unsupported on its marginal product")
    if k0.value <= k_cap:
        return corr, sigma_q
    t = (2.0 ** k_cap - 1.0) / (2.0 ** k0.value - 1.0)
    prod = _kron_matrices(rho_p.matrix, sigma_q.matrix)
    mixed = DensityOperator(sys_pq, (1.0 - t) * prod + t * corr.matrix)
    return mixed, sigma_q


def _spin_block_fidelity(rotated: np.ndarray, root_p: np.ndarray, s: np.ndarray, n: int) -> float:
    """F(tau, rho_P x sigma^{xn}) for a qubit Q, from tau's spin-j blocks.

    ``rotated`` is the joint state in (P, Q) order in the eigenbasis of
    rho_P x sigma, ``root_p`` holds the roots of rho_P's eigenvalues and
    ``s`` sigma's two eigenvalues, both positive.  With S = diag(s) and
    Y = (1 x S)^{-1/2} rotated (1 x S)^{-1/2}, tau = Sigma^{1/2} B Sigma^{1/2}
    with Sigma = 1 x S^{xn} and B = (1/n) sum_ab Y_ab x E_ab, where
    E_00 = n/2 + J_z, E_11 = n/2 - J_z, E_01 = J_+ and E_10 = J_- are
    collective.  By Schur-Weyl duality tau is the direct sum over the spins j
    of n qubits of tau_j x 1_{mult_j}, and S^{xn} acts on spin j as
    D_j = diag(s_0^{n/2+m} s_1^{n/2-m}), so F = sum_j mult_j Tr sqrt(A_j)
    with A_j = (root_p x D_j^{1/2}) tau_j (root_p x D_j^{1/2}).  The blocks get
    the checks a DensityOperator gives tau: Hermitian, each tau_j positive
    semidefinite, and sum_j mult_j Tr tau_j = 1.
    """
    d_p = root_p.shape[0]
    scale = np.sqrt(np.tile(s, d_p))
    y = rotated / np.outer(scale, scale)
    # every tau_j is a congruence of Y by real weights that are symmetric
    # under a <-> b, so the blocks are Hermitian exactly when Y is
    if not np.max(np.abs(y - y.conj().T)) <= qmat.HERM_TOL:
        raise InvalidState("spin blocks are not Hermitian within tolerance")
    y = y.reshape(d_p, 2, d_p, 2).transpose(1, 3, 0, 2)  # y[a, b] is the d_P x d_P block Y_ab
    f = 0.0
    trace = 0.0
    for k in range(n // 2 + 1):  # spin j = n/2 - k, basis m = j, j - 1, ..., -j
        dim = n - 2 * k + 1
        i = np.arange(dim)
        zeros = n - k - i  # slots in sigma's first eigenvector: n/2 + m
        blk = np.zeros((d_p, dim, d_p, dim), dtype=complex)
        blk[:, i, :, i] = zeros[:, None, None] * y[0, 0] + (n - zeros)[:, None, None] * y[1, 1]
        ladder = np.sqrt(i[1:] * (dim - i[1:]))[:, None, None]  # <m + 1| J_+ |m>
        blk[:, i[:-1], :, i[1:]] = ladder * y[0, 1]
        blk[:, i[1:], :, i[:-1]] = ladder * y[1, 0]
        root_d = np.sqrt(s[0] ** zeros * s[1] ** (n - zeros))
        tau = (blk * (root_d[None, :, None, None] * root_d / n)).reshape(d_p * dim, d_p * dim)
        qmat._check_psd(tau)
        mult = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        trace += mult * float(tau.trace().real)
        f += mult * fidelity_matrices(tau, (root_p[:, None] * root_d).reshape(-1))
    if not abs(trace - 1.0) <= qmat.NORM_TOL:
        raise InvalidState(f"spin blocks carry trace {trace}, not 1 within {qmat.NORM_TOL}")
    return f


@dataclass(frozen=True)
class ConvexSplitCheck:
    k: float
    n: int
    fidelity_squared: float
    bound: float


def convex_split_bound_check(
    rho_pq: DensityOperator,
    sigma_q: DensityOperator,
    eps: float,
    delta: float,
    budget: int = MAX_DENSITY_DIM,
) -> ConvexSplitCheck:
    """Build the split state at n = ceil(2^k / delta) and verify its fidelity bound.

    k is the unsmoothed max-relative entropy of the joint state against
    marginal x sigma; the guarantee F^2 >= 1 - (sqrt(delta) + 2 eps)^2 then
    holds with eps = 0.  A violation raises, since the bound is proven.
    For a qubit sigma of full rank the fidelity comes from the split state's
    spin-j blocks of size d_P (2j + 1); other inputs build the dense state.
    The budget caps the dense dimension d_P d_Q^n on both routes.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    ordered, p_labels = _pq_order(rho_pq, sigma_q)
    # Work in the eigenbasis of the target rho_P x sigma^{xn}: the split state
    # commutes with U_P x U_sigma^{xn}, so it is built from the rotated joint
    # state and the diagonal sigma, and the target's root is a diagonal; k is
    # read in the same basis.  The spin-block route needs sigma^{-1/2}, so a
    # rank-deficient sigma stays dense.
    rotated, lam_p, lam_q, kval = _product_frame(
        ordered.matrix, partial_trace(rho_pq, p_labels).matrix, sigma_q.matrix)
    if not kval.finite:
        raise InvalidState("joint state is unsupported on marginal x sigma")
    n = _slot_count(kval.value, delta)
    sys_ = _split_system(ordered, sigma_q, n, budget)
    root = np.sqrt(np.clip(lam_p, 0.0, None))
    if lam_q.shape[0] == 2 and lam_q[0] > qmat.EIG_FLOOR:
        f = _spin_block_fidelity(rotated, root, lam_q, n)
    else:
        tau = DensityOperator(sys_, _split_matrix(rotated, np.diag(lam_q), n))
        root_q = np.sqrt(np.clip(lam_q, 0.0, None))
        for _ in range(n):
            root = np.kron(root, root_q)
        f = fidelity_matrices(tau.matrix, root)
    f = min(max(f, 0.0), 1.0)
    f2 = f * f
    bound = 1.0 - (math.sqrt(delta) + 2.0 * eps) ** 2
    _check_bound("convex split fidelity^2", f2, bound, ">=", 1e-9)
    return ConvexSplitCheck(k=kval.value, n=n, fidelity_squared=f2, bound=bound)


# ---------------------------------------------------------------------------
# Uhlmann transfer isometry

def _polar_isometry(k: np.ndarray) -> np.ndarray:
    """The map V on F's columns that maximizes |Tr(K V^T)|, K = Y^dag F the cross-overlap
    of the vectors with amplitude matrices Y and F, and Tr(K V^T) the overlap of Y with
    F V^T: conj(U Q^dag) from the thin SVD U S Q^dag of K, an isometry whenever K has at
    least as many rows as columns (when K is rank-deficient, its completion is arbitrary)."""
    u, _, qh = np.linalg.svd(k, full_matrices=False)
    return np.conj(u @ qh)


def uhlmann_isometry(
    psi_ab: StateVector, psi_ac: StateVector, shared: Sequence[str] | None = None
) -> Isometry:
    """Isometry V on the non-shared part of psi_ac maximizing <psi_ab|(id x V)|psi_ac>.

    The achieved overlap equals the fidelity of the two marginals on the
    shared registers.  Built from a thin SVD of the full cross-overlap
    matrix, so V is also fixed off psi_ac's support and takes every row of
    psi_ab's side; ``qsr_full`` takes the same polar step on that support only,
    and on the rows of the convex-split purification's support.
    """
    if shared is None:
        shared = [lab for lab in psi_ab.system.labels if lab in set(psi_ac.system.labels)]
    shared = list(shared)
    if not shared:
        raise RegisterError("the two states share no registers")
    for lab in shared:
        da = psi_ab.system.registers[psi_ab.system.axis(lab)][1]
        dc = psi_ac.system.registers[psi_ac.system.axis(lab)][1]
        if da != dc:
            raise DimensionMismatch(f"shared register {lab!r} has dimensions {da} vs {dc}")
    rest_b = [lab for lab in psi_ab.system.labels if lab not in shared]
    rest_c = [lab for lab in psi_ac.system.labels if lab not in shared]
    if not rest_b or not rest_c:
        raise RegisterError("both states need registers outside the shared part")

    y, x = (vector_factor_matrix(psi.amplitudes, psi.system.dims,
                                 [psi.system.axis(lab) for lab in shared])
            for psi in (psi_ab, psi_ac))
    db, dc = y.shape[1], x.shape[1]
    if dc > db:
        raise DimensionMismatch(
            f"target side dimension {db} is smaller than source side {dc}"
        )
    return Isometry(
        psi_ac.system.subsystem(rest_c), psi_ab.system.subsystem(rest_b),
        _polar_isometry(y.conj().T @ x)
    )


# ---------------------------------------------------------------------------
# redistribution instances and parameters

def check_free_sigma_c(sigma_c: DensityOperator, dim_c: int) -> None:
    """A free decoding state lives on register C, matches its dimension and is diagonal."""
    if sigma_c.system.labels != ("C",):
        raise RegisterError("sigma_c must live on register C")
    if sigma_c.system.dim != dim_c:
        raise DimensionMismatch("sigma_c dimension does not match register C")
    if not is_free_state(sigma_c):
        raise NotFreeOperation("sigma_c must be diagonal")


def _marginal_diagonal(psi: StateVector, keep: Sequence[str]) -> np.ndarray:
    """Diagonal of ``vector_marginal(psi, keep)``, read off the same X X^dag, unvalidated.  A
    sum of |psi|^2 differs in the last bits, which decide classical-side-info's tied free
    test (all likelihood ratios 1) and move its final distance by up to 1.6e-2; it will do
    once ties within a tolerance form one class."""
    x = vector_factor_matrix(psi.amplitudes, psi.system.dims, [psi.system.axis(l) for l in keep])
    return np.diagonal(x @ x.conj().T).real


def _rbc_product_frame(psi: StateVector, rho_rb: np.ndarray,
                       s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi's factor X on (RB, C | rest), so rho_RBC = X X^dag, with Y = (U^dag x 1_C) X and
    kron(e, s): for (e, U) = eigh(rho_RB), rho_RB x diag(s) has eigenvalues kron(e, s) and
    eigenvectors U x 1_C, in which rho_RBC is Y Y^dag.  Nothing of size d_RBC^2 is formed."""
    e, u = np.linalg.eigh(rho_rb)
    x = vector_factor_matrix(psi.amplitudes, psi.system.dims,
                             [psi.system.axis(lab) for lab in ("R", "B", "C")])
    y = (u.conj().T @ x.reshape(len(e), -1)).reshape(x.shape)
    return x, y, np.kron(e, s)


@dataclass(frozen=True)
class QsrInstance:
    """A redistribution task: move C from Alice to Bob against side information.

    ``psi`` purifies the task on registers R (reference), A (Alice), B
    (Bob), C (the register to move); ``sigma_c`` is the free decoding state
    on C.  Overrides bypass the prescribed slot and block counts.
    """

    psi: StateVector
    sigma_c: DensityOperator
    eps1: float
    eps2: float
    gamma: float
    n_override: int | None = None
    b_override: int | None = None
    name: str = ""

    def __post_init__(self):
        if set(self.psi.system.labels) != {"R", "A", "B", "C"}:
            raise RegisterError(
                f"instance state must use registers R, A, B, C, got {self.psi.system.labels}"
            )
        object.__setattr__(self, "psi", qmat.permute_vector(self.psi, ["R", "A", "B", "C"]))
        check_free_sigma_c(self.sigma_c, self.psi.system.dim_of(["C"]))
        for nm in ("eps1", "eps2", "gamma"):
            val = getattr(self, nm)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{nm} must be in (0, 1), got {val}")
        for nm in ("n_override", "b_override"):  # their ranges are checked by qsr_parameters
            val = getattr(self, nm)
            if val is not None:
                if isinstance(val, bool) or not isinstance(val, numbers.Integral):
                    raise ValueError(f"{nm} must be an integer, got {val!r}")
                object.__setattr__(self, nm, int(val))
        diag_sigma = np.diagonal(self.sigma_c.matrix).real
        if np.any((diag_sigma <= qmat.EIG_FLOOR) & (_marginal_diagonal(self.psi, ["C"]) > 1e-10)):
            raise InvalidState("rho_C has mass outside the support of sigma_c")


@dataclass(frozen=True)
class QsrParameters:
    """Run parameters; ``test_bc`` is the diagonal free test on (B, C) as its d_BC weights."""

    k: float
    delta: float
    n: int
    d_f: float
    b: int
    b_unclamped: int
    cobits: int
    test_bc: np.ndarray


def qsr_parameters(instance: QsrInstance) -> QsrParameters:
    """Slot count, block size and the optimal free test, as Pi's diagonal, for an instance."""
    psi = instance.psi
    s = np.diagonal(instance.sigma_c.matrix).real
    # k = D_max(rho_RBC||rho_RB x sigma_c), read in the product's eigenbasis
    _, y, evs = _rbc_product_frame(psi, vector_marginal(psi, ["R", "B"]).matrix, s)
    kval = _max_relative_entropy_eig(y @ y.conj().T, evs)
    if not kval.finite:
        raise InvalidState("instance violates the support condition against sigma_c")
    delta = instance.eps1 ** 2
    n = (instance.n_override if instance.n_override is not None
         else _slot_count(kval.value, delta))
    if n < 1:
        raise ValueError("slot count must be positive")

    d_f_val, test_bc = diagonal_hypothesis_test(
        _marginal_diagonal(psi, ["B", "C"]),
        np.kron(_marginal_diagonal(psi, ["B"]), s),
        instance.eps2 ** 4,
    )
    d_f = float(d_f_val)
    b_raw = n if math.isinf(d_f) else int(math.ceil(instance.gamma ** 4 * 2.0 ** d_f - 1e-12))
    b = instance.b_override if instance.b_override is not None else max(1, min(b_raw, n))
    if not 1 <= b <= n:
        raise ValueError(f"block size {b} outside [1, {n}]")
    cobits = ((n - 1) // b).bit_length()  # ceil(log2(n / b)), in integers
    return QsrParameters(
        k=kval.value, delta=delta, n=n, d_f=d_f, b=b,
        b_unclamped=max(1, b_raw), cobits=cobits, test_bc=test_bc,
    )


def builtin_qsr_instances() -> dict[str, QsrInstance]:
    """Three hand-built near-product instances that fit the budget unassisted."""
    out: dict[str, QsrInstance] = {}

    # C uncorrelated and pure: nothing to decode beyond locating the slot
    th = 0.6
    psi1 = np.zeros(16, dtype=complex)
    # order (R, A, B, C): R and B entangled, A = C = |0>
    psi1[0] = math.cos(th)          # |0 0 0 0>
    psi1[0b1010] = math.sin(th)     # |1 0 1 0>
    out["uncorrelated-pure"] = QsrInstance(
        psi=StateVector(qmat.qubits("R", "A", "B", "C"), psi1),
        sigma_c=DensityOperator(qmat.system(("C", 2)), np.diag([1.0, 0.0]).astype(complex)),
        eps1=0.38, eps2=0.25, gamma=0.25, name="uncorrelated-pure",
    )

    # C classically copied at Alice: exact product against sigma_c
    q0, q1 = 0.8, 0.2
    th2 = math.pi / 6
    psi2 = np.zeros(16, dtype=complex)
    for i, qi in enumerate((q0, q1)):
        # sqrt(q_i)|i>_A |i>_C x (cos|00> + sin|11>)_RB
        psi2[_idx4(0, i, 0, i)] += math.sqrt(qi) * math.cos(th2)
        psi2[_idx4(1, i, 1, i)] += math.sqrt(qi) * math.sin(th2)
    out["classical-side-info"] = QsrInstance(
        psi=StateVector(qmat.qubits("R", "A", "B", "C"), psi2),
        sigma_c=DensityOperator(qmat.system(("C", 2)), np.diag([q0, q1]).astype(complex)),
        eps1=0.52, eps2=0.25, gamma=0.25, name="classical-side-info",
    )

    # decoding prior deviates from the true C distribution: k strictly positive,
    # k = log2(0.7 / 0.6) exactly
    r0, r1 = 0.7, 0.3
    s0, s1 = 0.6, 0.4
    psi3 = np.zeros(16, dtype=complex)
    for i, ri in enumerate((r0, r1)):
        psi3[_idx4(0, i, 0, i)] += math.sqrt(ri) * math.cos(th2)
        psi3[_idx4(1, i, 1, i)] += math.sqrt(ri) * math.sin(th2)
    out["mismatched-prior"] = QsrInstance(
        psi=StateVector(qmat.qubits("R", "A", "B", "C"), psi3),
        sigma_c=DensityOperator(qmat.system(("C", 2)), np.diag([s0, s1]).astype(complex)),
        eps1=0.55, eps2=0.25, gamma=0.25, name="mismatched-prior",
    )
    return out


def _idx4(r: int, a: int, b: int, c: int) -> int:
    return ((r * 2 + a) * 2 + b) * 2 + c


# ---------------------------------------------------------------------------
# sequential block decoder

def _weight(amps: np.ndarray) -> float:
    """Squared norm of an amplitude array as a numpy sum: unlike ``np.vdot``, which
    OpenBLAS splits across threads on long vectors, its rounding does not depend on the
    BLAS thread count."""
    x = amps.reshape(-1).view(np.float64)
    return float(np.square(x).sum())


def _decode(
    branches, test_bc: np.ndarray, psi: StateVector, b: int
) -> tuple[dict[int, float], float, float]:
    """Bob's sequential while-loop decoder: the free test {Pi, id - Pi} on (B, C), given by
    Pi's diagonal ``test_bc``, for each slot C of a branch in turn, until it fires.

    ``branches`` yields subnormalized (amplitudes, system, slots), ``slots`` the b slot
    labels Bob tests, in order.  Branches follow the projective realization of the
    test on a pointer (tracing the pointer leaves the square-root measurement
    operators used here).  Returns the outcome probabilities (k = 1..b for the test
    first firing on the k-th slot, b + 1 for no firing, which keeps the first slot),
    the fidelity with psi on (R, A, B, the slot kept) and the purified distance.
    """
    d_b, d_c = psi.system.dims[2:]
    diag = test_bc.reshape(d_b, d_c)
    sqrt_yes = np.sqrt(np.clip(diag, 0.0, None))
    sqrt_no = np.sqrt(np.clip(1.0 - diag, 0.0, None))

    def outcomes(amps, sys_, slots):
        # each root of the diagonal test is one broadcast product over (B, slot), taken
        # out of place: branches may share their amplitudes
        amps = amps.reshape(sys_.dims)
        b_axis = sys_.axis("B")
        for k, slot in enumerate(slots, 1):
            axis = sys_.axis(slot)
            shape = [1] * amps.ndim
            shape[b_axis], shape[axis] = d_b, d_c
            yes, no = ((w if b_axis < axis else w.T).reshape(shape) for w in (sqrt_yes, sqrt_no))
            yield k, slot, amps * yes
            amps = amps * no
        yield b + 1, slots[0], amps

    psi_conj = psi.tensorized().conj()
    probs = {k: 0.0 for k in range(1, b + 2)}
    fid2 = 0.0
    for amps, sys_, slots in branches:
        for k, slot, out in outcomes(amps, sys_, slots):
            w = _weight(out)
            probs[k] += w
            if w > 1e-18:
                axes = [sys_.axis(lab) for lab in ("R", "A", "B", slot)]
                overlap = np.tensordot(psi_conj, out, (range(4), axes))
                fid2 += float(np.sum(np.abs(overlap) ** 2))
    f = math.sqrt(min(max(fid2, 0.0), 1.0))
    return probs, f, math.sqrt(max(0.0, 1.0 - f * f))


def _branch_vectors(
    instance: QsrInstance, b: int, budget: int
) -> list[tuple[np.ndarray, RegisterSystem, list[str]]]:
    """Pure branches of the block mixture (1/b) sum_j Phi_{RABC_j} x sigma on the
    other slots, one per slot holding Phi, as ``_decode`` takes them.  All share the
    amplitudes and registers of Phi_{RABC_1} x sigma on slots 2..b; branch j puts Phi
    in the j-th slot Bob tests by exchanging C1 and Cj in his slot order."""
    sigma_pure = purify(instance.sigma_c, purifier_label="L")
    _check_budget(instance.psi.system.dim, sigma_pure.system.dim, b - 1, budget,
                  "decoder branch")
    amps, sys_ = _with_sigma_copies(
        instance.psi.amplitudes, qmat.relabel_system(instance.psi.system, {"C": "C1"}).registers,
        sigma_pure, range(2, b + 1))
    amps /= math.sqrt(b)
    branches = []
    for j in range(b):
        slots = [f"C{i}" for i in range(1, b + 1)]
        slots[0], slots[j] = slots[j], slots[0]
        branches.append((amps, sys_, slots))
    return branches


def qsr_decoder_p1(
    instance: QsrInstance,
    b: int,
    params: QsrParameters,
    budget: int = MAX_AMPLITUDES,
) -> ProtocolTranscript:
    """Bob's sequential decoder (``_decode``, the one ``qsr_full`` runs) on the block
    mixture of b slots, one of which holds the payload.

    Measures {Pi, id - Pi} on (B, C_k) for k = 1, 2, ... until the test
    fires and keeps C_k; a run with no firing is recorded as outcome b + 1 and
    counts toward the infidelity.  Pi is diagonal, so it is given by its d_BC
    weights ``params.test_bc``, each in [0, 1] (a NaN fails).  When
    ``params.d_f`` is finite the distance is checked against the claim bound
    and, for b 2^(-d_f) <= gamma^4, against eps2 + gamma of the instance.
    The transcript's details hold b, the purified distance and, for finite d_f,
    the claim bound; its one step holds the outcome probabilities, keyed by str(k).
    """
    w, d_f = params.test_bc, params.d_f
    eps2, gamma = instance.eps2, instance.gamma
    if b < 1:
        raise ValueError(f"block size must be positive, got {b}")
    d_bc = instance.psi.system.dim_of(["B"]) * instance.sigma_c.system.dim
    if w.shape != (d_bc,):
        raise DimensionMismatch(f"test weights shape {w.shape}, expected {(d_bc,)}")
    if not (-1e-9 <= w.min() and w.max() <= 1.0 + 1e-9):
        raise InvalidState("test weights not in [0, 1]")

    outcome_probs, f, p_dist = _decode(_branch_vectors(instance, b, budget), w, instance.psi, b)
    t = ProtocolTranscript()
    t.add(
        f"bob runs the sequential block decoder over {b} slots",
        outcome_probs={str(k): v for k, v in outcome_probs.items()},
    )
    t.achieved_fidelity = f
    t.details = {"b": b, "purified_distance": p_dist}
    if math.isfinite(d_f):
        chain = (b * 2.0 ** (-d_f) + eps2 ** 4) ** 0.25
        t.details["claim_bound"] = chain
        # eps2 + gamma goes first: where it applies, the claim bound lies below it
        if b * 2.0 ** (-d_f) <= gamma ** 4 + 1e-12:
            _check_bound("decoder distance against eps2 + gamma", p_dist, eps2 + gamma,
                         "<=", 1e-9)
        _check_bound("decoder distance against the claim bound", p_dist, chain, "<=", 1e-9)
    return t.finalize()


# ---------------------------------------------------------------------------
# the full one-shot redistribution protocol

def _split_transfer(
    psi: StateVector, sigma_pure: StateVector, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alice's Uhlmann transfer of xi = psi x |sigma>_{C_i L_i}^{xn} toward the
    convex-split purification mu, taken on the supports of xi and mu without forming
    either vector.  Returns (G, K, V): with F = G x s^{xn} (s sigma's purification as a
    C x L matrix), the transferred vector's J = j branch has amplitude matrix F V[j]^T
    across (R, B, C1..Cn) | (A, L), and its overlap with mu is the sum of K * V.

    Across (R, B, C1..Cn) | (A, C, L1..Ln), xi's amplitude matrix is X = X_psi x s^{xn},
    with X_psi psi's (R, B) | (A, C) matrix.  With W the right Schmidt vectors of X_psi,
    F = G x s^{xn}, G = X_psi W, has r = rank(psi) rank(sigma)^n orthogonal columns and
    X = F (W x 1)^dag, so only the polar step of K = Y^dag F matters (Y mu's amplitude
    matrix).  mu's slot-1 term psi_{RABC_1}|0>_{L_1} x sigma on slots 2..n gives K's
    J = 1 block M x (s^dag s)^{x(n-1)}, M[(a, l'), (k, l)] = delta_{l'0} sum_{r,b,c}
    conj(psi[r,a,b,c]) G[(r,b),k] s[c,l]; the J = j block is that block with L_1 and
    L_j exchanged on its rows and its columns, and the blocks stack along J over
    sqrt(n).  For the canonical purification s^dag s = diag(lam_sigma), so each further
    slot only scales M's entries by one lam on its (row, column) diagonal.

    Every term of mu carries |0> on L_j in its J = j block, so K vanishes on the other
    rows.  K and V keep the rows (J = j, A, L_{-j}), n d_A d_L^(n-1) of them, whenever
    they are at least r: V = K (K^dag K)^(-1/2) is then zero on the rows dropped.  A
    smaller support cannot hold r orthonormal columns, so then every row
    (J, A, L1..Ln) is kept.  K and V come shaped (n, rows of one J block, r), the rows
    (A, L) with L the purifiers kept (L_j dropped, or none), in slot order; V is
    validated on its r columns.
    """
    _, d_a, _, d_c = psi.system.dims
    x_psi = vector_factor_matrix(psi.amplitudes, psi.system.dims, [0, 2])
    u, schmidt, _ = np.linalg.svd(x_psi, full_matrices=False)
    weights = schmidt ** 2
    rank = int(np.count_nonzero(weights > qmat.EIG_FLOOR))
    dropped = float(np.sum(weights[rank:]))
    if dropped > qmat.EIG_FLOOR:
        raise InvalidState(f"psi drops Schmidt weight {dropped} across RB|AC, above the floor "
                           f"{qmat.EIG_FLOOR}")
    g = u[:, :rank] * schmidt[:rank]
    s = sigma_pure.amplitudes.reshape(sigma_pure.system.dims)
    d_l = s.shape[1]

    r = rank * d_l ** n
    rest = d_l ** (n - 1)  # the purifiers of the other slots
    held = 1 if n * d_a * rest >= r else d_l  # kept values of L_j in the J = j block
    if n * d_a * held * rest < r:
        raise DimensionMismatch(
            f"at n={n} slots the split purification's side {n * d_a * held * rest} is "
            f"smaller than the {r}-dimensional support it must receive; raise the slot count"
        )
    # M, with the 1/sqrt(n) of the J stack taken on psi
    m = np.zeros((d_a, held, rank, d_l), dtype=complex)
    psi_g = (x_psi / math.sqrt(n)).conj().T @ g  # (A, C) x rank
    m[:, 0] = psi_g.reshape(d_a, d_c, rank).transpose(0, 2, 1) @ s
    # K's J = 1 block: M's entries times lam once per further slot, on the diagonal of
    # that slot's (row, column) pair
    lam = np.diagonal(s.conj().T @ s)
    scaled = m.reshape(d_a * held, rank * d_l)
    for _ in range(n - 1):
        scaled = scaled[..., None] * lam
    k1 = np.zeros((d_a * held, rest, rank * d_l, rest), dtype=complex)
    diag = np.arange(rest)
    k1[:, diag, :, diag] = scaled.reshape(d_a * held, rank * d_l, rest).transpose(2, 0, 1)
    # axes (A, L1..Ln | rank, L1..Ln); slot j's L axes sit at j and n + 1 + j
    k = np.empty((n, d_a * held * rest, r), dtype=complex)
    for block, term in zip(k, _slot_swaps(
            k1.reshape((d_a, held) + (d_l,) * (n - 1) + (rank, d_l) + (d_l,) * (n - 1)),
            [(i, n + 1 + i) for i in range(1, n + 1)])):
        block.reshape(term.shape)[...] = term
    out_sys = RegisterSystem((("J", n), ("A", d_a), ("L", held * rest)))
    v = Isometry(qmat.system(("S", r)), out_sys, _polar_isometry(k.reshape(-1, r))).matrix
    return g, k, v.reshape(k.shape)


def qsr_full(instance: QsrInstance, budget: int = MAX_AMPLITUDES) -> ProtocolTranscript:
    """Run the cobit-assisted redistribution protocol end to end.

    Alice and Bob share n purified copies of sigma_c; Alice applies the
    transfer isometry onto the convex-split purification, measures the slot
    register (modeled as a classical mixture over outcomes) and announces the
    block index g with ceil(log2(n/b)) cobits.  Bob runs the sequential decoder
    (``_decode``, the one ``qsr_decoder_p1`` runs) on the slots C_{gb+1}..C_{gb+b},
    each falling back to C_i past n, so a short last block is filled from the
    first.  The final state on (R, A, B, the slot Bob keeps) is compared against
    the input; with un-overridden parameters the purified distance must respect
    3 eps1 + eps2 + gamma.

    The transfer is the Uhlmann polar step taken on the support of
    psi x |sigma>^{xn} on Alice's registers and on the support of mu on the
    target side (``_split_transfer``), so the target side needs room for xi's
    support only: n = 1 runs whenever it fits, and a slot count too small for
    it raises ``DimensionMismatch``.  The convex-split purification mu is never
    formed: the polar step's cross-overlap K is built on mu's support, the rows
    (J = j, A, L_{-j}) that carry |0> on L_j, from its one-slot factor and the
    diagonal gram of sigma's purification; the transfer overlap is the sum of
    K * V.  Slot branch j of the transferred vector, (G x s^{xn}) V[j]^T, is
    formed only when the decoder reaches it, without forming G x s^{xn}, over
    (R, B, C1..Cn, A, L_{-j}).  When mu's support is smaller than xi's, every
    row (J, A, L1..Ln) is kept instead.  The budget counts the transferred
    vector on every row, n d_R d_A d_B (d_C d_L)^n; on mu's support the decoder
    reads 1/d_L of it.  For a psi of full Schmidt rank across RB|AC the polar
    step's cross-overlap is rank-deficient, so only the transfer overlap is
    fixed: the purified distance depends on the isometry's arbitrary
    completion.
    """
    params = qsr_parameters(instance)
    psi = instance.psi
    n, b = params.n, params.b
    d_r, d_a, d_b, d_c = psi.system.dims
    sigma_pure = purify(instance.sigma_c, purifier_label="L")
    d_l = sigma_pure.system.dims[-1]
    _check_budget(n * d_r * d_a * d_b, d_l * d_c, n, budget, f"redistribution run at n={n}")

    t = ProtocolTranscript()
    t.add(
        "parameters fixed from the instance",
        k=params.k, delta=params.delta, n=n, d_f=params.d_f, b=b,
        b_unclamped=params.b_unclamped, cobits=params.cobits,
        clamped=(params.b_unclamped != b and instance.b_override is None),
    )

    t.add(f"alice and bob share {n} purified copies of sigma_c",
          resources={"singlets_consumed": n})

    g, k, v = _split_transfer(psi, sigma_pure, n)
    overlap = float(abs(np.sum(k * v)))
    t.add("alice applies the transfer isometry toward the split purification",
          overlap=overlap)
    if instance.n_override is None:
        _check_bound("transfer overlap^2 against the split guarantee", overlap ** 2,
                     1.0 - params.delta, ">=", 1e-9)

    # Alice measures the slot register; branch j, F V[j]^T, is formed only when the
    # decoder reaches it and stays subnormalized.  F = F1 x F2 with F1 = G x s^{xh} and
    # F2 = s^{x(n-h)}, so the branch is F1 (V[j] F2^T) with F never formed; its axes are
    # (R, B, C1..Ch | A, L | C_{h+1}..Cn), L the purifiers V keeps.  G's d_R d_B rows
    # weigh about one slot, so F1 takes one copy of s fewer than F2
    h = (n - 1) // 2
    s = sigma_pure.amplitudes.reshape(d_c, d_l)
    f1, f2 = g, s
    for _ in range(h):
        f1 = _kron_matrices(f1, s)
    for _ in range(n - h - 1):
        f2 = _kron_matrices(f2, s)
    rows = v.shape[1]
    slots = range(1, n + 1)
    branch_sys = RegisterSystem(
        (("R", d_r), ("B", d_b)) + tuple((f"C{i}", d_c) for i in slots[:h])
        + (("A", d_a), ("L", rows // d_a)) + tuple((f"C{i}", d_c) for i in slots[h:]))
    slot_probs: list[float] = []

    def slot_branches():
        for j in slots:
            inner = (v[j - 1].reshape(-1, f2.shape[1]) @ f2.T).reshape(rows, f1.shape[1], -1)
            amps = f1 @ inner.transpose(1, 0, 2).reshape(f1.shape[1], -1)
            slot_probs.append(_weight(amps))
            if slot_probs[-1] > 1e-18:
                first = (j - 1) // b * b
                yield amps, branch_sys, [f"C{first + i if first + i <= n else i}"
                                         for i in range(1, b + 1)]
        # the transferred vector must keep the unit norm of xi and mu
        norm = math.sqrt(sum(slot_probs))
        if abs(norm - 1.0) > qmat.NORM_TOL:
            raise InvalidState(f"transferred vector norm {norm} deviates from 1 beyond "
                               f"{qmat.NORM_TOL}")

    outcome_probs, fid, p_dist = _decode(slot_branches(), params.test_bc, psi, b)
    t.add(
        "alice measures the slot register and announces the block index",
        resources={"cobits_sent": params.cobits},
        slot_probs=slot_probs,
    )
    t.add(
        "bob swaps the announced block forward and decodes sequentially "
        "(slot swaps and the diagonal test are incoherent)",
        outcome_probs={str(k): v for k, v in outcome_probs.items()},
    )

    bound = 3.0 * instance.eps1 + instance.eps2 + instance.gamma
    t.achieved_fidelity = fid
    t.details = {
        "name": instance.name,
        "k": params.k, "n": n, "b": b, "d_f": params.d_f,
        "cobits": params.cobits,
        "overlap": overlap,
        "purified_distance": p_dist,
        "distance_bound": bound,
        "overridden": instance.n_override is not None or instance.b_override is not None,
    }
    if instance.n_override is None and instance.b_override is None:
        _check_bound("final purified distance", p_dist, bound, "<=", 1e-9)
    return t.finalize()


# ---------------------------------------------------------------------------
# auxiliary measured-bound checks

def sequential_projector_bound_check(
    rho: DensityOperator, projectors: Sequence[np.ndarray]
) -> tuple[float, float]:
    """Distance of rho damaged by negated projections vs the root-sum bound.

    Applies (id - Pi_k) ... (id - Pi_1) to rho, renormalizes, and compares
    the purified distance to (sum_i Tr(Pi_i rho))^{1/4}.  Returns the pair
    (lhs, rhs); a violation raises.
    """
    d = rho.system.dim
    ops = [np.asarray(p, dtype=complex) for p in projectors]
    for p in ops:
        if p.shape != (d, d):
            raise DimensionMismatch(f"projector shape {p.shape}, expected {(d, d)}")
        if np.max(np.abs(p - p.conj().T)) > 1e-8 or np.max(np.abs(p @ p - p)) > 1e-8:
            raise InvalidState("sequential bound needs orthogonal projectors")
    left = np.eye(d, dtype=complex)
    for p in ops:
        left = (np.eye(d) - p) @ left
    damaged = left @ rho.matrix @ left.conj().T
    tr = float(np.trace(damaged).real)
    if tr <= 1e-12:
        raise InvalidState("sequential projections annihilate the state")
    out = DensityOperator(rho.system, damaged / tr)
    lhs = purified_distance(out, rho)
    rhs = float(sum(np.trace(p @ rho.matrix).real for p in ops)) ** 0.25
    _check_bound("sequential projector distance", lhs, rhs, "<=", 1e-9)
    return lhs, rhs


def close_states_measurement_check(
    rho: DensityOperator, sigma: DensityOperator, op: np.ndarray
) -> tuple[float, float]:
    """A test passing rho almost surely still passes a nearby sigma.

    With eps the purified distance and delta^2 = 1 - Tr(op rho), checks
    Tr(op sigma) >= 1 - (2 eps + delta)^2.  Returns (lhs, bound).
    """
    eps = purified_distance(rho, sigma)
    tr_rho = float(np.trace(op @ rho.matrix).real)
    delta = math.sqrt(max(0.0, 1.0 - tr_rho))
    lhs = float(np.trace(op @ sigma.matrix).real)
    bound = 1.0 - (2.0 * eps + delta) ** 2
    _check_bound("measurement transfer to a close state", lhs, bound, ">=", 1e-9)
    return lhs, bound
