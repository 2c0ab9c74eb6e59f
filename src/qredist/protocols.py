"""One-shot protocols: coherence creation, convex split, redistribution.

Protocol states are tracked as pure branch vectors whenever global purity
allows; density matrices appear only for marginals and for the explicit
convex-split mixture.  Runs that would materialize a vector above the
amplitude budget are refused rather than attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import qmat
from .coherence import (
    NotFreeOperation,
    dephase,
    is_diagonal,
    is_free_state,
    is_incoherent_channel,
)
from .entropy import (
    EntropicValue,
    max_relative_entropy,
    relative_entropy_of_coherence,
    restricted_hypothesis_test,
)
from .qmat import (
    DensityOperator,
    DimensionMismatch,
    InvalidState,
    Isometry,
    KrausChannel,
    RegisterError,
    RegisterSystem,
    StateVector,
    apply_subsystem_matrix,
    fidelity,
    fidelity_matrices,
    partial_trace,
    permute_vector_axes,
    psd_sqrt,
    purified_distance,
    purify,
    relabel_density,
    relabel_vector,
    tensor,
    tensor_vectors,
    vector_marginal,
)

# largest state vector a protocol run may materialize (complex amplitudes)
MAX_AMPLITUDES = 2 ** 13
# explicit density matrices are kept much smaller than the vector budget
MAX_DENSITY_DIM = 2 ** 11


class BudgetExceeded(RuntimeError):
    """A run would materialize a state above the amplitude budget."""


class BoundViolation(RuntimeError):
    """A measured quantity violates a proven bound; indicates a genuine bug."""


@dataclass
class TranscriptStep:
    description: str
    resources: dict[str, float] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)


@dataclass
class ProtocolTranscript:
    """Ordered step log with aggregate resource counters."""

    steps: list[TranscriptStep] = field(default_factory=list)
    qubits_sent: int = 0
    cobits_sent: int = 0
    singlets_consumed: int = 0
    coherent_qubits_out: int = 0
    achieved_fidelity: float = 1.0
    details: dict[str, Any] = field(default_factory=dict)

    def add(self, description: str, **kwargs: Any) -> TranscriptStep:
        resources = kwargs.pop("resources", {})
        step = TranscriptStep(description, dict(resources), dict(kwargs))
        self.steps.append(step)
        return step

    def finalize(self) -> "ProtocolTranscript":
        for name in ("qubits_sent", "cobits_sent", "singlets_consumed", "coherent_qubits_out"):
            if getattr(self, name) < 0:
                raise InvalidState(f"negative resource counter {name}")
        if not -1e-9 <= self.achieved_fidelity <= 1.0 + 1e-9:
            raise InvalidState(f"achieved fidelity {self.achieved_fidelity} outside [0, 1]")
        self.achieved_fidelity = float(min(max(self.achieved_fidelity, 0.0), 1.0))
        return self

    def to_json(self) -> dict[str, Any]:
        return {
            "steps": [
                {"description": s.description, "resources": s.resources, "data": _jsonable(s.data)}
                for s in self.steps
            ],
            "counters": {
                "qubits_sent": self.qubits_sent,
                "cobits_sent": self.cobits_sent,
                "singlets_consumed": self.singlets_consumed,
                "coherent_qubits_out": self.coherent_qubits_out,
            },
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


def _check_budget(dim: int, budget: int, what: str) -> None:
    if dim > budget:
        raise BudgetExceeded(
            f"{what} needs {dim} amplitudes, over the budget of {budget}"
        )


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
    per received qubit is audited against the factor-two bound.
    """
    if q < 0 or e < 0:
        raise ValueError("resource counts must be nonnegative")
    m = min(e, q)
    c = q + m
    _check_budget(2 ** max(c, 1), budget, "coherence creation output")
    t = ProtocolTranscript()
    bob_amps = np.ones(1, dtype=complex)
    bob_regs: list[tuple[str, int]] = []
    rc_before_total = 0.0
    audit: list[dict[str, float]] = []

    def bob_rc() -> float:
        if not bob_regs:
            return 0.0
        sys_ = RegisterSystem(tuple(bob_regs))
        rho = DensityOperator(sys_, np.outer(bob_amps, bob_amps.conj()))
        return relative_entropy_of_coherence(rho)

    for i in range(m):
        pair = _HADAMARD @ _BELL.reshape(2, 2)  # Alice-side rotation on her half
        pair = pair.reshape(-1)
        if np.max(np.abs(pair - _ROTATED_PAIR)) > 1e-12:
            raise InvalidState("rotated singlet deviates from its closed form")
        t.add(f"alice rotates singlet {i + 1} with a Hadamard on her half")
        rc_before = bob_rc()
        # Bob's half was maximally mixed; after the send he holds the pure pair
        bob_amps = np.kron(bob_amps, pair)
        bob_regs += [(f"Q{2 * i + 1}", 2), (f"Q{2 * i + 2}", 2)]
        t.add(
            f"alice sends her half of singlet {i + 1}",
            resources={"qubits_sent": 1, "singlets_consumed": 1},
        )
        t.qubits_sent += 1
        t.singlets_consumed += 1
        rc_after = bob_rc()
        audit.append({"step": len(t.steps), "rc_gain": rc_after - rc_before})
        cz_channel = KrausChannel(
            qmat.qubits("a", "b"), qmat.qubits("a", "b"), (_CZ,)
        )
        ok, witness = is_incoherent_channel(cz_channel)
        if not ok:
            raise NotFreeOperation(f"controlled-Z failed the incoherence check: {witness}")
        sys_ = RegisterSystem(tuple(bob_regs))
        bob_amps, _ = apply_subsystem_matrix(
            bob_amps, sys_, _CZ, [f"Q{2 * i + 1}", f"Q{2 * i + 2}"]
        )
        t.add(
            f"bob applies a controlled-Z to pair {i + 1} (certified incoherent)",
            incoherent=True,
        )

    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    for i in range(q - m):
        rc_before = bob_rc()
        bob_amps = np.kron(bob_amps, plus)
        bob_regs.append((f"Q{2 * m + i + 1}", 2))
        t.add(
            f"alice sends a fresh |+> qubit ({i + 1} of {q - m})",
            resources={"qubits_sent": 1},
        )
        t.qubits_sent += 1
        rc_after = bob_rc()
        audit.append({"step": len(t.steps), "rc_gain": rc_after - rc_before})

    for entry in audit:
        if entry["rc_gain"] > 2.0 + 1e-8:
            raise BoundViolation(
                f"coherence gain {entry['rc_gain']} per received qubit exceeds 2"
            )

    if c == 0:
        t.achieved_fidelity = 1.0
    else:
        target = np.full(2 ** c, 1.0 / math.sqrt(2 ** c), dtype=complex)
        t.achieved_fidelity = float(abs(np.vdot(target, bob_amps)))
    t.coherent_qubits_out = c
    t.details = {"q": q, "e": e, "coherent_qubits_out": c, "rc_audit": audit}
    return t.finalize()


# ---------------------------------------------------------------------------
# convex split

def _copy_labels(q_labels: Sequence[str], j: int) -> dict[str, str]:
    return {lab: f"{lab}{j}" for lab in q_labels}


def convex_split_state(
    rho_pq: DensityOperator,
    sigma_q: DensityOperator,
    n: int,
    budget: int = MAX_DENSITY_DIM,
) -> DensityOperator:
    """(1/n) sum_j rho_{PQ_j} x sigma^{x(n-1) on the other slots}.

    Output registers are P followed by the slot copies Q1..Qn.  Terms are
    produced by permuting one precomputed product, one at a time.
    """
    if n < 1:
        raise ValueError(f"slot count must be positive, got {n}")
    q_labels = list(sigma_q.system.labels)
    for lab in q_labels:
        if lab not in rho_pq.system.labels:
            raise RegisterError(f"sigma register {lab!r} missing from the joint state")
        if rho_pq.system.registers[rho_pq.system.axis(lab)][1] != sigma_q.system.registers[sigma_q.system.axis(lab)][1]:
            raise DimensionMismatch(f"dimension mismatch on register {lab!r}")
    p_labels = [lab for lab in rho_pq.system.labels if lab not in q_labels]
    if not p_labels:
        raise RegisterError("the joint state must have at least one register outside sigma")

    total_dim = rho_pq.system.dim * sigma_q.system.dim ** (n - 1)
    _check_budget(total_dim, budget, f"convex split over {n} slots")

    # base term with the correlated slot in position 1
    base = relabel_density(rho_pq, _copy_labels(q_labels, 1))
    for j in range(2, n + 1):
        base = tensor(base, relabel_density(sigma_q, _copy_labels(q_labels, j)))
    order = p_labels + [f"{lab}{j}" for j in range(1, n + 1) for lab in q_labels]
    base = qmat.permute_registers(base, order)

    dims = base.system.dims
    nreg = len(dims)
    acc = np.array(base.matrix, dtype=complex)
    for j in range(2, n + 1):
        # swap slot 1 with slot j by permuting register axes of the base term
        perm = list(range(nreg))
        for t_idx, lab in enumerate(q_labels):
            a1 = base.system.axis(f"{lab}1")
            aj = base.system.axis(f"{lab}{j}")
            perm[a1], perm[aj] = perm[aj], perm[a1]
        tens = base.matrix.reshape(*dims, *dims)
        tens = np.transpose(tens, perm + [p + nreg for p in perm])
        acc += tens.reshape(base.system.dim, base.system.dim)
    return DensityOperator(base.system, acc / n)


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

    if k_cap < 0.0:
        raise ValueError(f"cap must be nonnegative, got {k_cap}")
    sys_pq = qmat.system(("P", dim_p), ("Q", dim_q))
    corr = random_density(sys_pq, rng)
    rho_p = partial_trace(corr, ["P"])
    sigma_q = partial_trace(corr, ["Q"])
    prod = tensor(rho_p, sigma_q)
    k0 = max_relative_entropy(corr, prod)
    if not k0.finite:
        raise InvalidState("drawn state is unsupported on its marginal product")
    if k0.value <= k_cap:
        return corr, sigma_q
    t = (2.0 ** k_cap - 1.0) / (2.0 ** k0.value - 1.0)
    mixed = DensityOperator(sys_pq, (1.0 - t) * prod.matrix + t * corr.matrix)
    return mixed, sigma_q


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
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if eps < 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    q_labels = list(sigma_q.system.labels)
    p_labels = [lab for lab in rho_pq.system.labels if lab not in q_labels]
    rho_p = partial_trace(rho_pq, p_labels)
    product = tensor(rho_p, sigma_q)
    # compare in rho_pq's register order; the usual (P, Q) order skips the extra validation
    if product.system.labels != rho_pq.system.labels:
        product = qmat.permute_registers(product, rho_pq.system.labels)
    kval = max_relative_entropy(rho_pq, product)
    if not kval.finite:
        raise InvalidState("joint state is unsupported on marginal x sigma")
    n = int(math.ceil(2.0 ** kval.value / delta - 1e-12))
    tau = convex_split_state(rho_pq, sigma_q, n, budget=budget)

    # sqrt of the product target assembled factor by factor
    sqrt_target = psd_sqrt(rho_p.matrix)
    sq_sigma = psd_sqrt(sigma_q.matrix)
    for _ in range(n):
        sqrt_target = np.kron(sqrt_target, sq_sigma)
    f = fidelity_matrices(tau.matrix, None, sqrt_sigma=sqrt_target)  # type: ignore[arg-type]
    f = min(max(f, 0.0), 1.0)
    f2 = f * f
    bound = 1.0 - (math.sqrt(delta) + 2.0 * eps) ** 2
    if f2 < bound - 1e-9:
        raise BoundViolation(f"convex split fidelity^2 {f2} below the bound {bound}")
    return ConvexSplitCheck(k=kval.value, n=n, fidelity_squared=f2, bound=bound)


# ---------------------------------------------------------------------------
# Uhlmann transfer isometry

def uhlmann_isometry(
    psi_ab: StateVector, psi_ac: StateVector, shared: Sequence[str] | None = None
) -> Isometry:
    """Isometry V on the non-shared part of psi_ac maximizing <psi_ab|(id x V)|psi_ac>.

    The achieved overlap equals the fidelity of the two marginals on the
    shared registers.  Built from a thin SVD of the cross-overlap matrix.
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

    def matricize(psi: StateVector, rest: list[str]) -> np.ndarray:
        amps, sys_ = permute_vector_axes(psi.amplitudes, psi.system, shared + rest)
        d_rest = sys_.dim_of(rest)
        return amps.reshape(-1, d_rest)

    y = matricize(psi_ab, rest_b)
    x = matricize(psi_ac, rest_c)
    db, dc = y.shape[1], x.shape[1]
    if dc > db:
        raise DimensionMismatch(
            f"target side dimension {db} is smaller than source side {dc}"
        )
    m = y.conj().T @ x
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    v = np.conj(u @ vh)
    return Isometry(
        psi_ac.system.subsystem(rest_c), psi_ab.system.subsystem(rest_b), v
    )


# ---------------------------------------------------------------------------
# redistribution instances and parameters

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
        if self.sigma_c.system.labels != ("C",):
            raise RegisterError("sigma_c must live on register C")
        if self.sigma_c.system.dim != self.psi.system.dim_of(["C"]):
            raise DimensionMismatch("sigma_c dimension does not match register C")
        if not is_free_state(self.sigma_c):
            raise NotFreeOperation("sigma_c must be diagonal")
        for nm in ("eps1", "eps2", "gamma"):
            val = getattr(self, nm)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{nm} must be in (0, 1), got {val}")
        rho_c = vector_marginal(self.psi, ["C"])
        diag_sigma = np.diagonal(self.sigma_c.matrix).real
        diag_rho = np.diagonal(rho_c.matrix).real
        if np.any((diag_sigma <= qmat.EIG_FLOOR) & (diag_rho > 1e-10)):
            raise InvalidState("rho_C has mass outside the support of sigma_c")


@dataclass(frozen=True)
class QsrParameters:
    k: float
    delta: float
    n: int
    d_f: float
    b: int
    b_unclamped: int
    cobits: int
    pi_bc: np.ndarray


def qsr_parameters(instance: QsrInstance) -> QsrParameters:
    """Slot count, block size and the optimal free test for an instance."""
    psi = instance.psi
    phi_rbc = vector_marginal(psi, ["R", "B", "C"])
    phi_rb = vector_marginal(psi, ["R", "B"])
    kval = max_relative_entropy(phi_rbc, tensor(phi_rb, instance.sigma_c))
    if not kval.finite:
        raise InvalidState("instance violates the support condition against sigma_c")
    delta = instance.eps1 ** 2
    n = (instance.n_override if instance.n_override is not None
         else int(math.ceil(2.0 ** kval.value / delta - 1e-12)))
    if n < 1:
        raise ValueError("slot count must be positive")

    phi_bc = vector_marginal(psi, ["B", "C"])
    phi_b = vector_marginal(psi, ["B"])
    d_f_val, pi = restricted_hypothesis_test(
        phi_bc, tensor(phi_b, instance.sigma_c), instance.eps2 ** 4
    )
    d_f = d_f_val.value if d_f_val.finite else math.inf
    if math.isinf(d_f):
        b_raw = n
    else:
        b_raw = int(math.ceil(instance.gamma ** 4 * 2.0 ** d_f - 1e-12))
    b = instance.b_override if instance.b_override is not None else max(1, min(b_raw, n))
    if not 1 <= b <= n:
        raise ValueError(f"block size {b} outside [1, {n}]")
    cobits = int(math.ceil(math.log2(n / b) - 1e-12)) if n > b else 0
    return QsrParameters(
        k=kval.value, delta=delta, n=n, d_f=d_f, b=b,
        b_unclamped=max(1, b_raw), cobits=cobits, pi_bc=pi,
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

@dataclass(frozen=True)
class BlockMixture:
    """(1/b) sum_j Phi_{RBAC_j} x sigma on the other slots, kept in branch form."""

    phi: StateVector          # registers R, A, B, C
    sigma_c: DensityOperator  # on register C


@dataclass
class DecoderResult:
    transcript: ProtocolTranscript
    outcome_probs: dict[int, float]
    post_state: DensityOperator      # marginal on R, A, B, C1
    fidelity: float
    purified_distance: float


def _branch_vectors(mixture: BlockMixture, b: int) -> list[tuple[np.ndarray, RegisterSystem]]:
    """Pure branches of the block mixture, one per slot holding Phi."""
    sigma_pure = purify(mixture.sigma_c, purifier_label="L")
    branches = []
    for j in range(1, b + 1):
        vec = relabel_vector(mixture.phi, {"C": f"C{j}"})
        for i in range(1, b + 1):
            if i == j:
                continue
            copy = relabel_vector(sigma_pure, {"C": f"C{i}", "L": f"L{i}"})
            vec = tensor_vectors(vec, copy)
        branches.append((vec.amplitudes / math.sqrt(b), vec.system))
    return branches


def _overlap_weight(
    amps: np.ndarray, sys_: RegisterSystem, target: StateVector, target_map: dict[str, str]
) -> float:
    """Squared norm of the partial inner product <target|branch> over target labels."""
    tgt = relabel_vector(target, target_map)
    axes = [sys_.axis(lab) for lab in tgt.system.labels]
    t = amps.reshape(sys_.dims)
    w = np.tensordot(tgt.tensorized().conj(), t, axes=(list(range(len(axes))), axes))
    return float(np.sum(np.abs(w) ** 2))


def _test_roots(pi_bc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measurement operators (sqrt(Pi), sqrt(id - Pi)) of a diagonal test."""
    diag = np.diagonal(pi_bc).real
    return (np.diag(np.sqrt(np.clip(diag, 0.0, None))).astype(complex),
            np.diag(np.sqrt(np.clip(1.0 - diag, 0.0, None))).astype(complex))


def _sequential_branches(
    amps: np.ndarray, sys_: RegisterSystem, roots: tuple[np.ndarray, np.ndarray], b: int
):
    """Bob's sequential test on (B, C_k), k = 1..b: yields (k, branch, system) for the
    test first firing on slot k, with C_k swapped into C1, then (b + 1, branch, system)
    for no firing.  Branches stay subnormalized; squared norms are the probabilities."""
    sqrt_yes, sqrt_no = roots
    for k in range(1, b + 1):
        fired, f_sys = apply_subsystem_matrix(amps, sys_, sqrt_yes, ["B", f"C{k}"])
        if k > 1:
            f_sys = qmat.relabel_system(f_sys, {f"C{k}": "C1", "C1": f"C{k}"})
        yield k, fired, f_sys
        amps, sys_ = apply_subsystem_matrix(amps, sys_, sqrt_no, ["B", f"C{k}"])
    yield b + 1, amps, sys_


def qsr_decoder_p1(
    mu_state: BlockMixture,
    b: int,
    pi_bc: np.ndarray,
    eps2: float | None = None,
    gamma: float | None = None,
    d_f: float | None = None,
    budget: int = MAX_AMPLITUDES,
) -> DecoderResult:
    """Bob's sequential while-loop decoder over b slots.

    Measures {Pi, id - Pi} on (B, C_k) for k = 1, 2, ... until the test
    fires, then swaps C_k with C_1; a run with no firing is recorded as
    outcome b + 1 and counts toward the infidelity.  Measurement branches
    follow the projective realization of the test on a pointer (tracing the
    pointer leaves the square-root measurement operators used here).  Pi
    must be a free (diagonal) test operator.
    """
    if b < 1:
        raise ValueError(f"block size must be positive, got {b}")
    if not is_diagonal(pi_bc):
        raise NotFreeOperation("decoder test operator must be diagonal")
    diag = np.diagonal(pi_bc).real
    if diag.min() < -1e-9 or diag.max() > 1.0 + 1e-9:
        raise InvalidState("test operator not between 0 and the identity")
    d_bc = mu_state.phi.system.dim_of(["B"]) * mu_state.sigma_c.system.dim
    if pi_bc.shape != (d_bc, d_bc):
        raise DimensionMismatch(f"test operator shape {pi_bc.shape}, expected {(d_bc, d_bc)}")

    roots = _test_roots(pi_bc)

    branches = _branch_vectors(mu_state, b)
    for amps, sys_ in branches:
        _check_budget(amps.shape[0], budget, "decoder branch")

    dim_c = mu_state.sigma_c.system.dim
    d_out = mu_state.phi.system.dim_of(["R", "A", "B"]) * dim_c
    outcome_probs: dict[int, float] = {k: 0.0 for k in range(1, b + 2)}
    fid2 = 0.0
    marginal = np.zeros((d_out, d_out), dtype=complex)

    for amps, start_sys in branches:
        for k, branch, sys_k in _sequential_branches(amps, start_sys, roots, b):
            w = float(np.vdot(branch, branch).real)
            outcome_probs[k] += w
            if w > 1e-18:
                fid2 += _overlap_weight(branch, sys_k, mu_state.phi, {"C": "C1"})
                keep = [sys_k.axis(lab) for lab in ("R", "A", "B", "C1")]
                marginal += qmat.vector_marginal_matrix(branch, sys_k.dims, keep)

    f = math.sqrt(min(max(fid2, 0.0), 1.0))
    p_dist = math.sqrt(max(0.0, 1.0 - f * f))

    t = ProtocolTranscript()
    t.add(
        f"bob runs the sequential block decoder over {b} slots",
        outcome_probs={str(k): v for k, v in outcome_probs.items()},
    )
    t.achieved_fidelity = f
    t.details = {"b": b, "purified_distance": p_dist}
    if d_f is not None and math.isfinite(d_f):
        chain = (b * 2.0 ** (-d_f) + (eps2 ** 4 if eps2 is not None else 0.0)) ** 0.25
        t.details["claim_bound"] = chain
        if p_dist > chain + 1e-9:
            raise BoundViolation(
                f"decoder distance {p_dist} violates the claim bound {chain}"
            )
        if (
            eps2 is not None and gamma is not None
            and b * 2.0 ** (-d_f) <= gamma ** 4 + 1e-12
        ):
            if p_dist > eps2 + gamma + 1e-9:
                raise BoundViolation(
                    f"decoder distance {p_dist} violates eps2 + gamma = {eps2 + gamma}"
                )
    out_sys = RegisterSystem(
        tuple(mu_state.phi.system.subsystem(["R", "A", "B"]).registers) + (("C1", dim_c),)
    )
    total = float(np.trace(marginal).real)
    post = DensityOperator(out_sys, marginal / total if total > 0 else marginal)
    return DecoderResult(
        transcript=t.finalize(),
        outcome_probs=outcome_probs,
        post_state=post,
        fidelity=f,
        purified_distance=p_dist,
    )


# ---------------------------------------------------------------------------
# the full one-shot redistribution protocol

def qsr_full(instance: QsrInstance, budget: int = MAX_AMPLITUDES) -> ProtocolTranscript:
    """Run the cobit-assisted redistribution protocol end to end.

    Alice and Bob share n purified copies of sigma_c; Alice applies the
    transfer isometry onto the convex-split purification, measures the slot
    register (modeled as a classical mixture over outcomes), announces the
    block index with ceil(log2(n/b)) cobits, and Bob locates the payload
    slot with the sequential decoder.  The final state on (R, A, B, C1) is
    compared against the input; with un-overridden parameters the purified
    distance must respect 3 eps1 + eps2 + gamma.
    """
    params = qsr_parameters(instance)
    psi = instance.psi
    n, b = params.n, params.b
    d_r, d_a, d_b, d_c = psi.system.dims
    sigma_pure = purify(instance.sigma_c, purifier_label="L")
    d_l = sigma_pure.system.dims[-1]

    dim_xi = d_r * d_a * d_b * d_c * (d_l * d_c) ** n
    dim_mu = n * d_r * d_a * d_b * (d_l * d_c) ** n
    _check_budget(max(dim_xi, dim_mu), budget, f"redistribution run at n={n}")

    t = ProtocolTranscript()
    t.add(
        "parameters fixed from the instance",
        k=params.k, delta=params.delta, n=n, d_f=params.d_f, b=b,
        b_unclamped=params.b_unclamped, cobits=params.cobits,
        clamped=(params.b_unclamped != b and instance.b_override is None),
    )

    # shared entangled copies |sigma>_{L_i C_i}
    xi = psi
    for i in range(1, n + 1):
        xi = tensor_vectors(xi, relabel_vector(sigma_pure, {"C": f"C{i}", "L": f"L{i}"}))
    t.add(f"alice and bob share {n} purified copies of sigma_c",
          resources={"singlets_consumed": n})
    t.singlets_consumed = n

    # target purification of the convex-split mixture
    mu_terms = []
    mu_order = (["J", "R", "A", "B"]
                + [f"L{i}" for i in range(1, n + 1)]
                + [f"C{i}" for i in range(1, n + 1)])
    j_basis = np.eye(n, dtype=complex)
    for j in range(1, n + 1):
        term = StateVector(qmat.system(("J", n)), j_basis[j - 1])
        term = tensor_vectors(term, relabel_vector(psi, {"C": f"C{j}"}))
        for i in range(1, n + 1):
            if i == j:
                zero = np.zeros(d_l, dtype=complex)
                zero[0] = 1.0
                term = tensor_vectors(term, StateVector(qmat.system((f"L{i}", d_l)), zero))
            else:
                term = tensor_vectors(
                    term, relabel_vector(sigma_pure, {"C": f"C{i}", "L": f"L{i}"})
                )
        mu_terms.append(qmat.permute_vector(term, mu_order))
    mu_amps = sum(term.amplitudes for term in mu_terms) / math.sqrt(n)
    mu = StateVector(mu_terms[0].system, mu_amps)

    shared = ["R", "B"] + [f"C{i}" for i in range(1, n + 1)]
    viso = uhlmann_isometry(mu, xi, shared=shared)
    xi2_amps, xi2_sys = apply_subsystem_matrix(
        xi.amplitudes, xi.system, viso.matrix,
        list(viso.in_system.labels), viso.out_system.registers,
    )
    xi2_amps, xi2_sys = permute_vector_axes(xi2_amps, xi2_sys, list(mu.system.labels))
    overlap = float(abs(np.vdot(mu.amplitudes, xi2_amps)))
    t.add("alice applies the transfer isometry toward the split purification",
          overlap=overlap)
    if overlap ** 2 < 1.0 - params.delta - 1e-9 and instance.n_override is None:
        raise BoundViolation(
            f"transfer overlap^2 {overlap ** 2} below the split guarantee {1 - params.delta}"
        )

    # Alice measures the slot register; branches stay subnormalized
    j_axis = xi2_sys.axis("J")
    tens = xi2_amps.reshape(xi2_sys.dims)
    branch_sys = xi2_sys.drop(["J"])
    slot_probs = []
    fid2 = 0.0
    outcome_totals: dict[int, float] = {}
    roots = _test_roots(params.pi_bc)
    for j in range(1, n + 1):
        amps = np.take(tens, j - 1, axis=j_axis).reshape(-1)
        pj = float(np.vdot(amps, amps).real)
        slot_probs.append(pj)
        if pj <= 1e-18:
            continue
        g = (j - 1) // b
        sys_j = branch_sys
        if g > 0:
            swap: dict[str, str] = {}
            for i in range(1, b + 1):
                src = g * b + i
                if src > n:
                    break
                swap[f"C{src}"] = f"C{i}"
                swap[f"C{i}"] = f"C{src}"
            sys_j = qmat.relabel_system(branch_sys, swap)
        # sequential decoding on the first b slots
        for k, branch, sys_k in _sequential_branches(amps, sys_j, roots, b):
            w = float(np.vdot(branch, branch).real)
            outcome_totals[k] = outcome_totals.get(k, 0.0) + w
            if w > 1e-18:
                fid2 += _overlap_weight(branch, sys_k, psi, {"C": "C1"})

    t.add(
        "alice measures the slot register and announces the block index",
        resources={"cobits_sent": params.cobits},
        slot_probs=slot_probs,
    )
    t.cobits_sent = params.cobits
    t.add(
        "bob swaps the announced block forward and decodes sequentially "
        "(slot swaps and the diagonal test are incoherent)",
        outcome_probs={str(k): v for k, v in sorted(outcome_totals.items())},
    )

    f = math.sqrt(min(max(fid2, 0.0), 1.0))
    p_dist = math.sqrt(max(0.0, 1.0 - f * f))
    bound = 3.0 * instance.eps1 + instance.eps2 + instance.gamma
    t.achieved_fidelity = f
    t.details = {
        "name": instance.name,
        "k": params.k, "n": n, "b": b, "d_f": params.d_f,
        "cobits": params.cobits,
        "overlap": overlap,
        "purified_distance": p_dist,
        "distance_bound": bound,
        "overridden": instance.n_override is not None or instance.b_override is not None,
    }
    if instance.n_override is None and instance.b_override is None and p_dist > bound + 1e-9:
        raise BoundViolation(
            f"final purified distance {p_dist} violates the bound {bound}"
        )
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
    if lhs > rhs + 1e-9:
        raise BoundViolation(f"sequential projector distance {lhs} above {rhs}")
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
    if lhs < bound - 1e-9:
        raise BoundViolation(f"measurement transfer {lhs} below the bound {bound}")
    return lhs, bound
