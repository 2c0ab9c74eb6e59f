"""Entropic quantities, all in bits (log base 2).

Relative-entropy-type quantities return an :class:`EntropicValue` whose
``finite`` flag encodes the support-violation infinity.  The
hypothesis-testing quantity routes commuting pairs through an exact
classical Neyman-Pearson solver and non-commuting pairs through a
bisection over the threshold-test family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.special

from .coherence import dephase
from .qmat import (
    EIG_FLOOR,
    DensityOperator,
    DimensionMismatch,
    InvalidState,
    partial_trace,
    trace_norm,
)

# rho-mass on the kernel of sigma above this threshold flags an infinity
SUPPORT_TOL = 1e-10
# commutator trace norms at or below this route to the classical solver
COMMUTE_TOL = 1e-9


@dataclass(frozen=True)
class EntropicValue:
    """A scalar in bits; ``finite=False`` encodes +infinity."""

    value: float
    finite: bool = True

    @classmethod
    def infinite(cls) -> "EntropicValue":
        return cls(math.inf, finite=False)

    def __float__(self) -> float:
        return self.value if self.finite else math.inf


def entropy_of_probs(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > EIG_FLOOR]
    return float(-np.sum(p * np.log2(p)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -Tr rho log2 rho, eigenvalues below the floor dropped."""
    return entropy_of_probs(np.linalg.eigvalsh(rho.matrix))


def _spectral_weights(vecs: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Diagonal of V^dag M V as Re(conj(M V) * V), summed in the buffer of M V: no extra
    d x d temporary, and cheap at the small d of the hypothesis-test bisection."""
    mv = mat @ vecs
    np.conjugate(mv, out=mv)
    mv *= vecs
    return mv.real.sum(axis=0)


def _require_same_registers(rho: DensityOperator, sigma: DensityOperator, what: str) -> None:
    if rho.system.registers != sigma.system.registers:
        raise DimensionMismatch(
            f"{what} needs identical register systems, got {list(rho.system.registers)} "
            f"and {list(sigma.system.registers)}"
        )


def _kernel_mass(rho_mat: np.ndarray, sigma_evals: np.ndarray, sigma_vecs: np.ndarray) -> float:
    """Largest eigenvalue of rho compressed onto the kernel of sigma."""
    kernel = sigma_vecs[:, sigma_evals <= EIG_FLOOR]
    if kernel.shape[1] == 0:
        return 0.0
    comp = kernel.conj().T @ rho_mat @ kernel
    return float(np.linalg.eigvalsh(comp)[-1])


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> EntropicValue:
    """D(rho||sigma) = Tr rho (log2 rho - log2 sigma).

    Infinite when rho has mass above the support threshold outside the
    support of sigma; sub-threshold kernel mass is treated as zero.
    """
    _require_same_registers(rho, sigma, "relative entropy")
    evs, vecs_s = np.linalg.eigh(sigma.matrix)
    if _kernel_mass(rho.matrix, evs, vecs_s) > SUPPORT_TOL:
        return EntropicValue.infinite()
    evr = np.linalg.eigvalsh(rho.matrix)
    tr_rho_log_rho = float(np.sum(evr[evr > EIG_FLOOR] * np.log2(evr[evr > EIG_FLOOR])))
    weights = _spectral_weights(vecs_s, rho.matrix)
    mask = evs > EIG_FLOOR
    tr_rho_log_sigma = float(np.sum(weights[mask] * np.log2(evs[mask])))
    return EntropicValue(tr_rho_log_rho - tr_rho_log_sigma)


def max_relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> EntropicValue:
    """D_max = log2 of the largest eigenvalue of sigma^{-1/2} rho sigma^{-1/2}."""
    _require_same_registers(rho, sigma, "max-relative entropy")
    evs, vecs = np.linalg.eigh(sigma.matrix)
    if _kernel_mass(rho.matrix, evs, vecs) > SUPPORT_TOL:
        return EntropicValue.infinite()
    inv_half = np.where(evs > EIG_FLOOR, 1.0 / np.sqrt(np.clip(evs, EIG_FLOOR, None)), 0.0)
    isq = (vecs * inv_half) @ vecs.conj().T
    lam = float(np.linalg.eigvalsh(isq @ rho.matrix @ isq)[-1])
    return EntropicValue(float(np.log2(max(lam, EIG_FLOOR))))


def smoothed_max_relative_entropy_upper_bound(
    rho: DensityOperator, sigma: DensityOperator, eps: float
) -> EntropicValue:
    """Heuristic upper bound on the eps-smoothed max-relative entropy.

    Prunes the smallest eigenvalues of rho (total mass at most eps^2, so
    the pruned state stays within purified distance eps), renormalizes and
    reports the best candidate.  This is an upper bound on the true
    smoothed infimum, not the optimum.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    best = max_relative_entropy(rho, sigma)
    evals, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(evals)
    budget = eps * eps
    pruned = 0.0
    drop: list[int] = []
    for idx in order:
        if evals[idx] <= 0:
            drop.append(idx)
            continue
        if pruned + evals[idx] > budget:
            break
        pruned += evals[idx]
        drop.append(idx)
        keep = np.ones(len(evals), dtype=bool)
        keep[drop] = False
        lam = np.where(keep, np.clip(evals, 0.0, None), 0.0)
        total = lam.sum()
        if total <= EIG_FLOOR:
            continue
        cand_mat = (vecs * (lam / total)) @ vecs.conj().T
        cand = DensityOperator(rho.system, cand_mat)
        val = max_relative_entropy(cand, sigma)
        if val.finite and (not best.finite or val.value < best.value):
            best = val
    return best


# ---------------------------------------------------------------------------
# hypothesis testing


def _joint_eigensystem(rho_mat: np.ndarray, sigma_mat: np.ndarray):
    """Probabilities and joint eigenbasis for a commuting Hermitian pair."""
    d = rho_mat.shape[0]
    off_r = np.max(np.abs(rho_mat - np.diag(np.diagonal(rho_mat))))
    off_s = np.max(np.abs(sigma_mat - np.diag(np.diagonal(sigma_mat))))
    if off_r <= 1e-12 and off_s <= 1e-12:
        # both diagonal: keep the computational basis so tests stay diagonal
        return np.diagonal(rho_mat).real.copy(), np.diagonal(sigma_mat).real.copy(), np.eye(d, dtype=complex)
    evs, vecs = np.linalg.eigh(sigma_mat)
    p = np.empty(d)
    q = np.empty(d)
    joint = np.empty((d, d), dtype=complex)
    i = 0
    while i < d:
        j = i + 1
        while j < d and evs[j] - evs[j - 1] <= 1e-10:
            j += 1
        block = vecs[:, i:j]
        comp = block.conj().T @ rho_mat @ block
        ev_r, vec_r = np.linalg.eigh((comp + comp.conj().T) / 2)
        cols = block @ vec_r
        p[i:j] = ev_r
        q[i:j] = _spectral_weights(cols, sigma_mat)
        joint[:, i:j] = cols
        i = j
    return p, q, joint


def _classical_np_test(p: np.ndarray, q: np.ndarray, eps: float):
    """Exact classical Neyman-Pearson test at type-I budget eps.

    Sorts outcomes by likelihood ratio and fills greedily, putting a
    fractional weight on the boundary outcome so the captured rho-mass hits
    1 - eps exactly.  Returns (beta, weights).
    """
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    q = np.clip(np.asarray(q, dtype=float), 0.0, None)
    target = 1.0 - eps
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > EIG_FLOOR, p / np.clip(q, EIG_FLOOR, None),
                         np.where(p > EIG_FLOOR, np.inf, 0.0))
    order = np.argsort(-ratio, kind="stable")
    weights = np.zeros(len(p))
    captured = 0.0
    for idx in order:
        if captured >= target - 1e-15:
            break
        room = target - captured
        if p[idx] <= room + 1e-15:
            weights[idx] = 1.0
            captured += p[idx]
        else:
            weights[idx] = room / p[idx]
            captured = target
    beta = float(np.sum(weights * q))
    return beta, weights


def _threshold_test(rho_mat: np.ndarray, sigma_mat: np.ndarray, eps: float):
    """Quantum Neyman-Pearson optimum via bisection over mu.

    The optimal test is the projector onto the positive part of
    rho - mu sigma plus a fractional weight on its zero eigenspace, with mu
    at the jump of the captured rho-mass across 1 - eps.  Returns
    (beta or None for an infinity, test operator).
    """
    d = rho_mat.shape[0]
    target = 1.0 - eps

    evs_s, vecs_s = np.linalg.eigh(sigma_mat)
    kernel = vecs_s[:, evs_s <= EIG_FLOOR]
    if kernel.shape[1]:
        comp = kernel.conj().T @ rho_mat @ kernel
        ev_k, vec_k = np.linalg.eigh(comp)
        if float(np.sum(np.clip(ev_k, 0.0, None))) >= target - 1e-12:
            # enough rho-mass lives outside supp(sigma): beta = 0
            beta_vecs = kernel @ vec_k
            _, w = _classical_np_test(np.clip(ev_k, 0.0, None), np.zeros(len(ev_k)), eps)
            pi = (beta_vecs * w) @ beta_vecs.conj().T
            return None, pi

    def decompose(mu: float):
        evals, vecs = np.linalg.eigh(rho_mat - mu * sigma_mat)
        pw = _spectral_weights(vecs, rho_mat)
        return evals, vecs, pw

    def captured(mu: float) -> float:
        evals, _, pw = decompose(mu)
        return float(np.sum(pw[evals > 0]))

    lo, hi = 0.0, 1.0
    while captured(hi) >= target:
        hi *= 2.0
        if hi > 2.0 ** 200:
            raise InvalidState("threshold bisection failed to bracket the optimum")
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if captured(mid) >= target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break

    evals, vecs, pw = decompose(lo)
    scale = float(np.max(np.abs(evals))) if d else 1.0
    btol = max(1e-11, 4.0 * (hi - lo) * max(1.0, float(np.linalg.norm(sigma_mat, 2))))
    for _ in range(40):
        pos = evals > btol
        bnd = np.abs(evals) <= btol
        cap_pos = float(np.sum(pw[pos]))
        cap_bnd = float(np.sum(pw[bnd]))
        if cap_pos <= target + 1e-9 and cap_pos + cap_bnd >= target - 1e-9:
            break
        btol *= 10.0
        if btol > max(1.0, scale):
            break
    w = 0.0 if cap_bnd <= 1e-15 else min(max((target - cap_pos) / cap_bnd, 0.0), 1.0)
    qw = _spectral_weights(vecs, sigma_mat)
    beta = float(np.sum(qw[pos]) + w * np.sum(qw[bnd]))
    pi = (vecs[:, pos] @ vecs[:, pos].conj().T) + w * (vecs[:, bnd] @ vecs[:, bnd].conj().T)
    return beta, pi


def optimal_hypothesis_test(
    rho: DensityOperator, sigma: DensityOperator, eps: float
) -> tuple[EntropicValue, np.ndarray]:
    """D_H^eps together with a test operator achieving it.

    The returned Pi satisfies 0 <= Pi <= id and Tr(Pi rho) = 1 - eps up to
    numerical tolerance (or Tr(Pi rho) >= 1 - eps when rho is
    subnormalized and the target is unreachable).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    _require_same_registers(rho, sigma, "hypothesis testing")
    rm, sm = rho.matrix, sigma.matrix
    if trace_norm(rm @ sm - sm @ rm) <= COMMUTE_TOL:
        p, q, joint = _joint_eigensystem(rm, sm)
        beta, weights = _classical_np_test(p, q, eps)
        pi = (joint * weights) @ joint.conj().T
        if beta <= 1e-300:
            return EntropicValue.infinite(), pi
        return EntropicValue(float(-np.log2(beta))), pi
    beta, pi = _threshold_test(rm, sm, eps)
    if beta is None or beta <= 1e-300:
        return EntropicValue.infinite(), pi
    return EntropicValue(float(-np.log2(beta))), pi


def hypothesis_testing_relative_entropy(
    rho: DensityOperator, sigma: DensityOperator, eps: float
) -> EntropicValue:
    """D_H^eps(rho||sigma) = -log2 min Tr(Pi sigma) over tests passing rho with prob >= 1-eps."""
    return optimal_hypothesis_test(rho, sigma, eps)[0]


def restricted_hypothesis_test(
    rho: DensityOperator,
    sigma: DensityOperator,
    eps: float,
) -> tuple[EntropicValue, np.ndarray]:
    """Hypothesis testing restricted to free (diagonal) test operators.

    Because dephasing is self-adjoint and surjective onto the free
    measurement operators, the restricted quantity equals the unrestricted
    one between the dephased states; the optimal test is then diagonal.
    When Tr(rho) < 1 - eps the constraint is unsatisfiable and the test is
    the identity.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    _require_same_registers(rho, sigma, "restricted hypothesis testing")
    rho_d = dephase(rho)
    sigma_d = dephase(sigma)
    d = rho.system.dim
    if rho.trace() < 1.0 - eps:
        tr_sigma = sigma_d.trace()
        value = (EntropicValue.infinite() if tr_sigma <= 1e-300
                 else EntropicValue(float(-np.log2(tr_sigma))))
        return value, np.eye(d, dtype=complex)
    return optimal_hypothesis_test(rho_d, sigma_d, eps)


def restricted_hypothesis_testing(
    rho: DensityOperator,
    sigma: DensityOperator,
    eps: float,
) -> EntropicValue:
    return restricted_hypothesis_test(rho, sigma, eps)[0]


# ---------------------------------------------------------------------------
# derived quantities


def _normalize_parts(parts) -> list[list[str]]:
    out = []
    for part in parts:
        if isinstance(part, str):
            out.append([part])
        else:
            out.append(list(part))
    return out


def mutual_information(rho: DensityOperator, part_a, part_b) -> float:
    """I(A:B) = S(A) + S(B) - S(AB)."""
    (a, b) = _normalize_parts((part_a, part_b))
    ab = partial_trace(rho, a + b) if set(rho.system.labels) != set(a + b) else rho
    return (
        von_neumann_entropy(partial_trace(ab, a))
        + von_neumann_entropy(partial_trace(ab, b))
        - von_neumann_entropy(ab)
    )


def conditional_entropy(rho: DensityOperator, part_a, part_b) -> float:
    """S(A|B) = S(AB) - S(B)."""
    (a, b) = _normalize_parts((part_a, part_b))
    ab = partial_trace(rho, a + b) if set(rho.system.labels) != set(a + b) else rho
    return von_neumann_entropy(ab) - von_neumann_entropy(partial_trace(ab, b))


def conditional_mutual_information(rho: DensityOperator, part_a, part_b, part_c) -> float:
    """I(A:B|C) = S(AC) + S(BC) - S(ABC) - S(C).

    Cross-checked against I(A:BC) - I(A:C); strong subadditivity makes the
    result nonnegative, and both guards raise on numerical inconsistency.
    """
    (a, b, c) = _normalize_parts((part_a, part_b, part_c))
    abc = (partial_trace(rho, a + b + c)
           if set(rho.system.labels) != set(a + b + c) else rho)
    v1 = (
        von_neumann_entropy(partial_trace(abc, a + c))
        + von_neumann_entropy(partial_trace(abc, b + c))
        - von_neumann_entropy(abc)
        - von_neumann_entropy(partial_trace(abc, c))
    )
    v2 = mutual_information(abc, a, b + c) - mutual_information(partial_trace(abc, a + c), a, c)
    if abs(v1 - v2) > 1e-10:
        raise ArithmeticError(f"conditional mutual information routes disagree: {v1} vs {v2}")
    if v1 < -1e-9:
        raise ArithmeticError(f"conditional mutual information {v1} violates strong subadditivity")
    return v1


def relative_entropy_of_coherence(rho: DensityOperator) -> float:
    """R_c(rho) = S(dephase(rho)) - S(rho), the min over diagonal sigma of D(rho||sigma)."""
    return von_neumann_entropy(dephase(rho)) - von_neumann_entropy(rho)


def gaussian_quantile(eps: float) -> float:
    """Inverse of the standard normal CDF."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1), got {eps}")
    return float(scipy.special.ndtri(eps))


def relative_entropy_variance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """V(rho||sigma) = Tr rho (log2 rho - log2 sigma)^2 - D(rho||sigma)^2."""
    d = relative_entropy(rho, sigma)
    if not d.finite:
        raise InvalidState("relative entropy variance undefined on a support violation")
    evr, vr = np.linalg.eigh(rho.matrix)
    evs, vs = np.linalg.eigh(sigma.matrix)
    overlap = np.abs(vr.conj().T @ vs) ** 2
    second = 0.0
    for i, lam in enumerate(evr):
        if lam <= EIG_FLOOR:
            continue
        for j, nu in enumerate(evs):
            w = lam * overlap[i, j]
            if w <= 1e-16 or nu <= EIG_FLOOR:
                continue
            second += w * (np.log2(lam) - np.log2(nu)) ** 2
    return float(max(second - d.value ** 2, 0.0))


def second_order_rate(rho: DensityOperator, sigma: DensityOperator, n: int, eps: float) -> float:
    """Two-term expansion n D + sqrt(n V) * quantile(eps) for n-copy hypothesis testing."""
    if n < 1:
        raise ValueError(f"copy count must be positive, got {n}")
    d = relative_entropy(rho, sigma)
    if not d.finite:
        raise InvalidState("second-order expansion undefined on a support violation")
    v = relative_entropy_variance(rho, sigma)
    return float(n * d.value + math.sqrt(n * v) * gaussian_quantile(eps))
