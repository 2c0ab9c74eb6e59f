"""Entropic quantities, all in bits (log base 2).

Relative-entropy-type quantities return an :class:`EntropicValue` whose
``finite`` flag encodes the support-violation infinity.  The
hypothesis-testing quantity routes commuting pairs through an exact
classical Neyman-Pearson solver and non-commuting pairs through a search
over the threshold-test family: a binary search over the breakpoints of the
pencil (rho, sigma), then an Illinois iteration between two of them.  Both
routes end in the same classical fill, in the joint eigenbasis or in the
eigenbasis of rho - mu sigma at the threshold mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import (
    EIG_FLOOR,
    DensityOperator,
    DimensionMismatch,
    InvalidState,
    RegisterError,
    _check_bound,
    partial_trace,
    trace_norm,
)

# rho-mass on the kernel of sigma above this threshold flags an infinity
SUPPORT_TOL = 1e-10
# commutator trace norms at or below this route to the classical solver
COMMUTE_TOL = 1e-9
# relative slack on the norm bounds that decide a commutation test without an SVD
_NORM_MARGIN = 1e-6


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
    return float(0.0 - np.sum(p * np.log2(p)))  # a point mass reads +0.0, not -0.0


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -Tr rho log2 rho, eigenvalues below the floor dropped."""
    return entropy_of_probs(np.linalg.eigvalsh(rho.matrix))


def _spectral_weights(vecs: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Diagonal of V^dag M V as Re(conj(M V) * V), summed in the buffer of M V: no extra
    d x d temporary, and cheap at the small d of the hypothesis-test threshold search."""
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
    evs, vecs = np.linalg.eigh(sigma.matrix)
    return _relative_entropy_spectral(np.linalg.eigvalsh(rho.matrix),
                                      _spectral_weights(vecs, rho.matrix),
                                      _kernel_mass(rho.matrix, evs, vecs), evs)


def _relative_entropy_factor(x: np.ndarray, y: np.ndarray, evs: np.ndarray) -> EntropicValue:
    """D(rho||sigma) for rho = X X^dag, without forming rho: Y = V^dag X for sigma's eigenvalues
    evs and eigenvector columns V.  rho's spectrum is X's squared singular values, its weights
    on sigma's eigenvectors are Y's squared row norms, and rho compressed onto sigma's kernel
    is Z Z^dag for Y's rows Z on that kernel."""
    weights = np.sum(y.real ** 2 + y.imag ** 2, axis=1)
    kernel = y[evs <= EIG_FLOOR]
    mass = float(np.linalg.svd(kernel, compute_uv=False)[0] ** 2) if len(kernel) else 0.0
    evr = np.linalg.svd(x, compute_uv=False) ** 2
    return _relative_entropy_spectral(evr, weights, mass, evs)


def _relative_entropy_spectral(evr: np.ndarray, weights: np.ndarray, kernel_mass: float,
                               evs: np.ndarray) -> EntropicValue:
    """D(rho||sigma) from rho's eigenvalues evr, rho's weights on sigma's eigenvectors, the
    largest eigenvalue of rho compressed onto sigma's kernel and sigma's eigenvalues evs."""
    if kernel_mass > SUPPORT_TOL:
        return EntropicValue.infinite()
    tr_rho_log_rho = float(np.sum(evr[evr > EIG_FLOOR] * np.log2(evr[evr > EIG_FLOOR])))
    mask = evs > EIG_FLOOR
    tr_rho_log_sigma = float(np.sum(weights[mask] * np.log2(evs[mask])))
    return EntropicValue(tr_rho_log_rho - tr_rho_log_sigma)


def max_relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> EntropicValue:
    """D_max = log2 of the largest eigenvalue of sigma^{-1/2} rho sigma^{-1/2}."""
    _require_same_registers(rho, sigma, "max-relative entropy")
    evs, vecs = np.linalg.eigh(sigma.matrix)
    return _max_relative_entropy_eig(vecs.conj().T @ rho.matrix @ vecs, evs)


def _max_relative_entropy_eig(rho_mat: np.ndarray, evs: np.ndarray) -> EntropicValue:
    """D_max(rho||diag(evs)) for rho already written in sigma's eigenbasis, evs sigma's
    eigenvalues: infinite when rho's block on sigma's kernel (evs <= EIG_FLOOR) has an
    eigenvalue above SUPPORT_TOL, else log2 of the largest eigenvalue of
    Lambda^{-1/2} rho Lambda^{-1/2} on sigma's support, floored at EIG_FLOOR."""
    kernel = evs <= EIG_FLOOR
    if kernel.any() and np.linalg.eigvalsh(rho_mat[np.ix_(kernel, kernel)])[-1] > SUPPORT_TOL:
        return EntropicValue.infinite()
    inv_half = np.where(kernel, 0.0, 1.0 / np.sqrt(np.clip(evs, EIG_FLOOR, None)))
    lam = float(np.linalg.eigvalsh(inv_half[:, None] * rho_mat * inv_half)[-1])
    return EntropicValue(float(np.log2(max(lam, EIG_FLOOR))))


# ---------------------------------------------------------------------------
# hypothesis testing


def _joint_eigensystem(rho_mat: np.ndarray, sigma_mat: np.ndarray):
    """Probabilities and joint eigenbasis for a commuting Hermitian pair.

    rho is read in sigma's eigenbasis, where it is block diagonal over sigma's degenerate
    runs (eigenvalue gaps up to 1e-10); only a run wider than one needs its own eigh."""
    d = rho_mat.shape[0]
    off_r = np.max(np.abs(rho_mat - np.diag(np.diagonal(rho_mat))))
    off_s = np.max(np.abs(sigma_mat - np.diag(np.diagonal(sigma_mat))))
    if off_r <= 1e-12 and off_s <= 1e-12:
        # both diagonal: keep the computational basis so tests stay diagonal
        return np.diagonal(rho_mat).real.copy(), np.diagonal(sigma_mat).real.copy(), np.eye(d, dtype=complex)
    evs, joint = np.linalg.eigh(sigma_mat)
    rho_eig = joint.conj().T @ rho_mat @ joint
    p = np.diagonal(rho_eig).real.copy()
    edges = np.r_[0, np.flatnonzero(np.diff(evs) > 1e-10) + 1, d]
    for i, j in zip(edges[:-1], edges[1:]):
        if j - i > 1:
            comp = rho_eig[i:j, i:j]
            p[i:j], vec_r = np.linalg.eigh((comp + comp.conj().T) / 2)
            joint[:, i:j] = joint[:, i:j] @ vec_r
    return p, _spectral_weights(joint, sigma_mat), joint


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


def _pencil_breakpoints(rho_mat: np.ndarray, sigma_mat: np.ndarray, evs_s: np.ndarray,
                        vecs_s: np.ndarray) -> np.ndarray:
    """Ascending finite breakpoints mu of the pencil (rho, sigma), where rho - mu sigma loses
    rank on the joint support of rho and sigma.

    For a nonsingular sigma these are the eigenvalues of Lambda^{-1/2} V^dag rho V Lambda^{-1/2}
    from sigma's eigensystem.  Otherwise they are theta / (1 - theta) for the eigenvalues
    theta < 1 of tau^{-1/2} rho tau^{-1/2} on the support of tau = rho + sigma: theta = 1 is
    a direction in the kernel of sigma (mu infinite), and a kernel common to rho and sigma
    drops out with the support.
    """
    if evs_s[0] > EIG_FLOOR:
        w = 1.0 / np.sqrt(evs_s)
        return np.linalg.eigvalsh(w[:, None] * (vecs_s.conj().T @ rho_mat @ vecs_s) * w)
    evs_t, vecs_t = np.linalg.eigh(rho_mat + sigma_mat)
    keep = evs_t > EIG_FLOOR
    w = 1.0 / np.sqrt(evs_t[keep])
    supp = vecs_t[:, keep]
    theta = np.linalg.eigvalsh(w[:, None] * (supp.conj().T @ rho_mat @ supp) * w)
    theta = theta[theta < 1.0]
    return theta / (1.0 - theta)


def _threshold_test(rho_mat: np.ndarray, sigma_mat: np.ndarray, eps: float):
    """Quantum Neyman-Pearson optimum at the threshold mu where the captured rho-mass
    c(mu) = Tr P+(rho - mu sigma) rho crosses 1 - eps.

    The optimal test is the projector onto the positive part of rho - mu sigma plus a
    fractional weight on its zero eigenspace.  c never increases with mu; it jumps only at
    the breakpoints of the pencil (rho, sigma) and is smooth between them.  After a doubling
    bracket, a binary search over the breakpoints inside it either finds mu on a jump (1 - eps
    between the one-sided limits of c there) or leaves one smooth stretch, where an Illinois
    (modified false-position) iteration finds mu, with a bisection step whenever the bracket
    has not halved within three steps.  The test is then the classical Neyman-Pearson fill in
    the eigenbasis V of rho - lo sigma: each eigenvector carries rho-weight p and sigma-weight q
    with eigenvalue p - lo q, so the likelihood-ratio order fills the positive part first and
    puts the fractional weight on the boundary.  Returns (beta or None for an infinity,
    Pi = (V w) V^dag for the fill's weights w).
    """
    d = rho_mat.shape[0]
    target = 1.0 - eps
    tr_rho = float(np.trace(rho_mat).real)
    if tr_rho < target:
        # a subnormalized rho cannot pass 1 - eps: only the identity comes closest
        return float(np.trace(sigma_mat).real), np.eye(d, dtype=complex)

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
        return evals, vecs, _spectral_weights(vecs, rho_mat)

    def excess(dec, tol: float = 0.0) -> float:
        """c - (1 - eps), counting eigenvalues above tol as positive."""
        return float(np.sum(dec[2][dec[0] > tol])) - target

    # g_lo >= 0 > g_hi hold the excess at lo and hi, as limits from inside the bracket
    lo, g_lo, lo_dec = 0.0, tr_rho - target, None
    hi = 1.0
    while True:
        dec = decompose(hi)
        g_hi = excess(dec)
        if g_hi < 0.0:
            break
        lo, g_lo, lo_dec = hi, g_hi, dec
        hi *= 2.0
        if hi > 2.0 ** 200:
            raise InvalidState("threshold search failed to bracket the optimum")

    jumps = _pencil_breakpoints(rho_mat, sigma_mat, evs_s, vecs_s)
    jumps = jumps[(jumps > lo) & (jumps < hi)]
    while jumps.size:
        mid = jumps.size // 2
        mu = float(jumps[mid])
        dec = decompose(mu)
        tol = 1e-11 * max(1.0, mu)
        right, left = excess(dec, tol), excess(dec, -tol)
        if right >= 0.0:
            lo, g_lo, lo_dec = mu, right, dec
            jumps = jumps[mid + 1:]
        elif left < 0.0:
            hi, g_hi = mu, left
            jumps = jumps[:mid]
        else:
            lo, hi, lo_dec = mu, mu, dec
            break

    side, mark, since = 0, hi - lo, 0
    for _ in range(120):
        stop = 1e-14 * max(1.0, hi)
        if hi - lo <= stop:
            break
        if since < 3:
            # at least stop/2 inside: a root next to one end then closes the bracket at once
            mu = lo + g_lo * (hi - lo) / (g_lo - g_hi)
            mu = min(max(mu, lo + 0.5 * stop), hi - 0.5 * stop)
        else:
            mu = 0.5 * (lo + hi)
        dec = decompose(mu)
        g = excess(dec)
        if g >= 0.0:
            lo, g_lo, lo_dec = mu, g, dec
            if side > 0:
                g_hi *= 0.5
            side = 1
        else:
            hi, g_hi = mu, g
            if side < 0:
                g_lo *= 0.5
            side = -1
        since += 1
        if hi - lo <= 0.5 * mark:
            mark, since = hi - lo, 0

    _, vecs, pw = decompose(lo) if lo_dec is None else lo_dec
    beta, w = _classical_np_test(pw, _spectral_weights(vecs, sigma_mat), eps)
    return beta, (vecs * w) @ vecs.conj().T


def _commutes(comm: np.ndarray) -> bool:
    """trace_norm(comm) <= COMMUTE_TOL, decided from ||C||_F <= ||C||_1 <= sqrt(d) ||C||_F;
    the SVD runs only when the tolerance falls inside that band, widened by a relative margin
    far above the rounding of either norm, so no decision differs from the SVD's."""
    fro = float(np.linalg.norm(comm))
    if fro > COMMUTE_TOL * (1.0 + _NORM_MARGIN):
        return False
    if math.sqrt(comm.shape[0]) * fro < COMMUTE_TOL * (1.0 - _NORM_MARGIN):
        return True
    return trace_norm(comm) <= COMMUTE_TOL


def _test_value(beta: float | None) -> EntropicValue:
    """-log2 beta in bits, infinite at beta = 0 (or None); beta = 1 reads +0.0, not -0.0."""
    if beta is None or beta <= 1e-300:
        return EntropicValue.infinite()
    return EntropicValue(float(0.0 - np.log2(beta)))


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
    if _commutes(rm @ sm - sm @ rm):
        p, q, joint = _joint_eigensystem(rm, sm)
        beta, weights = _classical_np_test(p, q, eps)
        return _test_value(beta), (joint * weights) @ joint.conj().T
    beta, pi = _threshold_test(rm, sm, eps)
    return _test_value(beta), pi


def hypothesis_testing_relative_entropy(
    rho: DensityOperator, sigma: DensityOperator, eps: float
) -> EntropicValue:
    """D_H^eps(rho||sigma) = -log2 min Tr(Pi sigma) over tests passing rho with prob >= 1-eps."""
    return optimal_hypothesis_test(rho, sigma, eps)[0]


def diagonal_hypothesis_test(p: np.ndarray, q: np.ndarray,
                             eps: float) -> tuple[EntropicValue, np.ndarray]:
    """Hypothesis testing restricted to free (diagonal) tests, with the test's weights.
    Dephasing is self-adjoint and onto the free tests, so this is the unrestricted test
    between the dephased states: the classical Neyman-Pearson test on the diagonals p of
    rho and q of sigma.  When sum(p) < 1 - eps every weight is 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    # summed as DensityOperator.trace sums a complex diagonal: dense callers keep their bits
    if np.sum(p, dtype=complex).real < 1.0 - eps:
        return _test_value(float(np.sum(q, dtype=complex).real)), np.ones(len(p))
    beta, weights = _classical_np_test(p, q, eps)
    return _test_value(beta), weights


def _restricted_test(rho: DensityOperator, sigma: DensityOperator,
                     eps: float) -> tuple[EntropicValue, np.ndarray]:
    _require_same_registers(rho, sigma, "restricted hypothesis testing")
    return diagonal_hypothesis_test(np.diagonal(rho.matrix).real,
                                    np.diagonal(sigma.matrix).real, eps)


def restricted_hypothesis_test(rho: DensityOperator, sigma: DensityOperator,
                               eps: float) -> tuple[EntropicValue, np.ndarray]:
    """``diagonal_hypothesis_test`` on the diagonals of rho and sigma, the test as Pi."""
    value, weights = _restricted_test(rho, sigma, eps)
    return value, np.diag(weights).astype(complex)


def restricted_hypothesis_testing(rho: DensityOperator, sigma: DensityOperator,
                                  eps: float) -> EntropicValue:
    """The value of ``restricted_hypothesis_test``, without forming its d x d Pi."""
    return _restricted_test(rho, sigma, eps)[0]


# ---------------------------------------------------------------------------
# derived quantities


def _normalize_parts(parts) -> list[list[str]]:
    """Register groups as label lists; a register may appear only once across all groups."""
    out = []
    seen = set()
    for part in parts:
        group = [part] if isinstance(part, str) else list(part)
        for label in group:
            if label in seen:
                raise RegisterError(f"register {label!r} appears more than once in the "
                                    f"groups {parts!r}")
            seen.add(label)
        out.append(group)
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
    _check_bound("conditional mutual information route gap", abs(v1 - v2), 0.0, "<=", 1e-10)
    _check_bound("strong subadditivity of the conditional mutual information", v1, 0.0,
                 ">=", 1e-9)
    return v1


def relative_entropy_of_coherence(rho: DensityOperator) -> float:
    """R_c(rho) = S(dephase(rho)) - S(rho), the min over diagonal sigma of D(rho||sigma);
    the spectrum of dephase(rho) is the diagonal of rho."""
    return entropy_of_probs(np.diagonal(rho.matrix).real) - von_neumann_entropy(rho)


def relative_entropy_variance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """V(rho||sigma) = Tr rho (log2 rho - log2 sigma)^2 - D(rho||sigma)^2."""
    d = relative_entropy(rho, sigma)
    if not d.finite:
        raise InvalidState("relative entropy variance undefined on a support violation")
    evr, vr = np.linalg.eigh(rho.matrix)
    evs, vs = np.linalg.eigh(sigma.matrix)
    # w[i, j] = lam_i |<r_i|s_j>|^2; a term counts when lam_i, w and nu_j clear their floors
    w = evr[:, None] * np.abs(vr.conj().T @ vs) ** 2
    keep = (evr[:, None] > EIG_FLOOR) & (w > 1e-16) & (evs > EIG_FLOOR)
    gap = np.log2(np.clip(evr, EIG_FLOOR, None))[:, None] - np.log2(np.clip(evs, EIG_FLOOR, None))
    second = float(np.sum(w[keep] * gap[keep] ** 2))
    return float(max(second - d.value ** 2, 0.0))
