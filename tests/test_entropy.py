import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.stats import norm

from dense_oracles import dense_max_relative_entropy
from qredist import entropy as entropy_module
from qredist import qmat
from qredist.coherence import dephase
from qredist.entropy import (
    COMMUTE_TOL,
    EIG_FLOOR,
    EntropicValue,
    _classical_np_test,
    _commutes,
    _spectral_weights,
    _threshold_test,
    conditional_entropy,
    conditional_mutual_information,
    entropy_of_probs,
    hypothesis_testing_relative_entropy,
    max_relative_entropy,
    mutual_information,
    optimal_hypothesis_test,
    relative_entropy,
    relative_entropy_of_coherence,
    relative_entropy_variance,
    restricted_hypothesis_test,
    restricted_hypothesis_testing,
    von_neumann_entropy,
)
from qredist.protocols import builtin_qsr_instances
from qredist.qmat import DensityOperator, InvalidState, StateVector
from qredist.sampling import random_density, random_pure_state, random_unitary


def diag_state(probs, label="Q"):
    probs = np.asarray(probs, dtype=float)
    return DensityOperator(qmat.system((label, len(probs))), np.diag(probs))


def bell_pair(labels=("A", "B")):
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    return StateVector(qmat.qubits(*labels), amps)


def ghz(labels=("R", "B", "C")):
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    return StateVector(qmat.qubits(*labels), amps)


def test_entropy_hand_values():
    assert von_neumann_entropy(diag_state([0.5, 0.25, 0.125, 0.125])) == pytest.approx(1.75)
    assert von_neumann_entropy(diag_state([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(diag_state([0.25] * 4)) == pytest.approx(2.0)
    # pure states have zero entropy regardless of basis
    plus = StateVector(qmat.qubits("Q"), np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert von_neumann_entropy(plus.to_density()) == pytest.approx(0.0, abs=1e-12)


def test_binary_entropy_sweep():
    for p in np.linspace(0.01, 0.99, 33):
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert von_neumann_entropy(diag_state([p, 1 - p])) == pytest.approx(expected, abs=1e-12)


def test_entropy_unitarily_invariant():
    rng = np.random.default_rng(0)
    rho = random_density(qmat.qubits("A", "B"), rng)
    s0 = von_neumann_entropy(rho)
    for _ in range(5):
        u = random_unitary(4, rng)
        rotated = DensityOperator(rho.system, u @ rho.matrix @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(s0, abs=1e-9)


def test_entropy_of_probs_ignores_floor():
    assert entropy_of_probs(np.array([1.0, 0.0, 1e-16])) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_hand_value():
    rho = diag_state([0.5, 0.5])
    sigma = diag_state([0.25, 0.75])
    d = relative_entropy(rho, sigma)
    assert d.finite
    assert d.value == pytest.approx(0.20751874963942185, abs=1e-12)
    same = relative_entropy(rho, rho)
    assert same.value == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_support_violation_is_infinite():
    rho = diag_state([0.5, 0.5])
    sigma = diag_state([1.0, 0.0])
    d = relative_entropy(rho, sigma)
    assert not d.finite
    assert math.isinf(float(d))


def test_relative_entropy_nonnegative_random():
    rng = np.random.default_rng(1)
    sys_ = qmat.qubits("A", "B")
    for _ in range(30):
        rho = random_density(sys_, rng)
        sigma = random_density(sys_, rng)
        d = relative_entropy(rho, sigma)
        assert d.finite
        assert d.value >= -1e-9


def test_max_relative_entropy_hand_values():
    rho = diag_state([0.5, 0.5])
    sigma = diag_state([0.25, 0.75])
    # largest ratio 0.5/0.25 = 2
    assert max_relative_entropy(rho, sigma).value == pytest.approx(1.0, abs=1e-9)
    assert max_relative_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-9)
    assert not max_relative_entropy(rho, diag_state([1.0, 0.0])).finite


def test_max_relative_entropy_in_sigmas_eigenbasis_matches_the_dense_formula():
    # sigma of full rank and rank-deficient; rho inside sigma's support and a full-rank rho
    # outside it, which must read infinite on both routes
    rng = np.random.default_rng(21)
    for d in (2, 3, 4, 6, 8):
        sys_ = qmat.system(("Q", d))
        for rank in sorted({d, d - 1, max(1, d // 2)}):
            sigma = random_density(sys_, rng, rank=rank)
            evs, vecs = np.linalg.eigh(sigma.matrix)
            supp = vecs[:, evs > EIG_FLOOR]
            inside = supp @ random_density(qmat.system(("S", supp.shape[1])), rng).matrix @ supp.conj().T
            for rho_mat in (inside, random_density(sys_, rng).matrix):
                rho = DensityOperator(sys_, rho_mat)
                want = dense_max_relative_entropy(rho.matrix, sigma.matrix)
                got = entropy_module._max_relative_entropy_eig(
                    vecs.conj().T @ rho.matrix @ vecs, evs)
                assert float(got) == float(max_relative_entropy(rho, sigma))
                assert got.finite == (rank == d or rho_mat is inside), (d, rank)
                if got.finite:
                    assert abs(got.value - want) <= 1e-12
                else:
                    assert want == math.inf


def test_max_relative_entropy_dominates_relative_entropy():
    rng = np.random.default_rng(2)
    sys_ = qmat.qubits("Q")
    for _ in range(30):
        rho = random_density(sys_, rng)
        sigma = random_density(sys_, rng)
        assert max_relative_entropy(rho, sigma).value >= relative_entropy(rho, sigma).value - 1e-9


def test_hypothesis_testing_self_pair():
    # testing a state against itself: beta = 1 - eps exactly
    rng = np.random.default_rng(4)
    rho = random_density(qmat.qubits("Q"), rng)
    for eps in (0.1, 0.3, 0.5):
        d = hypothesis_testing_relative_entropy(rho, rho, eps)
        assert d.value == pytest.approx(-math.log2(1.0 - eps), abs=1e-9)


def test_hypothesis_testing_classical_hand_value():
    # ratios 4, 1.5, 2/3, 0.25; greedy fill gives beta = 0.1 + 0.2 + 0.75*0.3
    rho = diag_state(np.array([0.4, 0.3, 0.2, 0.1]), "C")
    sigma = diag_state(np.array([0.1, 0.2, 0.3, 0.4]), "C")
    d, pi = optimal_hypothesis_test(rho, sigma, 0.15)
    assert d.value == pytest.approx(0.9296106721086017, abs=1e-10)
    assert np.trace(pi @ sigma.matrix).real == pytest.approx(0.525, abs=1e-10)


def test_hypothesis_testing_against_linprog_oracle():
    # classical optimum recomputed as a linear program on the diagonal weights
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        eps = rng.uniform(0.05, 0.6)
        rho = diag_state(p, "X")
        sigma = diag_state(q, "X")
        got = hypothesis_testing_relative_entropy(rho, sigma, eps)
        res = linprog(q, A_eq=p[None, :], b_eq=[1.0 - eps],
                      bounds=[(0.0, 1.0)] * 6, method="highs")
        assert res.status == 0
        assert got.value == pytest.approx(-math.log2(res.fun), abs=1e-7)


def test_hypothesis_test_operator_feasible_noncommuting():
    rng = np.random.default_rng(6)
    sys_ = qmat.qubits("Q", "R")
    for _ in range(10):
        rho = random_density(sys_, rng)
        sigma = random_density(sys_, rng)
        eps = rng.uniform(0.1, 0.5)
        d, pi = optimal_hypothesis_test(rho, sigma, eps)
        evs = np.linalg.eigvalsh(pi)
        assert evs.min() >= -1e-8 and evs.max() <= 1.0 + 1e-8
        assert np.trace(pi @ rho.matrix).real == pytest.approx(1.0 - eps, abs=1e-7)
        beta = np.trace(pi @ sigma.matrix).real
        assert d.value == pytest.approx(-math.log2(beta), abs=1e-7)


def test_no_random_test_beats_the_optimum():
    # any feasible test operator must leak at least beta* of sigma
    rng = np.random.default_rng(7)
    sys_ = qmat.qubits("Q")
    rho = random_density(sys_, rng)
    sigma = random_density(sys_, rng)
    eps = 0.25
    d, _ = optimal_hypothesis_test(rho, sigma, eps)
    beta_star = 2.0 ** (-d.value)
    for _ in range(200):
        u = random_unitary(2, rng)
        w = rng.uniform(0.0, 1.0, size=2)
        pi = (u * w) @ u.conj().T
        t = np.trace(pi @ rho.matrix).real
        if t < 1.0 - eps:
            # mix with the identity to restore feasibility
            alpha = eps / (1.0 - t)
            pi = alpha * pi + (1.0 - alpha) * np.eye(2)
        assert np.trace(pi @ sigma.matrix).real >= beta_star - 1e-8


def test_hypothesis_testing_monotone_in_eps():
    rng = np.random.default_rng(8)
    rho = random_density(qmat.qubits("Q"), rng)
    sigma = random_density(qmat.qubits("Q"), rng)
    vals = [hypothesis_testing_relative_entropy(rho, sigma, e).value
            for e in (0.05, 0.15, 0.3, 0.5, 0.7)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def bisection_threshold_test(rho_mat: np.ndarray, sigma_mat: np.ndarray, eps: float):
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


def pencil_pairs():
    """Seeded non-commuting (case, rho, sigma, eps) on d = 2..8 at eps 0.05, 0.1 and 0.25."""
    rng = np.random.default_rng(31)
    pairs = []
    for d in range(2, 9):
        sys_ = qmat.system(("S", d))
        inner = qmat.system(("S", d - 1))
        for eps in (0.05, 0.1, 0.25):
            for _ in range(4):
                pairs.append(("generic", random_density(sys_, rng), random_density(sys_, rng), eps))
            pairs.append(("singular sigma", random_density(sys_, rng),
                          random_density(sys_, rng, rank=d - 1), eps))
            pairs.append(("rank-deficient rho", random_density(sys_, rng, rank=max(1, d // 2)),
                          random_density(sys_, rng), eps))
            if d > 2:
                # both live on the same random (d-1)-dimensional subspace
                u = random_unitary(d, rng)[:, :d - 1]
                rho, sigma = (DensityOperator(sys_, u @ random_density(inner, rng).matrix @ u.conj().T)
                              for _ in range(2))
                pairs.append(("common kernel", rho, sigma, eps))
            for scale in (0.5, 0.98):
                rho = DensityOperator(sys_, scale * random_density(sys_, rng).matrix, subnormalized=True)
                pairs.append(("subnormalized", rho, random_density(sys_, rng), eps))
    return pairs + past_last_breakpoint_pairs()


def finite_breakpoints(rho_mat: np.ndarray, sigma_mat: np.ndarray):
    """(ascending finite breakpoints of the pencil, kernel mass) for sigma of rank d - 1 with
    kernel vector k: det(rho - mu sigma) = <k|rho|k> det(S - mu sigma_SS) on the support S of
    sigma, for S the Schur complement of <k|rho|k> in rho."""
    evs, vecs = np.linalg.eigh(sigma_mat)
    k, supp = vecs[:, :1], vecs[:, 1:]
    mass = float((k.conj().T @ rho_mat @ k)[0, 0].real)
    r_sk = supp.conj().T @ rho_mat @ k
    schur = supp.conj().T @ rho_mat @ supp - (r_sk @ r_sk.conj().T) / mass
    w = 1.0 / np.sqrt(evs[1:])
    return np.linalg.eigvalsh(w[:, None] * schur * w), mass


def past_last_breakpoint_pairs():
    """Seeded (case, rho, sigma, eps) whose threshold lies past the largest finite breakpoint:
    sigma of rank d - 1 and a nearly pure rho with <k|rho|k> < 1 - eps <= c(mu_max+), on
    d = 2..8.  Only the doubling bracket reaches such a root."""
    rng = np.random.default_rng(37)
    pairs = []
    for d in range(2, 9):
        sys_ = qmat.system(("S", d))
        for eps in (0.05, 0.1, 0.25):
            while True:
                sigma = random_density(sys_, rng, rank=d - 1)
                t = rng.uniform(0.0, eps)
                rho = DensityOperator(sys_, (1.0 - t) * random_density(sys_, rng, rank=1).matrix
                                      + t * random_density(sys_, rng).matrix)
                mus, mass = finite_breakpoints(rho.matrix, sigma.matrix)
                mu = float(mus[-1])
                evals, vecs = np.linalg.eigh(rho.matrix - mu * sigma.matrix)
                right = np.sum(_spectral_weights(vecs, rho.matrix)[evals > 1e-11 * max(1.0, mu)])
                if mass < 1.0 - eps <= right:
                    break
            pairs.append(("root past the last breakpoint", rho, sigma, eps))
    return pairs


def test_threshold_search_matches_bisection_oracle():
    jump = smooth = past = 0
    for case, rho, sigma, eps in pencil_pairs():
        rm, sm = rho.matrix, sigma.matrix
        assert np.linalg.norm(rm @ sm - sm @ rm) > 1e-6, case
        beta, pi = _threshold_test(rm, sm, eps)
        beta_ref, _ = bisection_threshold_test(rm, sm, eps)
        if beta_ref is None:
            assert beta is None, case
        else:
            assert -math.log2(beta) == pytest.approx(-math.log2(beta_ref), abs=1e-12), case
        evs = np.linalg.eigvalsh(pi)
        assert evs.min() >= -1e-8 and evs.max() <= 1.0 + 1e-8, case
        if rho.trace() >= 1.0 - eps:
            assert np.trace(pi @ rm).real == pytest.approx(1.0 - eps, abs=1e-8), case
        else:
            assert np.array_equal(pi, np.eye(rho.dim)), case
        if case == "generic":
            # a root on a jump of the captured mass leaves a fractional weight on the test
            if np.any((evs > 1e-6) & (evs < 1.0 - 1e-6)):
                jump += 1
            else:
                smooth += 1
        if case == "root past the last breakpoint":
            # one positive eigenvalue of rho - mu sigma is left, so the test has rank one
            assert np.sum(evs > 1e-6) == 1, case
            past += 1
    assert jump and smooth and past, (jump, smooth, past)


@pytest.fixture
def decompositions(monkeypatch):
    """A one-element list counting numpy.linalg.eigh and eigvalsh calls from here on."""
    calls = [0]
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _kernel=getattr(np.linalg, name), **kwargs):
            calls[0] += 1
            return _kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_threshold_search_takes_few_decompositions(decompositions):
    # the bisection it replaced took 50 to 55 eigh calls per non-commuting test
    per_call = []
    for _, rho, sigma, eps in pencil_pairs():
        decompositions[0] = 0
        optimal_hypothesis_test(rho, sigma, eps)
        per_call.append(decompositions[0])
    assert np.mean(per_call) <= 15, np.mean(per_call)
    assert max(per_call) <= 60, max(per_call)


def test_unreachable_target_returns_identity_at_once(decompositions):
    # Tr rho < 1 - eps: no test passes rho with 1 - eps, and the identity is returned
    rho = DensityOperator(qmat.qubits("Q"), np.diag([0.42, 0.18]), subnormalized=True)
    sigma = DensityOperator(qmat.qubits("Q"), np.array([[0.5, 0.25], [0.25, 0.5]]))
    d, pi = optimal_hypothesis_test(rho, sigma, 0.1)
    assert decompositions[0] <= 3
    assert np.array_equal(pi, np.eye(2))
    assert d.finite and d.value == 0.0 and math.copysign(1.0, d.value) == 1.0


def degenerate_commuting_pairs():
    """Seeded commuting, non-diagonal (rho, sigma, eps, p, q) on d = 3..8: sigma = U diag(q) U^dag
    with a k-fold eigenvalue (2 <= k <= d), rho rotated by W inside that eigenspace, and p, q
    their joint eigenvalues in the frame U W."""
    rng = np.random.default_rng(43)
    cases = []
    for d in range(3, 9):
        sys_ = qmat.system(("S", d))
        for eps in (0.05, 0.1, 0.25):
            for _ in range(4):
                k = int(rng.integers(2, d + 1))
                p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
                q[:k] = q[:k].mean()
                u = random_unitary(d, rng)
                w = np.eye(d, dtype=complex)
                w[:k, :k] = random_unitary(k, rng)
                frame = u @ w
                cases.append((DensityOperator(sys_, (frame * p) @ frame.conj().T),
                              DensityOperator(sys_, (u * q) @ u.conj().T), eps, p, q))
    return cases


def test_commuting_test_with_a_degenerate_sigma_is_the_classical_fill():
    for rho, sigma, eps, p, q in degenerate_commuting_pairs():
        rm, sm = rho.matrix, sigma.matrix
        d, pi = optimal_hypothesis_test(rho, sigma, eps)
        want = -math.log2(_classical_np_test(p, q, eps)[0])
        assert abs(d.value - want) <= 1e-12, (rho.dim, eps, d.value, want)
        assert np.max(np.abs(pi @ rm - rm @ pi)) <= 1e-12
        assert np.max(np.abs(pi @ sm - sm @ pi)) <= 1e-12


def test_commuting_pair_with_distinct_eigenvalues_takes_one_decomposition(decompositions):
    # sigma's eigenbasis is then the joint one: no block of it needs a decomposition of its own
    rng = np.random.default_rng(44)
    sys_ = qmat.system(("S", 5))
    u = random_unitary(5, rng)
    rho, sigma = (DensityOperator(sys_, (u * rng.dirichlet(np.ones(5))) @ u.conj().T)
                  for _ in range(2))
    decompositions[0] = 0
    optimal_hypothesis_test(rho, sigma, 0.1)
    assert decompositions[0] == 1


def commutator_cases():
    """(name, C) on d = 2..8: commutators of seeded pairs, from far apart to nearly commuting,
    and anti-Hermitian C = iH with ||C||_1 at 0.5, 0.99, 1.01 and 2 x COMMUTE_TOL, whose
    spectra run from one +-pair (||C||_F near ||C||_1) to flat (||C||_F = ||C||_1 / sqrt d)."""
    rng = np.random.default_rng(41)
    cases = []
    for d in range(2, 9):
        sys_ = qmat.system(("Q", d))
        rho, sigma = random_density(sys_, rng).matrix, random_density(sys_, rng).matrix
        u = random_unitary(d, rng)
        shared = (u * rng.dirichlet(np.ones(d))) @ u.conj().T
        cases.append((f"seeded-{d}", rho @ sigma - sigma @ rho))
        for t in (0.0, 1e-11, 1e-10, 1e-9, 1e-8):
            near = (u * rng.dirichlet(np.ones(d))) @ u.conj().T + t * rho
            cases.append((f"near-{d}-{t}", near @ shared - shared @ near))
        spectra = {"one-pair": np.r_[1.0, -1.0, np.zeros(d - 2)],
                   "flat": np.where(np.arange(d) % 2, -1.0, 1.0),
                   "gaussian": rng.standard_normal(d)}
        for shape, spec in spectra.items():
            h = (u * spec) @ u.conj().T
            h /= np.sum(np.abs(spec))
            for k in (0.5, 0.99, 1.01, 2.0):
                cases.append((f"{shape}-{d}-{k}", 1j * k * COMMUTE_TOL * h))
    return cases


def test_commutation_test_decides_as_the_trace_norm(monkeypatch):
    svds = [0]

    def counted(mat, _inner=qmat.trace_norm):
        svds[0] += 1
        return _inner(mat)

    monkeypatch.setattr(entropy_module, "trace_norm", counted)
    cases = commutator_cases()
    decided_by_bounds = 0
    for name, comm in cases:
        svds[0] = 0
        assert _commutes(comm) == (qmat.trace_norm(comm) <= COMMUTE_TOL), name
        decided_by_bounds += svds[0] == 0
        if name.startswith("seeded-"):
            assert svds[0] == 0, name  # a generic pair never needs the SVD
    assert decided_by_bounds >= len(cases) // 2


@pytest.mark.parametrize("quantity", [
    relative_entropy,
    max_relative_entropy,
    relative_entropy_variance,
    lambda rho, sigma: optimal_hypothesis_test(rho, sigma, 0.1),
    lambda rho, sigma: restricted_hypothesis_test(rho, sigma, 0.1),
])
def test_relative_entropies_compare_registers(quantity):
    rng = np.random.default_rng(14)
    rho = random_density(qmat.qubits("A", "B"), rng)
    sigma = random_density(qmat.qubits("A", "B"), rng)
    for other in (qmat.permute_registers(sigma, ["B", "A"]),
                  qmat.relabel_density(sigma, {"B": "C"})):
        with pytest.raises(qmat.DimensionMismatch) as info:
            quantity(rho, other)
        assert str(list(rho.system.registers)) in str(info.value)
        assert str(list(other.system.registers)) in str(info.value)


def test_restricted_test_uniform_hand_value():
    # two maximally coherent qubits against the uniform state: dephasing
    # collapses both to diag(1/4,...), so the value is -log2(1 - eps)
    plus2 = StateVector(qmat.qubits("Q1", "Q2"), np.full(4, 0.5, dtype=complex))
    uniform = DensityOperator(qmat.qubits("Q1", "Q2"), np.eye(4) / 4.0)
    d, pi = restricted_hypothesis_test(plus2.to_density(), uniform, 0.1)
    assert d.value == pytest.approx(0.15200309344504995, abs=1e-10)
    # the optimal restricted test is diagonal
    assert np.max(np.abs(pi - np.diag(np.diagonal(pi)))) <= 1e-9


def test_restricted_at_most_unrestricted():
    rng = np.random.default_rng(9)
    sys_ = qmat.qubits("Q")
    for _ in range(20):
        rho = random_density(sys_, rng)
        sigma = random_density(sys_, rng)
        eps = rng.uniform(0.05, 0.5)
        free = restricted_hypothesis_testing(rho, sigma, eps)
        full = hypothesis_testing_relative_entropy(rho, sigma, eps)
        assert free.value <= full.value + 1e-8


def test_restricted_subnormalized_edge():
    # Tr(rho) < 1 - eps: constraint unsatisfiable, the identity is returned
    rho = DensityOperator(qmat.qubits("Q"), np.diag([0.3, 0.2]), subnormalized=True)
    sigma = diag_state([0.5, 0.5])
    d, pi = restricted_hypothesis_test(rho, sigma, 0.1)
    assert np.allclose(pi, np.eye(2))
    assert d.value == pytest.approx(0.0, abs=1e-12)
    # the early return still demands matching registers
    with pytest.raises(qmat.DimensionMismatch):
        restricted_hypothesis_test(rho, qmat.relabel_density(sigma, {"Q": "P"}), 0.1)


def _restricted_pairs():
    """(rho, sigma, eps): the built-ins' free-test pairs (rho_BC, rho_B x sigma_C, eps2^4),
    seeded random pairs at d = 2..8, and subnormalized pairs whose target 1 - eps is out of
    reach and within reach."""
    pairs = []
    for inst in builtin_qsr_instances().values():
        rho_b = qmat.vector_marginal(inst.psi, ["B"])
        pairs.append((qmat.vector_marginal(inst.psi, ["B", "C"]),
                      qmat.tensor(rho_b, inst.sigma_c), inst.eps2 ** 4))
    rng = np.random.default_rng(18)
    for d in range(2, 9):
        sys_ = qmat.system(("Q", d))
        for eps in (0.01, 0.1, 0.3, 0.7):
            pairs.append((random_density(sys_, rng), random_density(sys_, rng), eps))
    sys_ = qmat.system(("Q", 3))
    sub = DensityOperator(sys_, 0.6 * random_density(sys_, rng).matrix, subnormalized=True)
    for eps in (0.1, 0.5):
        pairs.append((sub, random_density(sys_, rng), eps))
        pairs.append((sub, DensityOperator(sys_, np.eye(3) / 3.0), eps))
    return pairs


def test_restricted_test_equals_the_dense_route_on_dephased_states():
    # the route restricted_hypothesis_test took before it read diagonals: dephase both states
    # and run the unrestricted test; the classical test on the diagonals matches it exactly
    for rho, sigma, eps in _restricted_pairs():
        want_value, want_pi = optimal_hypothesis_test(dephase(rho), dephase(sigma), eps)
        got_value, got_pi = restricted_hypothesis_test(rho, sigma, eps)
        assert got_value == want_value, (rho.system, eps)
        assert np.array_equal(got_pi, want_pi) and got_pi.dtype == want_pi.dtype


def test_conditional_entropy_bell():
    rho = bell_pair().to_density()
    assert conditional_entropy(rho, "A", "B") == pytest.approx(-1.0, abs=1e-9)
    assert mutual_information(rho, "A", "B") == pytest.approx(2.0, abs=1e-9)


def test_mutual_information_product_is_zero():
    rng = np.random.default_rng(10)
    a = random_density(qmat.qubits("A"), rng)
    b = random_density(qmat.qubits("B"), rng)
    ab = qmat.tensor(a, b)
    assert mutual_information(ab, "A", "B") == pytest.approx(0.0, abs=1e-9)


def test_cmi_ghz_hand_value():
    rho = ghz().to_density()
    assert conditional_mutual_information(rho, "C", "R", "B") == pytest.approx(1.0, abs=1e-9)


def test_cmi_nonnegative_random():
    rng = np.random.default_rng(11)
    sys_ = qmat.qubits("A", "B", "C")
    for _ in range(20):
        psi = random_pure_state(sys_, rng)
        v = conditional_mutual_information(psi.to_density(), "A", "B", "C")
        assert v >= -1e-9


def test_cmi_markov_chain_vanishes():
    # classically correlated A-B with C uncorrelated: I(A:B|C) = I(A:B) but
    # I(A:C|B) = 0
    probs = np.zeros(8)
    probs[0b000] = 0.35
    probs[0b110] = 0.35
    probs[0b001] = 0.15
    probs[0b111] = 0.15
    rho = DensityOperator(qmat.qubits("A", "B", "C"), np.diag(probs))
    assert conditional_mutual_information(rho, "A", "C", "B") == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("quantity, parts", [
    (mutual_information, ("R", "R")),
    (conditional_entropy, (["R", "B"], "B")),
    (conditional_mutual_information, ("R", "B", "R")),
    (mutual_information, (["R", "B", "C"], "R")),
    (mutual_information, (["R", "R"], "B")),
])
def test_overlapping_register_groups_are_refused(quantity, parts):
    with pytest.raises(qmat.RegisterError, match="'R'"):
        quantity(ghz().to_density(), *parts)


def test_coherence_hand_values():
    plus = StateVector(qmat.qubits("Q"), np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert relative_entropy_of_coherence(plus.to_density()) == pytest.approx(1.0, abs=1e-12)
    assert relative_entropy_of_coherence(diag_state([0.3, 0.7])) == pytest.approx(0.0, abs=1e-12)


def test_coherence_is_min_over_diagonal_sigma():
    # R_c equals the relative entropy to the dephased state, and no diagonal
    # sigma does better
    rng = np.random.default_rng(12)
    from qredist.coherence import dephase

    for _ in range(10):
        rho = random_density(qmat.qubits("Q"), rng)
        rc = relative_entropy_of_coherence(rho)
        assert rc == pytest.approx(relative_entropy(rho, dephase(rho)).value, abs=1e-9)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(2))
            d = relative_entropy(rho, diag_state(probs))
            assert d.value >= rc - 1e-8


def test_relative_entropy_variance_hand_value():
    rho = diag_state([0.5, 0.5])
    sigma = diag_state([0.25, 0.75])
    v = relative_entropy_variance(rho, sigma)
    assert v == pytest.approx(0.6280265321730654, abs=1e-10)
    assert relative_entropy_variance(rho, rho) == pytest.approx(0.0, abs=1e-10)


def _variance_loop(rho, sigma):
    """The double loop relative_entropy_variance ran before its masked array form: the oracle."""
    d = relative_entropy(rho, sigma)
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


def test_relative_entropy_variance_matches_the_loop():
    # rho of full rank and of rank d/2 against a full-rank sigma, and a rank-d/2 pair on one
    # support, where sigma's kernel cut-off decides
    rng = np.random.default_rng(22)
    for d in range(2, 17):
        sys_ = qmat.system(("Q", d))
        half = random_density(sys_, rng, rank=d // 2)
        vecs = np.linalg.eigh(half.matrix)[1][:, d - d // 2:]
        shared = DensityOperator(sys_, vecs @ random_density(qmat.system(("S", d // 2)), rng)
                                 .matrix @ vecs.conj().T)
        pairs = [(random_density(sys_, rng), random_density(sys_, rng)),
                 (random_density(sys_, rng, rank=d // 2), random_density(sys_, rng)),
                 (shared, half)]
        for rho, sigma in pairs:
            assert abs(relative_entropy_variance(rho, sigma) - _variance_loop(rho, sigma)) <= 1e-12
    # rho's weight 1e-11 on sigma's kernel is under SUPPORT_TOL and above both other floors,
    # so only sigma's kernel cut-off drops its term, worth about 1e-10
    u = random_unitary(3, rng)
    rho, sigma = (DensityOperator(qmat.system(("Q", 3)), (u * p) @ u.conj().T)
                  for p in ([0.5 - 5e-12, 0.5 - 5e-12, 1e-11], [0.5, 0.5, 0.0]))
    assert abs(relative_entropy_variance(rho, sigma) - _variance_loop(rho, sigma)) <= 1e-12


def test_second_order_tracks_hypothesis_testing_iid():
    # n-copy hypothesis testing between commuting states approaches the
    # two-term expansion; check the gap shrinks relative to n
    rho = diag_state([0.5, 0.5])
    sigma = diag_state([0.25, 0.75])
    eps = 0.2
    d = relative_entropy(rho, sigma).value
    v = relative_entropy_variance(rho, sigma)
    gaps = []
    for n in (2, 4, 6, 8):
        pn = np.ones(1)
        qn = np.ones(1)
        for _ in range(n):
            pn = np.kron(pn, np.array([0.5, 0.5]))
            qn = np.kron(qn, np.array([0.25, 0.75]))
        rn = diag_state(pn, "N")
        sn = diag_state(qn, "N")
        exact = hypothesis_testing_relative_entropy(rn, sn, eps).value
        approx = n * d + math.sqrt(n * v) * norm.ppf(eps)
        gaps.append(abs(exact - approx) / n)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.28


def test_entropic_value_float_protocol():
    assert float(EntropicValue(1.5)) == 1.5
    assert math.isinf(float(EntropicValue.infinite()))
