import math

import numpy as np
import pytest
from scipy.optimize import linprog

from qredist import qmat
from qredist.entropy import (
    EntropicValue,
    conditional_entropy,
    conditional_mutual_information,
    entropy_of_probs,
    gaussian_quantile,
    hypothesis_testing_relative_entropy,
    max_relative_entropy,
    mutual_information,
    optimal_hypothesis_test,
    relative_entropy,
    relative_entropy_of_coherence,
    relative_entropy_variance,
    restricted_hypothesis_test,
    restricted_hypothesis_testing,
    second_order_rate,
    smoothed_max_relative_entropy_upper_bound,
    von_neumann_entropy,
)
from qredist.qmat import DensityOperator, StateVector
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


def test_max_relative_entropy_dominates_relative_entropy():
    rng = np.random.default_rng(2)
    sys_ = qmat.qubits("Q")
    for _ in range(30):
        rho = random_density(sys_, rng)
        sigma = random_density(sys_, rng)
        assert max_relative_entropy(rho, sigma).value >= relative_entropy(rho, sigma).value - 1e-9


def test_smoothed_max_relative_entropy_bound():
    rng = np.random.default_rng(3)
    sys_ = qmat.qubits("A", "B")
    for _ in range(10):
        rho = random_density(sys_, rng)
        sigma = random_density(sys_, rng)
        exact = max_relative_entropy(rho, sigma)
        zero = smoothed_max_relative_entropy_upper_bound(rho, sigma, 0.0)
        smooth = smoothed_max_relative_entropy_upper_bound(rho, sigma, 0.2)
        assert zero.value == pytest.approx(exact.value, abs=1e-9)
        assert smooth.value <= exact.value + 1e-9


def test_smoothing_helps_on_a_spiked_state():
    # tiny eigenvalue with a huge likelihood ratio: pruning removes it
    rho = diag_state([0.9995, 0.0005])
    sigma = diag_state([1.0 - 1e-6, 1e-6])
    exact = max_relative_entropy(rho, sigma).value
    smooth = smoothed_max_relative_entropy_upper_bound(rho, sigma, 0.1).value
    assert exact == pytest.approx(math.log2(0.0005 / 1e-6), abs=1e-6)
    assert smooth < 0.01


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


def test_gaussian_quantile_values():
    assert gaussian_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert gaussian_quantile(0.05) == pytest.approx(-1.6448536269514729, abs=1e-10)
    assert gaussian_quantile(0.95) == pytest.approx(1.6448536269514729, abs=1e-10)
    with pytest.raises(ValueError):
        gaussian_quantile(0.0)


def test_relative_entropy_variance_hand_value():
    rho = diag_state([0.5, 0.5])
    sigma = diag_state([0.25, 0.75])
    v = relative_entropy_variance(rho, sigma)
    assert v == pytest.approx(0.6280265321730654, abs=1e-10)
    assert relative_entropy_variance(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_second_order_rate_expansion():
    rho = diag_state([0.5, 0.5])
    sigma = diag_state([0.25, 0.75])
    d = relative_entropy(rho, sigma).value
    v = relative_entropy_variance(rho, sigma)
    for n in (1, 10, 100):
        got = second_order_rate(rho, sigma, n, 0.05)
        expected = n * d + math.sqrt(n * v) * gaussian_quantile(0.05)
        assert got == pytest.approx(expected, abs=1e-9)


def test_second_order_tracks_hypothesis_testing_iid():
    # n-copy hypothesis testing between commuting states approaches the
    # two-term expansion; check the gap shrinks relative to n
    rho = diag_state([0.5, 0.5])
    sigma = diag_state([0.25, 0.75])
    eps = 0.2
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
        approx = second_order_rate(rho, sigma, n, eps)
        gaps.append(abs(exact - approx) / n)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.28


def test_entropic_value_float_protocol():
    assert float(EntropicValue(1.5)) == 1.5
    assert math.isinf(float(EntropicValue.infinite()))
