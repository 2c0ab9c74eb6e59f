import math

import numpy as np
import pytest

from qredist import qmat
from qredist.coherence import (
    CollapsingMap,
    IncoherentKrausSet,
    NotFreeOperation,
    coherence_theory,
    dephase,
    dephase_matrix,
    dephasing_map,
    is_diagonal,
    is_free_measurement_operator,
    is_free_state,
    is_incoherent_channel,
    maximally_coherent_state,
    neumark_branch,
    neumark_dilation,
)
from qredist.entropy import relative_entropy_of_coherence
from qredist.qmat import DensityOperator, KrausChannel, Povm, StateVector
from qredist.sampling import random_channel, random_density, random_pure_state


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def plus_state(label="Q"):
    return StateVector(qmat.qubits(label), np.array([1.0, 1.0]) / math.sqrt(2.0))


def incoherent_random_channel(dim, num_kraus, rng):
    # each Kraus is a permutation with per-column weights; columns of the
    # stacked weights are unit vectors so the completeness sum is exact
    weights = rng.normal(size=(num_kraus, dim)) + 1j * rng.normal(size=(num_kraus, dim))
    weights /= np.linalg.norm(weights, axis=0, keepdims=True)
    ops = []
    for i in range(num_kraus):
        perm = rng.permutation(dim)
        k = np.zeros((dim, dim), dtype=complex)
        k[perm, np.arange(dim)] = weights[i]
        ops.append(k)
    sys_ = qmat.system(("S", dim))
    return KrausChannel(sys_, sys_, tuple(ops))


def test_dephase_plus_state():
    rho = dephase(plus_state().to_density())
    assert np.allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_dephase_single_register_of_bell_pair():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
    bell = StateVector(qmat.qubits("A", "B"), amps).to_density()
    half = dephase(bell, ["A"])
    # killing A-coherence already kills the AB cross terms here
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(half.matrix, expected, atol=1e-12)


def test_dephase_idempotent_and_factorizes():
    rng = np.random.default_rng(0)
    rho = random_density(qmat.qubits("A", "B"), rng)
    once = dephase(rho)
    assert np.allclose(dephase(once).matrix, once.matrix, atol=1e-12)
    stepwise = dephase(dephase(rho, ["A"]), ["B"])
    assert np.allclose(stepwise.matrix, once.matrix, atol=1e-12)


def test_dephase_is_self_adjoint():
    # <dephase(X), Y> = <X, dephase(Y)> in Hilbert-Schmidt inner product
    rng = np.random.default_rng(1)
    dims = (2, 3)
    sys_ = qmat.system(("A", 2), ("B", 3))
    for _ in range(10):
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        y = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        dx = dephase_matrix(x, dims, [0, 1])
        dy = dephase_matrix(y, dims, [0, 1])
        lhs = np.trace(dx.conj().T @ y)
        rhs = np.trace(x.conj().T @ dy)
        assert lhs == pytest.approx(rhs, abs=1e-10)
    assert sys_.dims == dims


def test_dephase_against_matrix_oracle():
    # brute force: zero entries whose basis digits differ on the chosen axis
    rng = np.random.default_rng(2)
    rho = random_density(qmat.system(("A", 2), ("B", 3)), rng)
    got = dephase(rho, ["B"]).matrix
    expected = rho.matrix.copy()
    for r in range(6):
        for c in range(6):
            if r % 3 != c % 3:
                expected[r, c] = 0.0
    assert np.allclose(got, expected, atol=1e-14)


def test_free_state_and_measurement_predicates():
    assert is_diagonal(np.diag([1.0, 2.0]))
    assert not is_diagonal(np.ones((2, 2)))
    assert is_free_state(DensityOperator(qmat.qubits("Q"), np.diag([0.4, 0.6])))
    assert not is_free_state(plus_state().to_density())
    assert is_free_measurement_operator(np.diag([0.5, 1.0]))
    assert not is_free_measurement_operator(np.diag([0.5, 1.5]))  # above id
    assert not is_free_measurement_operator(_HADAMARD)


def test_incoherent_channel_detection():
    sys_ = qmat.qubits("Q")
    flip = KrausChannel(sys_, sys_, (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),))
    ok, witness = is_incoherent_channel(flip)
    assert ok and witness is None
    had = KrausChannel(sys_, sys_, (_HADAMARD.astype(complex),))
    ok, witness = is_incoherent_channel(had)
    assert not ok
    assert witness == (0, 0)  # first Kraus, first column spreads mass
    with pytest.raises(NotFreeOperation):
        IncoherentKrausSet(had)
    IncoherentKrausSet(flip)  # no raise


def test_incoherent_generator_produces_free_channels():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ch = incoherent_random_channel(4, 3, rng)
        ok, _ = is_incoherent_channel(ch)
        assert ok


def test_coherence_monotone_under_incoherent_channels():
    # free operations cannot increase the coherence measure
    rng = np.random.default_rng(4)
    sys_ = qmat.system(("S", 4))
    for _ in range(30):
        rho = random_density(sys_, rng)
        ch = incoherent_random_channel(4, 3, rng)
        before = relative_entropy_of_coherence(rho)
        after = relative_entropy_of_coherence(qmat.apply_channel(ch, rho))
        assert after <= before + 1e-8


def test_generic_channels_can_create_coherence():
    # sanity check the monotonicity test has teeth: some CPTP map raises R_c
    rng = np.random.default_rng(5)
    rho = DensityOperator(qmat.qubits("Q"), np.diag([0.3, 0.7]))
    raised = False
    for _ in range(20):
        ch = random_channel(qmat.qubits("Q"), qmat.qubits("Q"), rng)
        if relative_entropy_of_coherence(qmat.apply_channel(ch, rho)) > 1e-3:
            raised = True
            break
    assert raised


def test_maximally_coherent_state():
    psi = maximally_coherent_state(3)
    assert psi.system.labels == ("Q1", "Q2", "Q3")
    assert relative_entropy_of_coherence(psi.to_density()) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(Exception):
        maximally_coherent_state(0)


def test_coherence_additive_on_products():
    rng = np.random.default_rng(6)
    a = random_density(qmat.qubits("A"), rng)
    b = random_density(qmat.qubits("B"), rng)
    total = relative_entropy_of_coherence(qmat.tensor(a, b))
    parts = relative_entropy_of_coherence(a) + relative_entropy_of_coherence(b)
    assert total == pytest.approx(parts, abs=1e-9)


def test_collapsing_map_contract():
    cmap = dephasing_map()
    assert isinstance(cmap, CollapsingMap)
    rng = np.random.default_rng(7)
    rho = random_density(qmat.qubits("A", "B"), rng)
    assert np.allclose(cmap.apply(rho).matrix, dephase(rho).matrix)
    # idempotent on free states
    free = dephase(rho)
    assert np.allclose(cmap.apply(free).matrix, free.matrix, atol=1e-12)
    # adjoint coincides with the map itself
    x = rng.normal(size=(4, 4))
    assert np.allclose(
        cmap.adjoint_matrix(x, rho.system), cmap.apply_matrix(x, rho.system), atol=1e-14
    )


def test_neumark_dilation_reproduces_branches():
    rng = np.random.default_rng(8)
    sys_ = qmat.qubits("Q")
    ch = random_channel(sys_, sys_, rng, env_dim=3)
    elements = [k.conj().T @ k for k in ch.kraus]
    povm = Povm.from_elements(sys_, elements)
    dil = neumark_dilation(povm, pointer_label="P")
    u = dil.unitary
    assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-9)
    rho = random_density(sys_, rng)
    total = 0.0
    for i, a in enumerate(povm.operators):
        branch = neumark_branch(dil, rho, i)
        direct = a @ rho.matrix @ a.conj().T
        assert np.allclose(branch, direct, atol=1e-9)
        total += np.trace(branch).real
    assert total == pytest.approx(1.0, abs=1e-9)


def test_neumark_single_operator_edge():
    sys_ = qmat.qubits("Q")
    povm = Povm(sys_, (np.eye(2, dtype=complex),))
    dil = neumark_dilation(povm)
    rho = DensityOperator(sys_, np.diag([0.2, 0.8]))
    assert np.allclose(neumark_branch(dil, rho, 0), rho.matrix, atol=1e-12)


def test_povm_from_elements_statistics():
    rng = np.random.default_rng(9)
    sys_ = qmat.qubits("Q")
    e0 = np.array([[0.7, 0.1], [0.1, 0.2]], dtype=complex)
    e1 = np.eye(2) - e0
    povm = Povm.from_elements(sys_, [e0, e1])
    rho = random_density(sys_, rng)
    # square roots preserve the outcome probabilities Tr(E_i rho)
    p0 = np.trace(povm.operators[0].conj().T @ povm.operators[0] @ rho.matrix).real
    assert p0 == pytest.approx(np.trace(e0 @ rho.matrix).real, abs=1e-10)


def test_coherence_theory_bundle():
    theory = coherence_theory()
    assert theory.name == "coherence"
    assert theory.is_free_state(DensityOperator(qmat.qubits("Q"), np.diag([0.5, 0.5])))
    assert not theory.is_free_state(plus_state().to_density())
    rng = np.random.default_rng(10)
    rho = random_density(qmat.qubits("Q"), rng)
    assert theory.min_relative_entropy_to_free(rho) == pytest.approx(
        relative_entropy_of_coherence(rho), abs=1e-12
    )
    assert theory.min_log_norm_over_free(qmat.qubits("A", "B")) == pytest.approx(2.0)
    sys_ = qmat.qubits("Q")
    flip = KrausChannel(sys_, sys_, (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),))
    assert theory.is_free_operation(flip)
    assert not theory.is_free_operation(
        KrausChannel(sys_, sys_, (_HADAMARD.astype(complex),))
    )
    assert theory.is_free_measurement_operator(np.diag([0.3, 0.9]))
    assert theory.collapsing is not None
