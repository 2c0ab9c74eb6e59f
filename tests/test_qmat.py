import math
import warnings

import numpy as np
import pytest

from qredist import qmat
from qredist.qmat import (
    DensityOperator,
    InvalidState,
    Isometry,
    KrausChannel,
    RegisterError,
    RegisterSystem,
    StateVector,
    apply_subsystem_matrix,
    fidelity,
    marginal_matrix,
    partial_trace,
    permute_registers,
    permute_vector,
    psd_sqrt,
    purified_distance,
    purify,
    relabel_density,
    relabel_system,
    tensor,
    trace_norm,
    vector_marginal,
)
from qredist.sampling import haar_vector, random_density, random_pure_state, random_unitary

from channel_helpers import apply_channel, random_channel, random_isometry


def ghz(labels=("R", "B", "C")):
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    return StateVector(qmat.qubits(*labels), amps)


def test_register_system_basics():
    sys_ = qmat.system(("A", 2), ("B", 3), ("C", 4))
    assert sys_.dim == 24
    assert sys_.labels == ("A", "B", "C")
    assert sys_.axis("B") == 1
    assert sys_.dim_of(["A", "C"]) == 8
    # subsystem keeps the parent order regardless of the request order
    assert sys_.subsystem(["C", "A"]).registers == (("A", 2), ("C", 4))


def test_register_system_rejects_duplicates_and_bad_dims():
    with pytest.raises(RegisterError):
        RegisterSystem((("A", 2), ("A", 2)))
    with pytest.raises(RegisterError):
        RegisterSystem((("A", 0),))
    # a dimension is never truncated: 2.9 is not 2 and True is not 1
    for bad in (2.9, True, np.bool_(True), math.nan, math.inf, "2"):
        with pytest.raises(RegisterError):
            RegisterSystem((("A", bad),))
    for good in (2, 2.0, np.int64(2), np.float64(2.0)):
        dims = RegisterSystem((("A", good),)).dims
        assert dims == (2,) and type(dims[0]) is int
    with pytest.raises(RegisterError):
        qmat.system(("A", 2)).axis("Z")


def test_state_vector_validation():
    sys_ = qmat.qubits("Q")
    with pytest.raises(InvalidState):
        StateVector(sys_, np.array([1.0, 1.0]))
    psi = StateVector(sys_, np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert psi.amplitudes.flags.writeable is False
    rho = psi.to_density()
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5))


_NON_FINITE = {
    "StateVector": lambda x: StateVector(qmat.qubits("Q"), np.array([x, 1.0])),
    "DensityOperator": lambda x: DensityOperator(qmat.qubits("Q"), np.diag([x, 0.5])),
    "Isometry": lambda x: Isometry(qmat.qubits("Q"), qmat.qubits("Q"), np.diag([x, 1.0])),
    "KrausChannel": lambda x: KrausChannel(qmat.qubits("Q"), qmat.qubits("Q"),
                                           (np.diag([x, 1.0]),)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("cls", sorted(_NON_FINITE))
def test_validated_classes_reject_non_finite(cls, bad):
    with pytest.raises(InvalidState, match="non-finite"):
        _NON_FINITE[cls](bad)


@pytest.mark.parametrize("make", [lambda big: StateVector(qmat.qubits("Q"), big),
                                  lambda big: DensityOperator(qmat.qubits("Q"), np.diag(big))],
                         ids=["StateVector", "DensityOperator"])
def test_overflowing_norm_is_refused_without_a_warning(make):
    # regression: 1e308 entries overflowed the norm or trace with a RuntimeWarning, which
    # the command line printed on stderr before its error message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidState, match="inf deviates from 1"):
            make(np.array([1e308, 1e308]))


def test_density_operator_validation():
    sys_ = qmat.qubits("Q")
    with pytest.raises(InvalidState):
        DensityOperator(sys_, np.array([[0.6, 0.0], [0.1, 0.4]]))  # not hermitian
    with pytest.raises(InvalidState):
        DensityOperator(sys_, np.array([[1.2, 0.0], [0.0, -0.2]]))  # not psd
    with pytest.raises(InvalidState):
        DensityOperator(sys_, np.eye(2))  # trace 2
    half = DensityOperator(sys_, np.eye(2) / 2.0)
    assert half.trace() == pytest.approx(1.0)
    sub = DensityOperator(sys_, np.eye(2) / 4.0, subnormalized=True)
    assert sub.trace() == pytest.approx(0.5)


@pytest.mark.parametrize("d", [2, 16, 256])
@pytest.mark.parametrize("lam_min, accepted", [
    (-2e-9, False), (-1.01e-9, False), (-0.99e-9, True), (-0.5e-9, True), (0.0, True)])
def test_positivity_decided_by_smallest_eigenvalue(d, lam_min, accepted):
    rng = np.random.default_rng(d)
    rest = rng.random(d - 1) + 0.1
    spectrum = np.concatenate([[lam_min], rest * (1.0 - lam_min) / rest.sum()])
    u = random_unitary(d, rng)
    mat = (u * spectrum) @ u.conj().T
    sys_ = qmat.system(("S", d))
    if accepted:
        DensityOperator(sys_, mat)
    else:
        with pytest.raises(InvalidState, match="negative eigenvalue") as exc:
            DensityOperator(sys_, mat)
        assert float(str(exc.value).rsplit(" ", 1)[1]) == pytest.approx(lam_min, abs=1e-12)


@pytest.mark.parametrize("d", [2, 16, 256])
def test_rank_deficient_states_are_accepted(d):
    sys_ = qmat.system(("S", d))
    DensityOperator(sys_, random_pure_state(sys_, np.random.default_rng(d)).to_density().matrix)
    DensityOperator(sys_, np.zeros((d, d)), subnormalized=True)


def test_basis_vector_ordering():
    # first register is the most significant digit: |1>_A |2>_B sits at 1 * 3 + 2
    amps = np.zeros(6)
    amps[1 * 3 + 2] = 1.0
    t = StateVector(qmat.system(("A", 2), ("B", 3)), amps).tensorized()
    assert t.shape == (2, 3)
    assert t[1, 2] == 1.0 and np.count_nonzero(t) == 1


def test_tensor_matches_kron():
    rng = np.random.default_rng(5)
    a = random_density(qmat.system(("A", 2)), rng)
    b = random_density(qmat.system(("B", 3)), rng)
    ab = tensor(a, b)
    assert ab.system.registers == (("A", 2), ("B", 3))
    assert np.allclose(ab.matrix, np.kron(a.matrix, b.matrix))
    with pytest.raises(RegisterError):
        tensor(a, a)


def test_partial_trace_ghz_frozen():
    rho = ghz().to_density()
    marg = partial_trace(rho, ["R", "B"])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(marg.matrix, expected, atol=1e-12)
    # relative order of kept registers is preserved
    assert partial_trace(rho, ["C", "R"]).system.labels == ("R", "C")


def test_partial_trace_refuses_a_repeated_label():
    # a register kept twice is refused by name, as vector_marginal refuses it
    for marginal, state in ((partial_trace, ghz().to_density()), (vector_marginal, ghz())):
        with pytest.raises(RegisterError, match=r"\['R', 'R'\]"):
            marginal(state, ["R", "R"])


def test_partial_trace_against_einsum_oracle():
    rng = np.random.default_rng(11)
    sys_ = qmat.system(("A", 2), ("B", 3), ("C", 2))
    rho = random_density(sys_, rng)
    t = rho.matrix.reshape(2, 3, 2, 2, 3, 2)
    oracle = np.einsum("ajcbjd->acbd", t).reshape(4, 4)
    got = partial_trace(rho, ["A", "C"]).matrix
    assert np.allclose(got, oracle, atol=1e-12)


def test_marginal_matrix_raw():
    rng = np.random.default_rng(3)
    rho = random_density(qmat.system(("X", 2), ("Y", 2)), rng)
    keep_x = marginal_matrix(rho.matrix, (2, 2), [0])
    assert np.allclose(keep_x, partial_trace(rho, ["X"]).matrix, atol=1e-12)


def test_vector_marginal_matches_density_route():
    rng = np.random.default_rng(7)
    psi = random_pure_state(qmat.qubits("A", "B", "C"), rng)
    via_vec = vector_marginal(psi, ["A", "C"])
    via_rho = partial_trace(psi.to_density(), ["A", "C"])
    assert np.allclose(via_vec.matrix, via_rho.matrix, atol=1e-12)
    # registers come out in the order asked for
    swapped = vector_marginal(psi, ["C", "A"])
    assert swapped.system.labels == ("C", "A")
    assert np.allclose(swapped.matrix, permute_registers(via_rho, ["C", "A"]).matrix,
                       atol=1e-12)


def test_permute_and_relabel():
    rng = np.random.default_rng(2)
    psi = random_pure_state(qmat.system(("A", 2), ("B", 3), ("C", 2)), rng)
    perm = permute_vector(psi, ["C", "A", "B"])
    assert perm.system.labels == ("C", "A", "B")
    back = permute_vector(perm, ["A", "B", "C"])
    assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-14)

    rho = psi.to_density()
    rho_p = permute_registers(rho, ["B", "C", "A"])
    assert rho_p.system.labels == ("B", "C", "A")
    assert np.allclose(
        permute_registers(rho_p, ["A", "B", "C"]).matrix, rho.matrix, atol=1e-14
    )

    renamed = StateVector(relabel_system(psi.system, {"A": "X"}), psi.amplitudes)
    assert renamed.system.labels == ("X", "B", "C")
    assert np.allclose(renamed.amplitudes, psi.amplitudes)
    renamed_rho = relabel_density(rho, {"C": "Z"})
    assert renamed_rho.system.labels == ("A", "B", "Z")


def test_apply_subsystem_matrix_against_dense_embedding():
    rng = np.random.default_rng(13)
    sys_ = qmat.system(("A", 2), ("B", 2), ("C", 2))
    psi = random_pure_state(sys_, rng)
    u = random_unitary(2, rng)

    got, new_sys = apply_subsystem_matrix(psi.amplitudes, sys_, u, ["B"])
    dense = np.kron(np.kron(np.eye(2), u), np.eye(2))
    assert new_sys.labels == ("A", "B", "C")
    assert np.allclose(got, dense @ psi.amplitudes, atol=1e-12)

    # non-adjacent pair (A, C), operator in that label order
    u2 = random_unitary(4, rng)
    got2, sys2 = apply_subsystem_matrix(psi.amplitudes, sys_, u2, ["A", "C"])
    # dense oracle: permute (A,C,B), apply u2 x id, permute back
    t = psi.amplitudes.reshape(2, 2, 2).transpose(0, 2, 1).reshape(8)
    t = (np.kron(u2, np.eye(2)) @ t).reshape(2, 2, 2)
    expect = t  # order A, C, B matches the returned system
    assert sys2.labels == ("A", "C", "B")
    assert np.allclose(got2.reshape(2, 2, 2), expect, atol=1e-12)


def test_apply_subsystem_matrix_rectangular_output():
    # a 2 -> 3 isometry replaces the register with a new one
    rng = np.random.default_rng(4)
    sys_ = qmat.qubits("A", "B")
    psi = random_pure_state(sys_, rng)
    v = random_isometry(2, 3, rng)
    got, new_sys = apply_subsystem_matrix(psi.amplitudes, sys_, v, ["B"], [("B2", 3)])
    assert new_sys.registers == (("A", 2), ("B2", 3))
    assert np.vdot(got, got).real == pytest.approx(1.0)


def test_purify_reconstructs_and_uses_minimal_rank():
    rng = np.random.default_rng(9)
    # rank 3 state on a 4-dim system
    evals = np.array([0.5, 0.3, 0.2, 0.0])
    u = random_unitary(4, rng)
    rho = DensityOperator(qmat.system(("S", 4)), (u * evals) @ u.conj().T)
    psi = purify(rho, purifier_label="P")
    assert psi.system.labels == ("S", "P")
    assert psi.system.dims[1] == 3
    back = vector_marginal(psi, ["S"])
    assert np.allclose(back.matrix, rho.matrix, atol=1e-8)


def test_fidelity_pure_states_overlap():
    rng = np.random.default_rng(21)
    a = random_pure_state(qmat.qubits("Q"), rng)
    b = random_pure_state(qmat.qubits("Q"), rng)
    f = fidelity(a.to_density(), b.to_density())
    assert f == pytest.approx(abs(np.vdot(a.amplitudes, b.amplitudes)), abs=1e-8)


def test_fidelity_properties():
    rng = np.random.default_rng(22)
    sys_ = qmat.qubits("A", "B")
    for _ in range(20):
        rho = random_density(sys_, rng)
        sig = random_density(sys_, rng)
        f = fidelity(rho, sig)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
        assert f == pytest.approx(fidelity(sig, rho), abs=1e-9)
        assert -1e-9 <= f <= 1.0 + 1e-9
        # tracing out a register cannot decrease fidelity
        fa = fidelity(partial_trace(rho, ["A"]), partial_trace(sig, ["A"]))
        assert fa >= f - 1e-9


def test_purified_distance_triangle():
    rng = np.random.default_rng(23)
    sys_ = qmat.qubits("Q")
    for _ in range(50):
        a, b, c = (random_density(sys_, rng) for _ in range(3))
        assert purified_distance(a, c) <= (
            purified_distance(a, b) + purified_distance(b, c) + 1e-9
        )


def test_trace_norm_and_distance():
    m = np.diag([1.0, -2.0, 0.5])
    assert trace_norm(m) == pytest.approx(3.5)
    rng = np.random.default_rng(24)
    rho = random_density(qmat.qubits("Q"), rng)
    assert trace_norm(rho.matrix - rho.matrix) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_matrices_diagonal_root():
    rng = np.random.default_rng(27)
    rho = random_density(qmat.system(("S", 6)), rng)
    root = np.sqrt(rng.random(6))
    assert qmat.fidelity_matrices(rho.matrix, root) == pytest.approx(
        qmat.fidelity_matrices(rho.matrix, np.diag(root)), abs=1e-14)


def test_psd_sqrt():
    rng = np.random.default_rng(25)
    rho = random_density(qmat.system(("S", 5)), rng)
    s = psd_sqrt(rho.matrix)
    assert np.allclose(s @ s, rho.matrix, atol=1e-10)


def test_isometry_validation_and_apply():
    rng = np.random.default_rng(26)
    v = random_isometry(2, 4, rng)
    iso = Isometry(qmat.system(("A", 2)), qmat.system(("A'", 4)), v)
    rho = random_density(qmat.system(("A", 2)), rng)
    # an isometry acts as the channel with the single Kraus operator V
    out = apply_channel(KrausChannel(iso.in_system, iso.out_system, (iso.matrix,)), rho)
    assert out.system.labels == ("A'",)
    assert out.trace() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidState):
        Isometry(qmat.system(("A", 2)), qmat.system(("A'", 4)), np.ones((4, 2)))


def test_kraus_channel_validation_and_apply():
    rng = np.random.default_rng(27)
    ch = random_channel(qmat.qubits("Q"), qmat.qubits("Q"), rng, env_dim=3)
    rho = random_density(qmat.qubits("Q"), rng)
    out = apply_channel(ch, rho)
    assert out.trace() == pytest.approx(1.0, abs=1e-9)
    bad = [np.eye(2) * 0.5]
    with pytest.raises(InvalidState):
        KrausChannel(qmat.qubits("Q"), qmat.qubits("Q"), tuple(bad))


def test_haar_vector_seeded_and_normalized():
    a = haar_vector(8, np.random.default_rng(1))
    b = haar_vector(8, np.random.default_rng(1))
    assert np.allclose(a, b)
    assert np.vdot(a, a).real == pytest.approx(1.0)


def test_random_unitary_and_density():
    rng = np.random.default_rng(30)
    u = random_unitary(4, rng)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)
    rho = random_density(qmat.qubits("A", "B"), rng)
    assert rho.trace() == pytest.approx(1.0)
    evs = np.linalg.eigvalsh(rho.matrix)
    assert evs.min() > -1e-12
