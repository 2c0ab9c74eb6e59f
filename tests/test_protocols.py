import json
import math

import numpy as np
import pytest

from qredist import qmat
from qredist.coherence import is_free_state, neumark_branch, neumark_dilation
from qredist.entropy import max_relative_entropy
from qredist.protocols import (
    MAX_AMPLITUDES,
    MAX_DENSITY_DIM,
    BlockMixture,
    BoundViolation,
    BudgetExceeded,
    QsrInstance,
    builtin_qsr_instances,
    close_states_measurement_check,
    coherence_creation,
    convex_split_bound_check,
    convex_split_state,
    qsr_decoder_p1,
    qsr_full,
    qsr_parameters,
    random_split_instance,
    sequential_projector_bound_check,
    uhlmann_isometry,
)
from qredist.qmat import (
    DensityOperator,
    Povm,
    RegisterError,
    StateVector,
    partial_trace,
    tensor,
    vector_marginal,
)
from qredist.sampling import random_density, random_pure_state


# --------------------------------------------------------------------------
# coherence creation


def test_coherence_creation_counts():
    # c = q + min(e, q) across a small grid
    for q, e in ((0, 0), (1, 0), (0, 3), (1, 1), (2, 1), (2, 2), (3, 5)):
        t = coherence_creation(q, e)
        m = min(e, q)
        assert t.coherent_qubits_out == q + m
        assert t.qubits_sent == q
        assert t.singlets_consumed == m
        assert t.cobits_sent == 0
        assert t.achieved_fidelity == pytest.approx(1.0, abs=1e-9)


def test_coherence_creation_audit_under_two():
    t = coherence_creation(3, 2)
    audit = t.details["rc_audit"]
    assert len(audit) == 3  # one entry per received qubit
    for entry in audit:
        assert entry["rc_gain"] <= 2.0 + 1e-8
    # the singlet sends gain a full 2 bits each, the fresh |+> sends 1 bit
    gains = sorted(round(entry["rc_gain"], 6) for entry in audit)
    assert gains == [1.0, 2.0, 2.0]


def test_coherence_creation_rejects_negative_and_budget():
    with pytest.raises(ValueError):
        coherence_creation(-1, 0)
    with pytest.raises(BudgetExceeded):
        coherence_creation(10, 10, budget=2 ** 12)


def test_coherence_creation_transcript_serializes():
    t = coherence_creation(2, 1)
    payload = json.dumps(t.to_json(), sort_keys=True)
    assert "coherent_qubits_out" in payload


# --------------------------------------------------------------------------
# convex split


def test_convex_split_two_slots_hand_assembly():
    rng = np.random.default_rng(0)
    rho, sigma = random_split_instance(rng, k_cap=0.4)
    tau = convex_split_state(rho, sigma, 2)
    assert tau.system.labels == ("P", "Q1", "Q2")
    # manual: (rho_{PQ1} x sigma_{Q2} + rho_{PQ2} x sigma_{Q1}) / 2
    t1 = tensor(qmat.relabel_density(rho, {"Q": "Q1"}),
                qmat.relabel_density(sigma, {"Q": "Q2"}))
    t2 = tensor(qmat.relabel_density(rho, {"Q": "Q2"}),
                qmat.relabel_density(sigma, {"Q": "Q1"}))
    t2 = qmat.permute_registers(t2, ["P", "Q1", "Q2"])
    expected = (t1.matrix + t2.matrix) / 2.0
    assert np.allclose(tau.matrix, expected, atol=1e-12)


def test_convex_split_product_input_is_exact():
    # with rho = rho_P x sigma the split state is the full product for any n
    rng = np.random.default_rng(1)
    rho_p = random_density(qmat.system(("P", 2)), rng)
    sigma = random_density(qmat.system(("Q", 2)), rng)
    joint = tensor(rho_p, sigma)
    tau = convex_split_state(joint, sigma, 4)
    expected = rho_p
    for j in range(1, 5):
        expected = tensor(expected, qmat.relabel_density(sigma, {"Q": f"Q{j}"}))
    assert np.allclose(tau.matrix, expected.matrix, atol=1e-12)


def test_convex_split_validation():
    rng = np.random.default_rng(2)
    rho, sigma = random_split_instance(rng, k_cap=0.3)
    with pytest.raises(ValueError):
        convex_split_state(rho, sigma, 0)
    with pytest.raises(RegisterError):
        convex_split_state(rho, qmat.relabel_density(sigma, {"Q": "Z"}), 2)
    with pytest.raises(BudgetExceeded):
        convex_split_state(rho, sigma, 11)  # 2 * 2^11 exceeds the density cap


def test_random_split_instance_caps_k():
    rng = np.random.default_rng(3)
    for cap in (0.15, 0.4):
        for _ in range(5):
            rho, sigma = random_split_instance(rng, k_cap=cap)
            prod = tensor(partial_trace(rho, ["P"]), sigma)
            k = max_relative_entropy(rho, prod).value
            assert k <= cap + 1e-9
    # the Q marginal of the capped state is still sigma
    rho, sigma = random_split_instance(np.random.default_rng(4), k_cap=0.2)
    assert np.allclose(partial_trace(rho, ["Q"]).matrix, sigma.matrix, atol=1e-12)


def test_convex_split_bound_check():
    rng = np.random.default_rng(5)
    rho, sigma = random_split_instance(rng, k_cap=0.3)
    chk = convex_split_bound_check(rho, sigma, eps=0.0, delta=0.25)
    assert chk.n == math.ceil(2.0 ** chk.k / 0.25)
    assert chk.bound == pytest.approx(1.0 - 0.25)
    assert chk.fidelity_squared >= chk.bound
    assert chk.fidelity_squared <= 1.0 + 1e-12


def test_convex_split_bound_check_register_order():
    # the joint state stored as (Q, P) describes the same task as (P, Q)
    rho, sigma = random_split_instance(np.random.default_rng(3), 0.5)
    plain = convex_split_bound_check(rho, sigma, 0.0, 0.25)
    flipped = convex_split_bound_check(qmat.permute_registers(rho, ["Q", "P"]), sigma, 0.0, 0.25)
    assert plain.n == flipped.n == 6
    assert flipped.k == pytest.approx(plain.k, abs=1e-12)
    assert flipped.fidelity_squared == pytest.approx(plain.fidelity_squared, abs=1e-12)


def test_convex_split_fidelity_improves_with_delta():
    rng = np.random.default_rng(6)
    rho, sigma = random_split_instance(rng, k_cap=0.2)
    f_half = convex_split_bound_check(rho, sigma, 0.0, 0.5).fidelity_squared
    f_quarter = convex_split_bound_check(rho, sigma, 0.0, 0.25).fidelity_squared
    assert f_quarter >= f_half - 1e-12


def test_convex_split_bound_check_validation():
    rng = np.random.default_rng(7)
    rho, sigma = random_split_instance(rng, k_cap=0.2)
    with pytest.raises(ValueError):
        convex_split_bound_check(rho, sigma, 0.0, 1.5)
    with pytest.raises(ValueError):
        convex_split_bound_check(rho, sigma, -0.1, 0.5)


# --------------------------------------------------------------------------
# transfer isometry


def test_uhlmann_isometry_reaches_marginal_fidelity():
    # the achievable overlap equals the fidelity of the shared marginals
    rng = np.random.default_rng(8)
    for i in range(20):
        # the second half has a smaller source side than target side (dc < db)
        psi1 = random_pure_state(qmat.system(("S", 2), ("X", 2 if i < 10 else 4)), rng)
        psi2 = random_pure_state(qmat.qubits("S", "Y"), rng)
        viso = uhlmann_isometry(psi1, psi2, shared=["S"])
        amps, sys_ = qmat.apply_subsystem_matrix(
            psi2.amplitudes, psi2.system, viso.matrix, ["Y"], viso.out_system.registers
        )
        amps, sys_ = qmat.permute_vector_axes(amps, sys_, ["S", "X"])
        overlap = abs(np.vdot(psi1.amplitudes, amps))
        target = qmat.fidelity(vector_marginal(psi1, ["S"]), vector_marginal(psi2, ["S"]))
        assert overlap == pytest.approx(target, abs=1e-9)


def test_uhlmann_isometry_identity_case():
    rng = np.random.default_rng(9)
    psi = random_pure_state(qmat.qubits("S", "X"), rng)
    psi2 = qmat.relabel_vector(psi, {"X": "Y"})
    viso = uhlmann_isometry(psi, psi2, shared=["S"])
    amps, sys_ = qmat.apply_subsystem_matrix(
        psi2.amplitudes, psi2.system, viso.matrix, ["Y"], viso.out_system.registers
    )
    assert abs(np.vdot(psi.amplitudes, amps)) == pytest.approx(1.0, abs=1e-10)


def test_uhlmann_isometry_needs_room():
    rng = np.random.default_rng(10)
    small = random_pure_state(qmat.system(("S", 2), ("X", 2)), rng)
    big = random_pure_state(qmat.system(("S", 2), ("Y", 4)), rng)
    with pytest.raises(qmat.DimensionMismatch):
        uhlmann_isometry(small, big, shared=["S"])  # 4 -> 2 cannot be isometric
    with pytest.raises(RegisterError):
        uhlmann_isometry(small, qmat.relabel_vector(big, {"S": "T"}))


# --------------------------------------------------------------------------
# redistribution instances


def test_qsr_instance_canonical_order_and_validation():
    inst = builtin_qsr_instances()["uncorrelated-pure"]
    scrambled = qmat.permute_vector(inst.psi, ["C", "B", "A", "R"])
    again = QsrInstance(psi=scrambled, sigma_c=inst.sigma_c,
                        eps1=inst.eps1, eps2=inst.eps2, gamma=inst.gamma)
    assert again.psi.system.labels == ("R", "A", "B", "C")
    assert np.allclose(again.psi.amplitudes, inst.psi.amplitudes)

    plus_sigma = DensityOperator(qmat.system(("C", 2)), np.full((2, 2), 0.5))
    with pytest.raises(Exception):
        QsrInstance(psi=inst.psi, sigma_c=plus_sigma, eps1=0.3, eps2=0.3, gamma=0.3)
    with pytest.raises(ValueError):
        QsrInstance(psi=inst.psi, sigma_c=inst.sigma_c, eps1=1.2, eps2=0.3, gamma=0.3)
    bad_sigma = DensityOperator(qmat.system(("C", 2)), np.diag([0.0, 1.0]))
    with pytest.raises(Exception):
        # rho_C has mass on |0> but the decoding prior has none
        QsrInstance(psi=inst.psi, sigma_c=bad_sigma, eps1=0.3, eps2=0.3, gamma=0.3)


def test_builtin_instance_parameters_frozen():
    params = {name: qsr_parameters(inst) for name, inst in builtin_qsr_instances().items()}
    p1 = params["uncorrelated-pure"]
    assert p1.k == pytest.approx(0.0, abs=1e-9)
    assert (p1.n, p1.b, p1.cobits) == (7, 1, 3)
    p2 = params["classical-side-info"]
    assert p2.k == pytest.approx(0.0, abs=1e-9)
    assert (p2.n, p2.b, p2.cobits) == (4, 1, 2)
    p3 = params["mismatched-prior"]
    assert p3.k == pytest.approx(math.log2(7.0 / 6.0), abs=1e-9)
    assert (p3.n, p3.b, p3.cobits) == (4, 1, 2)
    # the free test is diagonal in every case
    for p in params.values():
        assert np.max(np.abs(p.pi_bc - np.diag(np.diagonal(p.pi_bc)))) <= 1e-9


def test_qsr_full_runs_all_builtins():
    for name, inst in builtin_qsr_instances().items():
        t = qsr_full(inst)
        d = t.details
        assert d["name"] == name
        assert t.achieved_fidelity >= 0.99
        assert d["purified_distance"] <= d["distance_bound"]
        assert t.singlets_consumed == d["n"]
        assert t.cobits_sent == d["cobits"]
        assert t.qubits_sent == 0  # cobit-assisted protocol sends no raw qubits
        assert len(t.steps) >= 4
        json.dumps(t.to_json(), sort_keys=True)  # must serialize


def test_qsr_full_frozen_fidelities():
    runs = {name: qsr_full(inst) for name, inst in builtin_qsr_instances().items()}
    assert runs["uncorrelated-pure"].achieved_fidelity == pytest.approx(0.998665, abs=1e-4)
    assert runs["classical-side-info"].achieved_fidelity == pytest.approx(0.998105, abs=1e-4)
    assert runs["mismatched-prior"].achieved_fidelity == pytest.approx(0.997794, abs=1e-4)


def test_qsr_full_budget_guard():
    inst = builtin_qsr_instances()["uncorrelated-pure"]
    with pytest.raises(BudgetExceeded):
        qsr_full(inst, budget=64)


def test_qsr_override_shrinks_slots():
    # fewer slots than prescribed voids the guarantee but still runs
    from dataclasses import replace

    inst = replace(builtin_qsr_instances()["uncorrelated-pure"], n_override=2)
    t = qsr_full(inst)
    assert t.details["n"] == 2
    assert t.details["overridden"] is True
    assert 0.0 <= t.achieved_fidelity <= 1.0


# --------------------------------------------------------------------------
# sequential decoder


def test_decoder_single_slot_identity_test():
    # b = 1 with the always-firing test reproduces the state exactly
    inst = builtin_qsr_instances()["uncorrelated-pure"]
    mixture = BlockMixture(phi=inst.psi, sigma_c=inst.sigma_c)
    pi = np.eye(4, dtype=complex)
    res = qsr_decoder_p1(mixture, 1, pi)
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.outcome_probs[1] == pytest.approx(1.0, abs=1e-9)
    assert res.outcome_probs[2] == pytest.approx(0.0, abs=1e-12)


def test_decoder_outcomes_form_distribution():
    inst = builtin_qsr_instances()["classical-side-info"]
    params = qsr_parameters(inst)
    mixture = BlockMixture(phi=inst.psi, sigma_c=inst.sigma_c)
    res = qsr_decoder_p1(mixture, 2, params.pi_bc,
                         eps2=inst.eps2, gamma=inst.gamma, d_f=params.d_f)
    total = sum(res.outcome_probs.values())
    assert total == pytest.approx(1.0, abs=1e-9)
    assert res.post_state.trace() == pytest.approx(1.0, abs=1e-9)
    assert res.post_state.system.labels == ("R", "A", "B", "C1")
    assert 0.0 <= res.fidelity <= 1.0
    assert res.purified_distance <= res.transcript.details["claim_bound"] + 1e-9


def test_decoder_matches_qsr_full_outcomes():
    # qsr_full decodes each announced block with the same sequential test, so
    # its outcome statistics are those of the block mixture up to the
    # purified distance of the transfer (the trace distance bounds every
    # outcome probability)
    from dataclasses import replace

    instances = builtin_qsr_instances()
    for inst in [*instances.values(), replace(instances["classical-side-info"], b_override=2)]:
        params = qsr_parameters(inst)
        full = qsr_full(inst)
        res = qsr_decoder_p1(BlockMixture(phi=inst.psi, sigma_c=inst.sigma_c),
                             params.b, params.pi_bc)
        slack = math.sqrt(max(0.0, 1.0 - full.details["overlap"] ** 2)) + 1e-9
        full_probs = full.steps[-1].data["outcome_probs"]
        assert sorted(full_probs) == sorted(str(k) for k in res.outcome_probs)
        for k, p in res.outcome_probs.items():
            assert full_probs[str(k)] == pytest.approx(p, abs=slack)


def test_decoder_rejects_non_free_tests():
    inst = builtin_qsr_instances()["uncorrelated-pure"]
    mixture = BlockMixture(phi=inst.psi, sigma_c=inst.sigma_c)
    coherent_pi = np.full((4, 4), 0.25)
    with pytest.raises(Exception):
        qsr_decoder_p1(mixture, 1, coherent_pi)
    with pytest.raises(Exception):
        qsr_decoder_p1(mixture, 1, np.diag([1.5, 0.0, 0.0, 0.0]).astype(complex))


def test_decoder_matches_projective_realization():
    # the square-root measurement branch equals the pointer-projected branch
    # of the dilated two-outcome measurement
    rng = np.random.default_rng(11)
    sys_ = qmat.qubits("Q")
    diag = np.array([0.8, 0.3])
    a0 = np.diag(np.sqrt(diag)).astype(complex)
    a1 = np.diag(np.sqrt(1.0 - diag)).astype(complex)
    povm = Povm(sys_, (a0, a1))
    dil = neumark_dilation(povm, pointer_label="P")
    for _ in range(5):
        rho = random_density(sys_, rng)
        for i, a in enumerate((a0, a1)):
            direct = a @ rho.matrix @ a.conj().T
            dilated = neumark_branch(dil, rho, i)
            assert np.allclose(direct, dilated, atol=1e-10)


# --------------------------------------------------------------------------
# measured auxiliary bounds


def test_sequential_projector_bound():
    rng = np.random.default_rng(12)
    sys_ = qmat.system(("S", 4))
    # state concentrated away from the projectors: small damage
    rho = DensityOperator(sys_, np.diag([0.9, 0.06, 0.03, 0.01]))
    p1 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
    lhs, rhs = sequential_projector_bound_check(rho, [p1, p2])
    assert lhs <= rhs
    assert rhs == pytest.approx((0.06 + 0.03) ** 0.25, abs=1e-12)
    with pytest.raises(Exception):
        sequential_projector_bound_check(rho, [np.diag([0.5, 0.0, 0.0, 0.0])])


def test_close_states_measurement_transfer():
    rng = np.random.default_rng(13)
    sys_ = qmat.qubits("Q")
    rho = random_density(sys_, rng)
    bump = DensityOperator(sys_, 0.95 * rho.matrix + 0.05 * np.eye(2) / 2.0)
    evs, vecs = np.linalg.eigh(rho.matrix)
    op = np.outer(vecs[:, -1], vecs[:, -1].conj())  # passes the top eigenvector
    lhs, bound = close_states_measurement_check(rho, bump, op)
    assert lhs >= bound - 1e-9


def test_budget_constants():
    assert MAX_AMPLITUDES == 2 ** 13
    assert MAX_DENSITY_DIM == 2 ** 11
