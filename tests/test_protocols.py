import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dense_oracles import dense_max_relative_entropy
from qredist import protocols, qmat
from qredist.entropy import EntropicValue, max_relative_entropy, restricted_hypothesis_test
from qredist.protocols import (
    MAX_AMPLITUDES,
    MAX_DENSITY_DIM,
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
    InvalidState,
    RegisterError,
    fidelity_matrices,
    partial_trace,
    psd_sqrt,
    tensor,
    vector_marginal,
)
from qredist.sampling import random_density, random_pure_state, random_unitary


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


def test_coherence_creation_audit_stays_within_the_amplitudes():
    # regression: the audit built a 2^c x 2^c density matrix at every step, 64 MB for
    # one matrix at c = 11, while the budget counts only the 2^c amplitudes
    tracemalloc.start()
    try:
        t = coherence_creation(6, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.coherent_qubits_out == 11
    assert peak < 16 * 2 ** 20


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


def _convex_split_reference(rho_pq, sigma_q, n):
    """Term-by-term oracle: relabel, tensor and permute each of the n terms."""
    q_labels = list(sigma_q.system.labels)
    p_labels = [lab for lab in rho_pq.system.labels if lab not in q_labels]
    order = p_labels + [f"{lab}{j}" for j in range(1, n + 1) for lab in q_labels]
    terms = []
    for j in range(1, n + 1):
        term = qmat.relabel_density(rho_pq, {lab: f"{lab}{j}" for lab in q_labels})
        for i in range(1, n + 1):
            if i != j:
                term = tensor(term, qmat.relabel_density(
                    sigma_q, {lab: f"{lab}{i}" for lab in q_labels}))
        terms.append(qmat.permute_registers(term, order))
    return terms[0].system, sum(term.matrix for term in terms) / n


def test_convex_split_matches_term_by_term_oracle():
    rng = np.random.default_rng(14)
    rho, sigma = random_split_instance(rng, k_cap=0.4)
    joint_p12 = random_density(qmat.system(("P1", 2), ("Q", 2), ("P2", 2)), rng)
    joint_xy = random_density(qmat.system(("P", 2), ("X", 2), ("Y", 2)), rng)
    joint_q3 = random_density(qmat.system(("P", 2), ("Q", 3)), rng)
    cases = [
        (qmat.permute_registers(rho, ["Q", "P"]), sigma),  # stored as (Q, P)
        (joint_p12, partial_trace(joint_p12, ["Q"])),  # P over two registers
        # sigma lists its two registers in the other order
        (joint_xy, qmat.permute_registers(partial_trace(joint_xy, ["X", "Y"]), ["Y", "X"])),
        (joint_q3, partial_trace(joint_q3, ["Q"])),  # d_Q = 3
    ]
    for joint, sig in cases:
        for n in range(1, 5):
            tau = convex_split_state(joint, sig, n)
            ref_system, ref_matrix = _convex_split_reference(joint, sig, n)
            assert tau.system == ref_system
            assert np.max(np.abs(tau.matrix - ref_matrix)) <= 1e-12


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


def test_random_split_instance_rejects_bad_cap():
    # a NaN cap used to slip past a "< 0" test and fail later on a NaN mixing weight
    for cap in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError, match="k_cap must be finite and nonnegative"):
            random_split_instance(np.random.default_rng(0), cap)


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


def _dense_k(rho_pq, sigma_q):
    """k the way it was taken before it was read in the product's eigenbasis: against the
    validated rho_P x sigma in rho_pq's register order, through a dense eigh of the product."""
    p_labels = [lab for lab in rho_pq.system.labels if lab not in sigma_q.system.labels]
    product = tensor(partial_trace(rho_pq, p_labels), sigma_q)
    if product.system.labels != rho_pq.system.labels:
        product = qmat.permute_registers(product, rho_pq.system.labels)
    return dense_max_relative_entropy(rho_pq.matrix, product.matrix)


def _with_k(monkeypatch, k, fn, *args):
    """fn(*args) with every k the protocols read replaced by k: the earlier route's run."""
    with monkeypatch.context() as m:
        m.setattr(protocols, "_max_relative_entropy_eig", lambda *_: EntropicValue(k))
        return fn(*args)


def test_split_k_matches_the_dense_product_route(monkeypatch):
    # split-battery's 500 pairs at its default seed 30, drawn in its plan order, then a
    # d_Q = 3 pair and a rank-deficient sigma, which take the dense route, and a pair
    # stored in (Q, P) order; with the dense k put back, n and F^2 come out the same bits
    rng = np.random.default_rng(30)
    cases = [(*random_split_instance(rng, k_cap), delta)
             for delta, k_cap, count in ((0.5, 0.5, 300), (0.25, 0.5, 194), (0.125, 0.15, 6))
             for _ in range(count)]
    rng = np.random.default_rng(14)
    joint_q3 = random_density(qmat.system(("P", 2), ("Q", 3)), rng)
    rho, sigma = random_split_instance(rng, 0.5)
    cases += [(joint_q3, partial_trace(joint_q3, ["Q"]), 0.9),
              _embedded_rank_two_sigma(rng) + (0.9,),
              (qmat.permute_registers(rho, ["Q", "P"]), sigma, 0.25)]
    for rho, sigma, delta in cases:
        chk = convex_split_bound_check(rho, sigma, 0.0, delta)
        k = _dense_k(rho, sigma)
        assert abs(chk.k - k) <= 1e-12
        before = _with_k(monkeypatch, k, convex_split_bound_check, rho, sigma, 0.0, delta)
        assert (chk.n, chk.fidelity_squared) == (before.n, before.fidelity_squared)


def test_split_k_support_violation_raises():
    # rho_P x |0><0| misses the joint state's weight on Q = 1
    joint = random_density(qmat.system(("P", 2), ("Q", 2)), np.random.default_rng(8))
    pure = DensityOperator(qmat.system(("Q", 2)), np.diag([1.0, 0.0]))
    with pytest.raises(InvalidState, match="unsupported"):
        convex_split_bound_check(joint, pure, 0.0, 0.5)


def test_split_check_validates_rho_p_and_decomposes_only_the_factors(monkeypatch):
    rho, sigma = random_split_instance(np.random.default_rng(40), 0.15)
    validated, eigh_dims = [], []
    validate, eigh = DensityOperator.__post_init__, np.linalg.eigh

    def counting(self):
        validated.append(self.system.labels)
        validate(self)

    def spy(a, *args, **kwargs):
        eigh_dims.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(DensityOperator, "__post_init__", counting)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    assert convex_split_bound_check(rho, sigma, 0.0, 0.125).n == 9
    assert validated == [("P",)]
    assert eigh_dims and max(eigh_dims) <= 2, eigh_dims


def _dense_split_fidelity_squared(rho_pq, sigma_q, n):
    """The dense route: S tau S, S the Kronecker product of the psd_sqrt roots of
    rho_P and n copies of sigma, then eigvalsh."""
    p_labels = [lab for lab in rho_pq.system.labels if lab not in sigma_q.system.labels]
    root = psd_sqrt(partial_trace(rho_pq, p_labels).matrix)
    for _ in range(n):
        root = np.kron(root, psd_sqrt(sigma_q.matrix))
    f = fidelity_matrices(convex_split_state(rho_pq, sigma_q, n).matrix, root)
    return min(max(f, 0.0), 1.0) ** 2


def _embedded_rank_two_sigma(rng):
    """A joint state on P x Q with d_Q = 3 whose Q marginal has rank 2."""
    small = random_density(qmat.system(("P", 2), ("Q", 2)), rng).matrix.reshape(2, 2, 2, 2)
    mat = np.zeros((2, 3, 2, 3), dtype=complex)
    mat[:, :2, :, :2] = small
    joint = DensityOperator(qmat.system(("P", 2), ("Q", 3)), mat.reshape(6, 6))
    return joint, partial_trace(joint, ["Q"])


def test_convex_split_fidelity_matches_dense_oracle():
    # n = ceil(2^k / delta) >= 2 for delta < 1, so n = 2 is the smallest reachable slot count
    draws = [(0.5, 0.75, 2), (0.5, 0.5, 3), (0.5, 0.25, 6), (0.15, 0.125, 9)]
    for k_cap, delta, n in draws:
        rho, sigma = random_split_instance(np.random.default_rng(40), k_cap)
        chk = convex_split_bound_check(rho, sigma, 0.0, delta)
        assert chk.n == n
        assert abs(chk.fidelity_squared - _dense_split_fidelity_squared(rho, sigma, n)) <= 1e-12
    rng = np.random.default_rng(14)
    rho, sigma = random_split_instance(rng, 0.5)
    joint_p12 = random_density(qmat.system(("P1", 2), ("Q", 2), ("P2", 2)), rng)
    joint_q3 = random_density(qmat.system(("P", 2), ("Q", 3)), rng)
    cases = [
        (qmat.permute_registers(rho, ["Q", "P"]), sigma, 0.25, 1e-12),  # stored as (Q, P)
        (joint_p12, partial_trace(joint_p12, ["Q"]), 0.9, 1e-12),  # P over two registers
        (joint_q3, partial_trace(joint_q3, ["Q"]), 0.9, 1e-12),  # d_Q = 3
        # rank-deficient sigma: roots of rounding-level eigenvalues limit the dense route
        _embedded_rank_two_sigma(rng) + (0.9, 1e-8),
    ]
    for joint, sig, delta, tol in cases:
        chk = convex_split_bound_check(joint, sig, 0.0, delta)
        assert abs(chk.fidelity_squared - _dense_split_fidelity_squared(joint, sig, chk.n)) <= tol


def _forced_slot_count(rho, sigma, n):
    """A delta at which convex_split_bound_check picks n slots (n >= 2, k < log2(n - 1/2))."""
    k = max_relative_entropy(rho, tensor(partial_trace(rho, ["P"]), sigma)).value
    return 2.0 ** k / (n - 0.5)


def test_spin_block_fidelity_matches_dense_oracle():
    # full-rank qubit sigma takes the spin-block route; the dense oracle costs
    # about 0.9 s at dimension 1024 and 8 s at 2048, so d_P = 4 stops at n = 8
    for d_p, n_max in ((2, 9), (4, 8)):
        for n in range(2, n_max + 1):
            for seed in range(1 if n >= 8 else 3):
                rho, sigma = random_split_instance(np.random.default_rng(900 + seed), 0.5, dim_p=d_p)
                chk = convex_split_bound_check(rho, sigma, 0.0, _forced_slot_count(rho, sigma, n))
                assert chk.n == n
                assert type(chk.fidelity_squared) is float
                dense = _dense_split_fidelity_squared(rho, sigma, n)
                assert abs(chk.fidelity_squared - dense) <= 1e-10, (d_p, n, seed)


def _record_decompositions(monkeypatch):
    dims_seen = []
    for name in ("eigvalsh", "eigh", "cholesky"):
        def counted(a, *args, _kernel=getattr(np.linalg, name), **kwargs):
            dims_seen.append(np.shape(a)[-1])
            return _kernel(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return dims_seen


def test_qubit_split_check_never_decomposes_the_split_state(monkeypatch):
    rho, sigma = random_split_instance(np.random.default_rng(40), 0.15)
    dims_seen = _record_decompositions(monkeypatch)
    chk = convex_split_bound_check(rho, sigma, 0.0, 0.125)
    assert chk.n == 9
    assert dims_seen and max(dims_seen) <= 2 * (9 + 1), dims_seen


def test_split_check_falls_back_to_dense(monkeypatch):
    # d_Q = 3, and a qubit sigma of rank one, keep the dense route at d_P d_Q^n
    rng = np.random.default_rng(14)
    joint_q3 = random_density(qmat.system(("P", 2), ("Q", 3)), rng)
    pure = DensityOperator(qmat.system(("Q", 2)), np.diag([1.0, 0.0]))
    product = tensor(random_density(qmat.system(("P", 2)), rng), pure)
    for joint, sig, delta in ((joint_q3, partial_trace(joint_q3, ["Q"]), 0.9), (product, pure, 0.3)):
        dims_seen = _record_decompositions(monkeypatch)
        chk = convex_split_bound_check(joint, sig, 0.0, delta)
        monkeypatch.undo()
        assert 2 * sig.dim ** chk.n in dims_seen, dims_seen
    # the product input has k = 0, so n = ceil(1 / 0.3) and the split state is the target
    assert chk.n == 4 and chk.fidelity_squared == pytest.approx(1.0, abs=1e-12)


def test_spin_blocks_are_validated():
    # the blocks get the checks a DensityOperator would give the dense split state
    s = np.array([0.4, 0.6])
    root_p = np.sqrt(np.array([0.3, 0.7]))
    product = np.kron(np.diag([0.3, 0.7]), np.diag(s)).astype(complex)
    assert protocols._spin_block_fidelity(product, root_p, s, 2) == pytest.approx(1.0, abs=1e-12)
    negative = product.copy()
    negative[0, 0], negative[1, 1] = -0.12, 0.36  # Hermitian, trace 1, not PSD
    with pytest.raises(InvalidState, match="negative eigenvalue"):
        protocols._spin_block_fidelity(negative, root_p, s, 2)
    with pytest.raises(InvalidState, match="trace"):
        protocols._spin_block_fidelity(2.0 * product, root_p, s, 2)
    skewed = product.copy()
    skewed[0, 3] = 1e-6  # its mirror entry stays 0
    with pytest.raises(InvalidState, match="Hermitian"):
        protocols._spin_block_fidelity(skewed, root_p, s, 2)


def test_broadcast_kron_is_bit_identical():
    # the convex-split check rotates by the Kronecker product of two eigenbases
    rng = np.random.default_rng(40)
    for shape_a, shape_b in (((2, 2), (2, 2)), ((4, 4), (2, 2)), ((3, 3), (3, 3)), ((2, 3), (4, 5))):
        a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
        assert np.array_equal(protocols._kron_matrices(a, b), np.kron(a, b))


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
    for eps in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be"):
            convex_split_bound_check(rho, sigma, eps, 0.5)


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
    psi2 = qmat.StateVector(qmat.relabel_system(psi.system, {"X": "Y"}), psi.amplitudes)
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
        uhlmann_isometry(small, qmat.StateVector(qmat.relabel_system(big.system, {"S": "T"}),
                                                 big.amplitudes))


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
    # the free test travels as its d_BC weights
    for p in params.values():
        assert p.test_bc.shape == (4,)
        assert np.all((0.0 <= p.test_bc) & (p.test_bc <= 1.0))


def test_free_test_weights_match_the_dense_route():
    # the route qsr_parameters took before it read diagonals is the oracle: the restricted
    # test on the validated rho_BC against rho_B x sigma_c.  Cases: the built-ins, their
    # R-rotated copies drawn as perfbench's qsr-scaling workload draws them, and
    # mismatched-prior at eps2 = 1e-5, where Tr rho_BC rounds below 1 - eps2^4 and the
    # test is the identity
    builtin = builtin_qsr_instances()
    instances = list(builtin.values())
    for seed in (70, 101):
        rng = np.random.default_rng(seed)
        instances += [replace(builtin[name], psi=_rotate_r(builtin[name].psi,
                                                           random_unitary(2, rng)))
                      for _cycle in range(4) for _slots in range(4) for name in sorted(builtin)]
    tiny = replace(builtin["mismatched-prior"], eps2=1e-5)
    assert vector_marginal(tiny.psi, ["B", "C"]).trace() < 1.0 - tiny.eps2 ** 4
    instances.append(tiny)
    for inst in instances:
        value, pi = restricted_hypothesis_test(
            vector_marginal(inst.psi, ["B", "C"]),
            tensor(vector_marginal(inst.psi, ["B"]), inst.sigma_c), inst.eps2 ** 4)
        params = qsr_parameters(inst)
        assert params.d_f == float(value), inst.name
        assert np.array_equal(np.diag(params.test_bc), pi), inst.name
    assert np.array_equal(qsr_parameters(tiny).test_bc, np.ones(4))


def _strip_k(obj):
    """A transcript's JSON without its k fields."""
    if isinstance(obj, dict):
        return {key: _strip_k(val) for key, val in obj.items() if key != "k"}
    return [_strip_k(val) for val in obj] if isinstance(obj, list) else obj


def test_qsr_k_matches_the_dense_product_route(monkeypatch):
    # the built-ins and the R-rotated instances perfbench's qsr-scaling draws at seeds 70 and
    # 101; with the dense k put back, the parameters come out the same bits, and on the
    # built-ins so does every transcript field but k
    builtin = builtin_qsr_instances()
    instances = list(builtin.values())
    for seed in (70, 101):
        rng = np.random.default_rng(seed)
        instances += [replace(builtin[name], psi=_rotate_r(builtin[name].psi,
                                                           random_unitary(2, rng)), n_override=n)
                      for _cycle in range(4) for n in (None, 4, 5, 6) for name in sorted(builtin)]
    for i, inst in enumerate(instances):
        k = dense_max_relative_entropy(
            vector_marginal(inst.psi, ["R", "B", "C"]).matrix,
            tensor(vector_marginal(inst.psi, ["R", "B"]), inst.sigma_c).matrix)
        if i < len(builtin):
            assert _strip_k(qsr_full(inst).to_json()) == _strip_k(
                _with_k(monkeypatch, k, qsr_full, inst).to_json()), inst.name
        params = qsr_parameters(inst)
        assert abs(params.k - k) <= 1e-12, inst.name
        before = _with_k(monkeypatch, k, qsr_parameters, inst)
        assert (params.n, params.b, params.b_unclamped, params.cobits, params.d_f) == (
            before.n, before.b, before.b_unclamped, before.cobits, before.d_f), inst.name
        assert np.array_equal(params.test_bc, before.test_bc), inst.name
    assert abs(qsr_parameters(builtin["mismatched-prior"]).k - math.log2(7.0 / 6.0)) <= 1e-15


def test_qsr_k_support_violation_raises():
    # sigma_c = |0><0| misses mismatched-prior's weight 0.3 on C = 1; the instance's own
    # check refuses such a sigma_c, so it is swapped in afterwards
    inst = builtin_qsr_instances()["mismatched-prior"]
    object.__setattr__(inst, "sigma_c", DensityOperator(qmat.system(("C", 2)), np.diag([1.0, 0.0])))
    with pytest.raises(InvalidState, match="support condition"):
        qsr_parameters(inst)


def test_parameters_validate_only_the_states_k_needs(monkeypatch):
    # k needs only rho_RB validated, for its eigensystem: rho_RBC is read through psi's
    # factor in the product's eigenbasis, and the free test and the instance's support
    # check read marginal diagonals, which need no validated state
    validated = []
    validate = DensityOperator.__post_init__

    def counting(self):
        validated.append(self.system.labels)
        validate(self)

    inst = builtin_qsr_instances()["mismatched-prior"]
    monkeypatch.setattr(DensityOperator, "__post_init__", counting)
    QsrInstance(psi=inst.psi, sigma_c=inst.sigma_c, eps1=inst.eps1, eps2=inst.eps2,
                gamma=inst.gamma)
    assert validated == []
    qsr_parameters(inst)
    assert validated == [("R", "B")]


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


@pytest.mark.parametrize("b, distance, probs", [
    (3, 0.6242656315436178,
     [0.9951698519223887, 0.004733894973111944, 9.434593001586891e-05, 1.9071744847621428e-06]),
    (2, 0.5414034944066394, [0.9953589445502491, 0.004552971571880839, 8.8083877871426e-05]),
])
def test_qsr_full_decodes_a_short_last_block(b, distance, probs):
    # at n = 7 the last announced block runs past n: Bob tests C7, then falls back to
    # C2 (and C3 at b = 3).  Values frozen from the per-block relabelling decoder.
    inst = replace(builtin_qsr_instances()["mismatched-prior"], n_override=7, b_override=b)
    t = qsr_full(inst, budget=2 ** 23)
    assert t.details["purified_distance"] == pytest.approx(distance, abs=1e-12)
    got = t.steps[-1]["data"]["outcome_probs"]
    assert list(got) == [str(k) for k in range(1, b + 2)]
    assert [got[str(k)] for k in range(1, b + 2)] == pytest.approx(probs, abs=1e-12)


def _support_transfer(psi, sigma_pure, n):
    """The oracle support route, which forms the convex-split purification mu: returns
    mu, the cross-overlap K = Y^dag F of mu's amplitude matrix Y with the columns F of
    xi's support, and the transferred vector F V^T, in mu's register order
    (R, B, C1..Cn, J, A, L1..Ln)."""
    d_r, d_a, d_b, d_c = psi.system.dims
    x_psi = psi.amplitudes.reshape(d_r, d_a, d_b, d_c).transpose(0, 2, 1, 3)
    u, schmidt, _ = np.linalg.svd(x_psi.reshape(d_r * d_b, d_a * d_c), full_matrices=False)
    rank = int(np.count_nonzero(schmidt ** 2 > qmat.EIG_FLOOR))
    f = u[:, :rank] * schmidt[:rank]
    for _ in range(n):
        f = protocols._kron_matrices(f, sigma_pure.amplitudes.reshape(sigma_pure.system.dims))
    # mu: the slot-1 term psi_{RABC_1} |0>_{L_1} x sigma on slots 2..n and its slot
    # swaps, stacked along J
    d_l = sigma_pure.system.dims[-1]
    slots = range(1, n + 1)
    first, first_sys = protocols._with_sigma_copies(
        np.kron(psi.amplitudes, np.eye(d_l, dtype=complex)[0]),
        qmat.relabel_system(psi.system, {"C": "C1"}).registers + (("L1", d_l),),
        sigma_pure, slots[1:])
    shared = ["R", "B"] + [f"C{i}" for i in slots]
    first, first_sys = qmat.permute_vector_axes(
        first, first_sys, shared + ["A"] + [f"L{i}" for i in slots])
    mu_amps = np.stack(list(protocols._slot_swaps(first.reshape(first_sys.dims),
                                                  [(1 + i, n + 2 + i) for i in slots])),
                       axis=n + 2)
    mu_amps /= math.sqrt(n)
    regs = first_sys.registers
    mu = qmat.StateVector(qmat.RegisterSystem(regs[:n + 2] + (("J", n),) + regs[n + 2:]),
                          mu_amps.reshape(-1))
    del mu_amps  # the validated copy is mu's; at n = 8 each holds 64 MB
    k = (f.conj().T @ mu.amplitudes.reshape(f.shape[0], -1)).conj().T
    return mu, k, (f @ protocols._polar_isometry(k).T).reshape(-1)


def _dense_transfer(psi, sigma_pure, mu, n):
    """The oracle route: xi = psi x |sigma>^{xn} as a vector, pushed through the
    dense uhlmann_isometry onto mu, in mu's register order."""
    xi_amps, xi_sys = protocols._with_sigma_copies(
        psi.amplitudes, psi.system.registers, sigma_pure, range(1, n + 1))
    shared = ["R", "B"] + [f"C{i}" for i in range(1, n + 1)]
    viso = uhlmann_isometry(mu, qmat.StateVector(xi_sys, xi_amps), shared=shared)
    amps, sys_ = qmat.apply_subsystem_matrix(
        xi_amps, xi_sys, viso.matrix, list(viso.in_system.labels), viso.out_system.registers)
    return qmat.permute_vector_axes(amps, sys_, list(mu.system.labels))[0]


def _rotate_r(psi, u):
    amps, sys_ = qmat.apply_subsystem_matrix(psi.amplitudes, psi.system, u, ["R"])
    return qmat.StateVector(sys_, amps)


def _schmidt_rank(psi):
    x = psi.tensorized().transpose(0, 2, 1, 3).reshape(4, 4)
    return int(np.sum(np.linalg.svd(x, compute_uv=False) ** 2 > qmat.EIG_FLOOR))


def test_support_transfer_matches_dense_route_on_builtins():
    # on the built-ins Y^dag X has full rank on xi's support, so the polar step
    # there is unique and both routes transfer the same vector
    rng = np.random.default_rng(111)
    unitaries = [None, random_unitary(2, rng), random_unitary(2, rng)]
    for inst in builtin_qsr_instances().values():
        sigma_pure = qmat.purify(inst.sigma_c, purifier_label="L")
        rank_sigma = np.linalg.matrix_rank(inst.sigma_c.matrix)
        for u in unitaries:
            psi = inst.psi if u is None else _rotate_r(inst.psi, u)
            for n in range(2, 7):
                mu, k, xi2 = _support_transfer(psi, sigma_pure, n)
                assert k.shape[1] == _schmidt_rank(psi) * rank_sigma ** n
                dense = _dense_transfer(psi, sigma_pure, mu, n)
                assert np.linalg.norm(xi2 - dense) <= 1e-12, (inst.name, n)


def test_support_transfer_generic_psi_keeps_the_overlap():
    # a generic psi has full Schmidt rank, and Y^dag X is rank-deficient on its
    # support; the polar step's completion there is arbitrary, so only the
    # overlap (the sum of singular values) is route-independent
    rng = np.random.default_rng(112)
    sigma_c = DensityOperator(qmat.system(("C", 2)), np.diag([0.6, 0.4]).astype(complex))
    sigma_pure = qmat.purify(sigma_c, purifier_label="L")
    for _ in range(2):
        psi = random_pure_state(qmat.qubits("R", "A", "B", "C"), rng)
        assert _schmidt_rank(psi) == 4
        for n in (2, 3):
            inst = QsrInstance(psi=psi, sigma_c=sigma_c, eps1=0.5, eps2=0.25, gamma=0.25,
                               n_override=n)
            t = qsr_full(inst)
            mu, k, _ = _support_transfer(inst.psi, sigma_pure, n)
            assert k.shape[1] == 4 * 2 ** n
            # mu's support, n * 2 * 2^(n-1) rows, cannot hold the 4 * 2^n support of xi, so
            # the transfer keeps every row (J, A, L1..Ln)
            assert protocols._split_transfer(inst.psi, sigma_pure, n)[1].shape == (
                n, 2 * 2 ** n, 4 * 2 ** n)
            dense = _dense_transfer(inst.psi, sigma_pure, mu, n)
            assert t.details["overlap"] == pytest.approx(abs(np.vdot(mu.amplitudes, dense)),
                                                         abs=1e-12)
            assert 0.0 <= t.details["purified_distance"] <= 1.0


def _kept_rows(n, d_a, d_l, rows):
    """Mask of the rows (J, A, L1..Ln) of mu's side that ``_split_transfer`` keeps, given
    the rows it keeps per J block: those with L_j = |0> in the J = j block, or all."""
    if rows == d_a * d_l ** n:
        return np.ones(n * rows, dtype=bool)
    mask = np.zeros((n, d_a) + (d_l,) * n, dtype=bool)
    for j in range(n):
        mask[(j, slice(None)) + (slice(None),) * j + (0,)] = True
    return mask.reshape(-1)


def test_factored_cross_overlap_matches_the_support_route():
    # K is built from its one-slot factor and its slot swaps on mu's support, the rows
    # with L_j = |0> in the J = j block; the oracle forms mu and takes Y^dag F on every
    # row, and is exactly 0 off that support
    rng = np.random.default_rng(114)
    unitaries = [None, random_unitary(2, rng), random_unitary(2, rng)]
    cases = [(inst.psi if u is None else _rotate_r(inst.psi, u), inst.sigma_c, range(1, 7))
             for inst in builtin_qsr_instances().values() for u in unitaries]
    sigma_c = builtin_qsr_instances()["mismatched-prior"].sigma_c
    cases += [(random_pure_state(qmat.qubits("R", "A", "B", "C"), rng), sigma_c, (2, 3))
              for _ in range(2)]
    for psi, sigma_c, slot_counts in cases:
        sigma_pure = qmat.purify(sigma_c, purifier_label="L")
        d_a, d_l = psi.system.dims[1], sigma_pure.system.dims[-1]
        for n in slot_counts:
            _, k, _ = protocols._split_transfer(psi, sigma_pure, n)
            oracle = _support_transfer(psi, sigma_pure, n)[1]
            kept = _kept_rows(n, d_a, d_l, k.shape[1])
            if _schmidt_rank(psi) == 1:
                assert k.shape[1] == d_a * d_l ** (n - 1)
            assert np.all(oracle[~kept] == 0), n
            assert k.shape == (n, oracle[kept].shape[0] // n, oracle.shape[1])
            assert np.max(np.abs(k.reshape(oracle[kept].shape) - oracle[kept])) <= 1e-12, n


def test_slot_branches_stack_to_the_support_route(monkeypatch):
    # qsr_full forms slot branch j as F V[j]^T on the purifiers V keeps when the decoder
    # reaches it; with L_j = |0> re-inserted and stacked along J the branches are the
    # oracle's transferred vector
    decode = protocols._decode
    seen = []

    def recording(branches, *args):
        def copies():
            for amps, sys_, slots in branches:
                seen.append((np.array(amps), sys_))
                yield amps, sys_, slots
        return decode(copies(), *args)

    monkeypatch.setattr(protocols, "_decode", recording)
    for inst in builtin_qsr_instances().values():
        sigma_pure = qmat.purify(inst.sigma_c, purifier_label="L")
        d_a, d_l = inst.psi.system.dims[1], sigma_pure.system.dims[-1]
        for override in (None, 5):
            seen.clear()
            n = qsr_full(replace(inst, n_override=override), budget=2 ** 18).details["n"]
            assert len(seen) == n
            _, _, xi2 = _support_transfer(inst.psi, sigma_pure, n)
            # rows (J, A, L) against (R, B, C1..Cn); mu's order puts J, A, L1..Ln last
            order = ["A", "L", "R", "B"] + [f"C{i}" for i in range(1, n + 1)]
            rows = np.concatenate([
                qmat.permute_vector_axes(amps, sys_, order)[0].reshape(d_a * sys_.dim_of(["L"]), -1)
                for amps, sys_ in seen])
            stacked = np.zeros((n * d_a * d_l ** n, rows.shape[1]), dtype=complex)
            stacked[_kept_rows(n, d_a, d_l, rows.shape[0] // n)] = rows
            assert np.linalg.norm(stacked.T.reshape(-1) - xi2) <= 1e-12, (inst.name, n)


def _decode_full_rows(inst, n):
    """The oracle's transferred vector, split into slot branches over every row
    (A, L1..Ln) and decoded as ``qsr_full`` decodes them: (overlap with mu, slot
    probabilities, outcome probabilities, purified distance)."""
    params = qsr_parameters(replace(inst, n_override=n))
    sigma_pure = qmat.purify(inst.sigma_c, purifier_label="L")
    mu, _, xi2 = _support_transfer(inst.psi, sigma_pure, n)
    d_r, d_a, d_b, d_c = inst.psi.system.dims
    slots = range(1, n + 1)
    sys_ = qmat.RegisterSystem((("R", d_r), ("B", d_b)) + tuple((f"C{i}", d_c) for i in slots)
                               + (("A", d_a),) + tuple((f"L{i}", sigma_pure.system.dims[-1])
                                                       for i in slots))
    amps = xi2.reshape(d_r * d_b * d_c ** n, n, -1)
    slot_probs = [float(np.vdot(amps[:, j], amps[:, j]).real) for j in range(n)]
    b = params.b
    decoded = ((amps[:, j], sys_, [f"C{j // b * b + i if j // b * b + i <= n else i}"
                                   for i in range(1, b + 1)])
               for j in range(n) if slot_probs[j] > 1e-18)
    probs, _, distance = protocols._decode(decoded, params.test_bc, inst.psi, b)
    return abs(np.vdot(mu.amplitudes, xi2)), slot_probs, probs, distance


def test_support_route_matches_the_full_row_route_on_builtins():
    # on the built-ins K has full column rank, so V on mu's support is the full-row polar
    # factor with its zero rows dropped, and every reported value agrees
    for inst in builtin_qsr_instances().values():
        for n in range(1, 9):
            t = qsr_full(replace(inst, n_override=n), budget=2 ** 24)
            overlap, slot_probs, probs, distance = _decode_full_rows(inst, n)
            name = (inst.name, n)
            assert t.details["overlap"] == pytest.approx(overlap, abs=1e-12), name
            assert t.details["purified_distance"] == pytest.approx(distance, abs=1e-12), name
            assert t.steps[-2]["data"]["slot_probs"] == pytest.approx(slot_probs, abs=1e-12), name
            got = t.steps[-1]["data"]["outcome_probs"]
            assert list(got) == [str(k) for k in probs], name
            assert list(got.values()) == pytest.approx(list(probs.values()), abs=1e-12), name


def test_decoder_outcome_probabilities_frozen():
    # the branches of the block mixture share one amplitude array, so a decoder that
    # applied the test in place would move these values
    inst = builtin_qsr_instances()["mismatched-prior"]
    params = qsr_parameters(inst)
    frozen = {
        1: [0.99609375, 0.0039062499999998924],
        2: [0.9954427083333333, 0.0044759114583332125, 8.138020833332891e-05],
        3: [0.9952256944444449, 0.004683883101851728, 8.872703269675454e-05,
            1.6954210069443071e-06],
        4: [0.9951171875000003, 0.004787868923610985, 9.310687029802744e-05,
            1.8013848198783273e-06, 3.532127097800544e-08],
    }
    for b, probs in frozen.items():
        got = qsr_decoder_p1(inst, b, params).steps[-1]["data"]["outcome_probs"]
        assert list(got) == [str(k) for k in range(1, b + 2)]
        assert list(got.values()) == pytest.approx(probs, abs=1e-12)


def test_qsr_full_forms_no_array_of_the_split_purification_size():
    # at n = 7 mu would hold 7 * 8 * 4^7 amplitudes (14.7 MB); the transfer forms K and V
    # on mu's support, 896 x 128 (1.8 MB each), and one slot branch on the purifiers
    # it keeps, 4 * 2^7 * 2 * 2^6 amplitudes (1.0 MB), at a time
    inst = replace(builtin_qsr_instances()["mismatched-prior"], n_override=7)
    tracemalloc.start()
    try:
        qsr_full(inst, budget=2 ** 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_transfer_overlap_is_marginal_fidelity_down_to_one_slot():
    # regression: n = 1 is a valid slot count, and the transfer needs room for
    # xi's support only, not for all of Alice's registers
    for inst in builtin_qsr_instances().values():
        sigma_pure = qmat.purify(inst.sigma_c, purifier_label="L")
        for n in (1, 2):
            t = qsr_full(replace(inst, n_override=n))
            mu = _support_transfer(inst.psi, sigma_pure, n)[0]
            xi_amps, xi_sys = protocols._with_sigma_copies(
                inst.psi.amplitudes, inst.psi.system.registers, sigma_pure, range(1, n + 1))
            shared = ["R", "B"] + [f"C{i}" for i in range(1, n + 1)]
            # F = ||sqrt(rho) sqrt(sigma)||_1: qmat.fidelity's route through the
            # eigenvalues of sqrt(sigma) rho sqrt(sigma) takes roots of rounding-level
            # eigenvalues of these rank-deficient marginals and is off by up to 8e-9
            roots = [psd_sqrt(vector_marginal(state, shared).matrix)
                     for state in (mu, qmat.StateVector(xi_sys, xi_amps))]
            target = np.linalg.svd(roots[0] @ roots[1], compute_uv=False).sum()
            assert t.details["overlap"] == pytest.approx(target, abs=1e-12)
    rng = np.random.default_rng(113)
    inst = QsrInstance(psi=random_pure_state(qmat.qubits("R", "A", "B", "C"), rng),
                       sigma_c=builtin_qsr_instances()["mismatched-prior"].sigma_c,
                       eps1=0.5, eps2=0.25, gamma=0.25, n_override=1)
    with pytest.raises(qmat.DimensionMismatch, match="n=1 slots"):
        qsr_full(inst)


def test_qsr_instance_takes_integral_overrides_of_any_integer_type():
    # a numpy integer override runs as a Python int and its transcript stays JSON; any
    # other type, bool included, is refused by name before a run
    inst = builtin_qsr_instances()["mismatched-prior"]
    for overrides in ({"n_override": np.int64(4)}, {"b_override": np.int64(1)},
                      {"n_override": np.int32(3), "b_override": np.int16(2)}):
        forced = replace(inst, **overrides)
        assert all(type(getattr(forced, name)) is int for name in overrides)
        t = qsr_full(forced)
        assert all(t.details[name.removesuffix("_override")] == val
                   for name, val in overrides.items())
        json.dumps(t.to_json())
    for name in ("n_override", "b_override"):
        for bad in (True, 4.0, "4"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                replace(inst, **{name: bad})


def test_support_transfer_refuses_weight_dropped_past_the_floor():
    # each squared Schmidt coefficient below EIG_FLOOR is dropped, but their sum
    # may not exceed it
    sigma_c = builtin_qsr_instances()["mismatched-prior"].sigma_c
    for w, ok in ((4e-13, True), (6e-13, False)):
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = math.sqrt(1.0 - 2.0 * w)   # |00>_RB |00>_AC
        amps[0b0011] = math.sqrt(w)               # |01>_RB |01>_AC
        amps[0b1100] = math.sqrt(w)               # |10>_RB |10>_AC
        inst = QsrInstance(psi=qmat.StateVector(qmat.qubits("R", "A", "B", "C"), amps),
                           sigma_c=sigma_c, eps1=0.5, eps2=0.25, gamma=0.25, n_override=2)
        if ok:
            assert 0.0 <= qsr_full(inst).details["overlap"] <= 1.0
        else:
            with pytest.raises(InvalidState, match="drops Schmidt weight"):
                qsr_full(inst)


def test_qsr_override_shrinks_slots():
    # fewer slots than prescribed voids the guarantee but still runs
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
    params = replace(qsr_parameters(inst), test_bc=np.ones(4), d_f=0.0)
    t = qsr_decoder_p1(inst, 1, params)
    assert t.achieved_fidelity == pytest.approx(1.0, abs=1e-9)
    probs = t.steps[-1]["data"]["outcome_probs"]
    assert probs["1"] == pytest.approx(1.0, abs=1e-9)
    assert probs["2"] == pytest.approx(0.0, abs=1e-12)


def test_decoder_outcomes_form_distribution():
    inst = builtin_qsr_instances()["classical-side-info"]
    params = qsr_parameters(inst)
    t = qsr_decoder_p1(inst, 2, params)
    total = sum(t.steps[-1]["data"]["outcome_probs"].values())
    assert total == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= t.achieved_fidelity <= 1.0
    assert t.details["purified_distance"] <= t.details["claim_bound"] + 1e-9


def test_decoder_matches_qsr_full_outcomes():
    # qsr_full decodes each announced block with the same sequential test, so
    # its outcome statistics are those of the block mixture up to the
    # purified distance of the transfer (the trace distance bounds every
    # outcome probability)
    instances = builtin_qsr_instances()
    for inst in [*instances.values(), replace(instances["classical-side-info"], b_override=2)]:
        params = qsr_parameters(inst)
        full = qsr_full(inst)
        probs = qsr_decoder_p1(inst, params.b, params).steps[-1]["data"]["outcome_probs"]
        slack = math.sqrt(max(0.0, 1.0 - full.details["overlap"] ** 2)) + 1e-9
        full_probs = full.steps[-1]["data"]["outcome_probs"]
        assert list(full_probs) == list(probs)
        for k, p in probs.items():
            assert full_probs[k] == pytest.approx(p, abs=slack)


def test_decoder_budget_guard():
    # the budget is checked before any branch is built, not after all b are
    inst = builtin_qsr_instances()["classical-side-info"]
    params = qsr_parameters(inst)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="decoder branch needs 262144 amplitudes"):
            qsr_decoder_p1(inst, 8, params, budget=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 262144 * 16  # one branch: 16 * 4^7 complex amplitudes


def test_decoder_rejects_non_free_tests():
    inst = builtin_qsr_instances()["uncorrelated-pure"]
    params = qsr_parameters(inst)
    # a dense test matrix, coherent or not, and a vector of the wrong length
    for bad in (np.full((4, 4), 0.25), np.eye(4), np.ones(3), np.ones(8)):
        with pytest.raises(qmat.DimensionMismatch):
            qsr_decoder_p1(inst, 1, replace(params, test_bc=bad))
    for entry in (1.5, -0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidState):
            qsr_decoder_p1(inst, 1, replace(params, test_bc=np.array([entry, 0.0, 0.0, 0.0])))


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
