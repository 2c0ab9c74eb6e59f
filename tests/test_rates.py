import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qredist import entropy, protocols, qmat, rates
from qredist.cli import main
from qredist.protocols import builtin_qsr_instances
from qredist.coherence import NotFreeOperation, dephase
from qredist.entropy import (
    conditional_entropy,
    conditional_mutual_information,
    mutual_information,
    relative_entropy,
    relative_entropy_of_coherence,
    von_neumann_entropy,
)
from qredist.qmat import DensityOperator, DimensionMismatch, InvalidState, StateVector
from qredist.rates import (
    COBIT_UNITS,
    QUBIT_UNITS,
    RateReport,
    incoherent_rate_forms,
    incoherent_schumacher_rate,
    one_shot_achievability_bound,
    rate_report,
    standard_qsr_rates,
    tensor_power_state,
)
from qredist.sampling import random_density, random_pure_state
from qredist.stateio import save_state


def ghz(labels=("R", "B", "C")):
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    return StateVector(qmat.qubits(*labels), amps)


def bell_times_plus():
    # R and B maximally entangled, C = |+> uncorrelated
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rb = StateVector(qmat.qubits("R", "B"), bell)
    plus = StateVector(qmat.qubits("C"), np.array([1.0, 1.0]) / math.sqrt(2.0))
    return qmat.tensor_vectors(rb, plus)


def product_zero():
    return StateVector(qmat.qubits("R", "B", "C"),
                       np.eye(8, dtype=complex)[0])


def random_rabc(seed, dims=(2, 2, 2, 2)):
    rng = np.random.default_rng(seed)
    sys_ = qmat.system(("R", dims[0]), ("A", dims[1]), ("B", dims[2]), ("C", dims[3]))
    return random_pure_state(sys_, rng)


def test_standard_rates_hand_values():
    q, q_plus_e = standard_qsr_rates(ghz())
    assert q == pytest.approx(0.5, abs=1e-9)
    assert q_plus_e == pytest.approx(0.0, abs=1e-9)
    q, q_plus_e = standard_qsr_rates(product_zero())
    assert q == pytest.approx(0.0, abs=1e-9)
    assert q_plus_e == pytest.approx(0.0, abs=1e-9)
    q, q_plus_e = standard_qsr_rates(bell_times_plus())
    assert q == pytest.approx(0.0, abs=1e-9)   # C carries no correlation
    assert q_plus_e == pytest.approx(0.0, abs=1e-9)


def test_sum_bound_hand_values():
    assert rate_report(bell_times_plus()).sum_bound_slepian_wolf == pytest.approx(1.0, abs=1e-9)
    assert rate_report(ghz()).sum_bound_slepian_wolf == pytest.approx(0.0, abs=1e-9)
    assert rate_report(product_zero()).sum_bound_slepian_wolf == pytest.approx(0.0, abs=1e-9)


def test_incoherent_rate_hand_values():
    # uncorrelated |+> on C: half a coherent bit must still move
    report = rate_report(bell_times_plus())
    assert report.q_min_incoherent == pytest.approx(0.5, abs=1e-9)
    assert report.classical_rate_incoherent == pytest.approx(1.0, abs=1e-9)
    # classical states pay nothing extra
    assert rate_report(ghz()).q_min_incoherent == pytest.approx(0.5, abs=1e-9)
    assert rate_report(product_zero()).q_min_incoherent == pytest.approx(0.0, abs=1e-9)


def test_schumacher_hand_values():
    plus = DensityOperator(qmat.system(("C", 2)), np.full((2, 2), 0.5))
    assert incoherent_schumacher_rate(plus) == pytest.approx(0.5, abs=1e-9)
    classical = DensityOperator(qmat.system(("C", 2)), np.diag([0.3, 0.7]))
    s = -(0.3 * math.log2(0.3) + 0.7 * math.log2(0.7))
    assert incoherent_schumacher_rate(classical) == pytest.approx(s, abs=1e-9)


def test_splitting_hand_values():
    assert rate_report(ghz()).q_min_splitting_incoherent == pytest.approx(0.5, abs=1e-9)
    assert rate_report(bell_times_plus()).q_min_splitting_incoherent == pytest.approx(0.5, abs=1e-9)
    # a Bell pair on (R, C), with the trivial B the report needs: I(R:C) = 2 plus one bit of
    # coherence, halved
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    psi = StateVector(qmat.system(("R", 2), ("B", 1), ("C", 2)), bell)
    assert rate_report(psi).q_min_splitting_incoherent == pytest.approx(1.0, abs=1e-9)


def test_three_forms_agree_random():
    for seed in range(12):
        psi = random_rabc(seed)
        a, b, c = incoherent_rate_forms(psi)
        assert abs(a - b) < 1e-9
        assert abs(a - c) < 1e-9


def test_three_forms_agree_with_custom_sigma():
    # any full-support diagonal reference gives the same product-form value
    rng = np.random.default_rng(42)
    psi = random_rabc(7)
    for _ in range(5):
        probs = rng.dirichlet(np.ones(2)) * 0.9 + 0.05
        probs /= probs.sum()
        sigma = DensityOperator(qmat.system(("C", 2)), np.diag(probs))
        a, b, c = incoherent_rate_forms(psi, sigma)
        assert abs(a - c) < 1e-8


def test_incoherent_rate_dominates_standard():
    # restricting the decoder can only cost qubits, capped by the register size
    for seed in range(15):
        psi = random_rabc(seed, dims=(2, 2, 2, 3))
        q_std, _ = standard_qsr_rates(psi)
        q_inc = rate_report(psi).q_min_incoherent
        assert q_inc >= q_std - 1e-9
        assert q_inc <= q_std + math.log2(3) + 1e-9


def test_coherence_gap_bounded_by_register_pair():
    # the local-coherence difference between (B, C) and B marginals is at
    # most 2 log2 |C|, so the qubit gap is at most log2 |C|
    from qredist.entropy import relative_entropy_of_coherence

    for seed in range(10):
        psi = random_rabc(seed + 100)
        rho_bc = qmat.vector_marginal(psi, ["B", "C"])
        rho_b = qmat.partial_trace(rho_bc, ["B"])
        gap = relative_entropy_of_coherence(rho_bc) - relative_entropy_of_coherence(rho_b)
        assert abs(gap) <= 2.0 * 1.0 + 1e-9  # |C| = 2


def test_rates_additive_over_copies():
    psi = random_rabc(3)
    doubled = tensor_power_state(psi, 2)
    assert doubled.system.labels == psi.system.labels
    assert doubled.system.dims == tuple(d * d for d in psi.system.dims)
    one = rate_report(psi)
    two = rate_report(doubled)
    for name, val in one.entries().items():
        assert two.entries()[name] == pytest.approx(2.0 * val, abs=1e-8), name


def test_tensor_power_validation():
    psi = random_rabc(0)
    assert tensor_power_state(psi, 1) is psi
    with pytest.raises(ValueError):
        tensor_power_state(psi, 0)


def test_rate_report_structure(tmp_path, capsys):
    psi = random_rabc(1)
    rep = rate_report(psi)
    assert rep.units == QUBIT_UNITS
    assert set(rep.entries()) == {
        "q_min_std", "q_plus_e_min_std", "sum_bound_slepian_wolf",
        "q_min_incoherent", "q_min_schumacher_incoherent",
        "q_min_splitting_incoherent", "classical_rate_incoherent",
    }
    assert rep.units_of("q_min_std") == QUBIT_UNITS
    assert rep.units_of("classical_rate_incoherent") == "classical bits per copy"
    path = str(tmp_path / "psi.json")
    save_state(path, psi)
    assert main(["rates", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["units"] == QUBIT_UNITS
    assert main(["rates", path, "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "rate,value,units"
    assert "classical bits per copy" in csv_text


def test_rate_report_unit_conversion():
    rep = rate_report(random_rabc(2))
    cob = rep.in_units(COBIT_UNITS)
    assert cob.q_min_std == pytest.approx(2.0 * rep.q_min_std)
    # classical bits stay put under conversion
    assert cob.classical_rate_incoherent == rep.classical_rate_incoherent
    back = cob.in_units(QUBIT_UNITS)
    assert back.q_min_std == pytest.approx(rep.q_min_std)
    with pytest.raises(ValueError):
        rep.in_units("nats")


def test_rate_report_rejects_inconsistent_rates():
    with pytest.raises(Exception):
        RateReport(
            q_min_std=1.0, q_plus_e_min_std=1.0, sum_bound_slepian_wolf=1.0,
            q_min_incoherent=0.5,  # below the unrestricted rate
            q_min_schumacher_incoherent=1.0, q_min_splitting_incoherent=1.0,
            classical_rate_incoherent=1.0,
        )
    with pytest.raises(Exception):
        RateReport(
            q_min_std=math.inf, q_plus_e_min_std=0.0, sum_bound_slepian_wolf=0.0,
            q_min_incoherent=math.inf, q_min_schumacher_incoherent=0.0,
            q_min_splitting_incoherent=0.0, classical_rate_incoherent=0.0,
        )


def dense_rates(psi):
    """The seven rates from the explicit marginals on R, B, C, with no complement rule."""
    rho_rbc = qmat.vector_marginal(psi, ["R", "B", "C"])
    rho_bc = qmat.vector_marginal(psi, ["B", "C"])
    rho_b = qmat.vector_marginal(psi, ["B"])
    rho_c = qmat.vector_marginal(psi, ["C"])
    q = 0.5 * conditional_mutual_information(rho_rbc, "C", "R", "B")
    q_plus_e = conditional_entropy(rho_rbc, "C", "B")
    gap = relative_entropy_of_coherence(rho_bc) - relative_entropy_of_coherence(rho_b)
    q_inc = q + 0.5 * gap
    return {
        "q_min_std": q,
        "q_plus_e_min_std": q_plus_e,
        # S(dephased BC) - S(dephased B) = R_c(BC) - R_c(B) + S(C|B)
        "sum_bound_slepian_wolf": gap + q_plus_e,
        "q_min_incoherent": q_inc,
        "q_min_schumacher_incoherent": 0.5 * (von_neumann_entropy(rho_c)
                                              + von_neumann_entropy(dephase(rho_c))),
        "q_min_splitting_incoherent": 0.5 * (
            mutual_information(qmat.vector_marginal(psi, ["R", "C"]), "C", "R")
            + relative_entropy_of_coherence(rho_c)
        ),
        "classical_rate_incoherent": 2.0 * q_inc,
    }


def test_rate_report_accepts_any_register_order():
    # every report matches the dense marginals, however the registers are stored,
    # including an empty complement of R, B, C (no A), a trivial A, unequal
    # dimensions and a fifth register D in every complement
    rng = np.random.default_rng(3)
    states = [
        random_pure_state(qmat.qubits("R", "A", "B", "C"), rng),
        random_pure_state(qmat.system(("R", 2), ("B", 3), ("C", 2)), rng),
        random_pure_state(qmat.system(("R", 2), ("A", 1), ("B", 3), ("C", 2)), rng),
        random_pure_state(qmat.system(("C", 3), ("R", 5), ("A", 2), ("B", 3)), rng),
        random_pure_state(qmat.system(("R", 2), ("D", 3), ("A", 2), ("B", 2), ("C", 2)), rng),
    ]
    for psi in states:
        want = dense_rates(psi)
        orders = list(itertools.permutations(psi.system.labels))
        assert len(orders) == math.factorial(len(psi.system.labels))
        for order in orders:
            got = rate_report(qmat.permute_vector(psi, order)).entries()
            for name, val in want.items():
                assert got[name] == pytest.approx(val, abs=1e-12), (psi.system, order, name)


def test_rate_report_decomposes_no_matrix_of_rbc_size(monkeypatch):
    # rho_RBC is never formed: S(RBC) comes from the 4 x 4 marginal on A and the product
    # form from psi's 64 x 4 factor, so no decomposition or validation Cholesky has both
    # sides >= d_RBC = 64
    shapes = []
    for name in ("eigvalsh", "eigh", "svd", "cholesky"):
        def counted(a, *args, _kernel=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a)[-2:])
            return _kernel(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    psi = random_rabc(11, dims=(4, 4, 4, 4))
    rate_report(psi)
    assert shapes and all(min(shape) < 64 for shape in shapes), shapes


def _product_form_cases():
    """(psi, sigma_c or None) for the product-form oracle: seeded Haar states at 10 and 11
    qubits, registers stored as C, B, A, R, a trivial C, a custom diagonal sigma_c, a state
    on R, B, C alone (rho_RBC pure) and one with a fifth register E stored between A and B."""
    rng = np.random.default_rng(16)
    shuffled = qmat.permute_vector(random_rabc(21, dims=(4, 2, 4, 2)), ["C", "B", "A", "R"])
    sigma = DensityOperator(qmat.system(("C", 4)), np.diag(rng.dirichlet(np.ones(4))))
    no_a = random_pure_state(qmat.system(("R", 4), ("B", 4), ("C", 4)), rng)
    extra = random_pure_state(
        qmat.system(("R", 2), ("A", 2), ("E", 3), ("B", 4), ("C", 2)), rng)
    return {
        "haar-8844": (random_rabc(17, dims=(8, 8, 4, 4)), None),
        "haar-8884": (random_rabc(18, dims=(8, 8, 8, 4)), None),
        "stored-CBAR": (shuffled, None),
        "trivial-C": (random_rabc(19, dims=(4, 2, 4, 1)), None),
        "custom-sigma": (random_rabc(20, dims=(2, 4, 4, 4)), sigma),
        "no-A": (no_a, None),
        "extra-E": (extra, None),
    }


@pytest.mark.parametrize("case", sorted(_product_form_cases()))
def test_product_form_eigensystem_matches_dense_route(monkeypatch, case):
    # every relative entropy in rate_forms takes its sigma's eigensystem as known: R_c and
    # the dephased d2 read diagonals, and d1 takes rho_RBC from psi's factor; each must
    # equal the dense relative_entropy between the explicit states it stands for
    psi, sigma_c = _product_form_cases()[case]
    seen = []
    for name in ("relative_entropy_of_coherence", "_relative_entropy_factor",
                 "_relative_entropy_spectral"):
        def spied(*args, _inner=getattr(rates, name)):
            value = _inner(*args)
            seen.append(float(value))
            return value
        monkeypatch.setattr(rates, name, spied)
    rates.incoherent_rate_forms(psi, sigma_c)
    rho_rbc = qmat.vector_marginal(psi, ["R", "B", "C"])
    rho_rb = qmat.vector_marginal(psi, ["R", "B"])
    rho_bc = qmat.vector_marginal(psi, ["B", "C"])
    rho_b = qmat.vector_marginal(psi, ["B"])
    sigma = dephase(qmat.vector_marginal(psi, ["C"])) if sigma_c is None else sigma_c
    want = [
        relative_entropy(rho_bc, dephase(rho_bc)),
        relative_entropy(rho_b, dephase(rho_b)),
        relative_entropy(rho_rbc, qmat.tensor(rho_rb, sigma)),
        relative_entropy(dephase(rho_bc), qmat.tensor(dephase(rho_b), sigma)),
    ]
    assert len(seen) == len(want)
    for got, ref in zip(seen, want):
        assert math.isfinite(got) and ref.finite
        assert got == pytest.approx(ref.value, abs=1e-12), case
    if case == "haar-8884":
        # rho_RB has rank d_A d_C = 32 of 64, so the product's kernel is not empty
        assert np.sum(np.linalg.eigvalsh(rho_rb.matrix) > qmat.EIG_FLOOR) == 32


def test_product_form_rejects_sigma_without_support(tmp_path, capsys):
    # sigma_c with no weight on |0>, where rho_C has weight: D(rho_RBC || rho_RB x sigma) = inf
    psi = random_rabc(22, dims=(2, 2, 2, 3))
    sigma = DensityOperator(qmat.system(("C", 3)), np.diag([0.0, 0.5, 0.5]))
    with pytest.raises(InvalidState, match="does not support"):
        rate_report(psi, sigma)
    psi_path, sigma_path = str(tmp_path / "psi.json"), str(tmp_path / "sigma.json")
    save_state(psi_path, psi)
    save_state(sigma_path, sigma)
    assert main(["rates", psi_path, "--sigma-c", sigma_path]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("weight, finite", [(1e-12, True), (1e-8, False)])
def test_product_form_support_check_at_the_tolerance(tmp_path, capsys, weight, finite):
    # sigma_c has no weight on |0>, where rho_C has `weight`, below or above SUPPORT_TOL: the
    # factored support check decides as the dense _kernel_mass against the explicit product
    t = random_rabc(24, dims=(2, 2, 2, 3)).tensorized().copy()
    t[..., 0] *= math.sqrt(weight) / np.linalg.norm(t[..., 0])
    t[..., 1:] *= math.sqrt(1.0 - weight) / np.linalg.norm(t[..., 1:])
    psi = StateVector(qmat.system(("R", 2), ("A", 2), ("B", 2), ("C", 3)), t)
    s = np.array([0.0, 0.5, 0.5])
    sigma = DensityOperator(qmat.system(("C", 3)), np.diag(s))
    rho_rb = qmat.vector_marginal(psi, ["R", "B"])
    evs, vecs = np.linalg.eigh(qmat.tensor(rho_rb, sigma).matrix)
    rho_rbc = qmat.vector_marginal(psi, ["R", "B", "C"])
    dense_finite = entropy._kernel_mass(rho_rbc.matrix, evs, vecs) <= entropy.SUPPORT_TOL
    factored = entropy._relative_entropy_factor(
        *protocols._rbc_product_frame(psi, rho_rb.matrix, s))
    assert factored.finite == dense_finite == finite
    psi_path, sigma_path = str(tmp_path / "psi.json"), str(tmp_path / "sigma.json")
    save_state(psi_path, psi)
    save_state(sigma_path, sigma)
    code = main(["rates", psi_path, "--sigma-c", sigma_path, "--format", "json"])
    out = capsys.readouterr().out
    if finite:
        assert code == 0
        assert all(math.isfinite(v) for v in json.loads(out)["rates"].values())
    else:
        assert code == 2 and out == ""


def test_report_and_parameters_build_the_product_frame_once(monkeypatch):
    # psi's frame against rho_RB x sigma_C has one builder, which the rate report's product
    # form and the redistribution parameters' slot count each call once
    calls = []

    def spied(*args, _inner=protocols._rbc_product_frame):
        calls.append(args[0])
        return _inner(*args)

    for module in (protocols, rates):
        monkeypatch.setattr(module, "_rbc_product_frame", spied)
    inst = builtin_qsr_instances()["mismatched-prior"]
    rate_report(inst.psi, inst.sigma_c)
    assert calls == [inst.psi]
    protocols.qsr_parameters(inst)
    assert calls == [inst.psi, inst.psi]


def test_rate_report_holds_no_matrix_of_rbc_size():
    # a 13-qubit (4, 4, 32, 16) report: rho_RBC would be 2048 x 2048 (64 MB), and a report
    # that forms, validates and decomposes it peaks above 250 MB; the largest marginal a
    # report needs is the 512 x 512 rho_BC
    psi = random_rabc(25, dims=(4, 4, 32, 16))
    tracemalloc.start()
    try:
        rate_report(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20, peak


def test_rate_report_never_decomposes_the_product_densely(monkeypatch):
    # no sigma is decomposed at d_RBC: the largest eigh is that of rho_RB (or of a
    # dephased BC marginal's size), so the dense rho_RB x sigma (256 x 256) would fail this
    psi = random_rabc(23, dims=(8, 8, 8, 4))
    dims_seen = []

    def counted(a, *args, _kernel=np.linalg.eigh, **kwargs):
        dims_seen.append(np.shape(a)[-1])
        return _kernel(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rate_report(psi)
    assert dims_seen and max(dims_seen) <= max(8 * 8, 8 * 4), dims_seen


def test_no_dephased_matrix_is_decomposed_or_validated(monkeypatch):
    # a dephased state is its diagonal: neither the rate report, the incoherent Schumacher
    # rate nor the free test hands an exactly diagonal matrix (d >= 2) to a decomposition or
    # to the validation Cholesky
    psi = random_rabc(26, dims=(4, 2, 4, 4))
    rng = np.random.default_rng(26)
    sys_ = qmat.system(("Q", 4))
    rho, sigma = random_density(sys_, rng), random_density(sys_, rng)
    diagonal = []
    for name in ("eigvalsh", "eigh", "cholesky"):
        def counted(a, *args, _kernel=getattr(np.linalg, name), _name=name, **kwargs):
            mat = np.asarray(a)
            if mat.ndim == 2 and len(mat) >= 2 and not np.any(mat - np.diag(np.diagonal(mat))):
                diagonal.append((_name, mat.shape))
            return _kernel(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rate_report(psi)
    incoherent_schumacher_rate(rho)
    entropy.restricted_hypothesis_test(rho, sigma, 0.1)
    assert diagonal == []


@pytest.mark.parametrize("labels", [("R", "B", "C"), ("R", "B"), ("B", "C"), ("B",)])
def test_dense_route_catches_a_wrong_entropy(monkeypatch, tmp_path, capsys, labels):
    # a memoized entropy that is off by 1e-6 must not reach a report
    entropy = rates._PureMarginals.entropy

    def skewed(self, *got):
        return entropy(self, *got) + (1e-6 if set(got) == set(labels) else 0.0)

    monkeypatch.setattr(rates._PureMarginals, "entropy", skewed)
    psi = random_rabc(5)
    with pytest.raises(ArithmeticError):
        rates._PureMarginals(psi).incoherent_rate(None)
    with pytest.raises(ArithmeticError):
        rate_report(psi)
    path = str(tmp_path / "psi.json")
    save_state(path, psi)
    assert main(["rates", path]) == 4
    assert capsys.readouterr().out == ""


def test_rate_report_checks_sigma_c():
    psi = random_rabc(4)
    coherent = DensityOperator(qmat.system(("C", 2)), np.full((2, 2), 0.5))
    with pytest.raises(NotFreeOperation):
        rate_report(psi, coherent)
    wide = DensityOperator(qmat.system(("C", 3)), np.eye(3) / 3.0)
    with pytest.raises(DimensionMismatch):
        rate_report(psi, wide)


def test_one_shot_bound_frozen_value():
    inst = replace(builtin_qsr_instances()["uncorrelated-pure"],
                   eps1=0.1, eps2=0.1, gamma=0.1)
    got = one_shot_achievability_bound(inst)
    # k = 0 here, so the bound is the error-parameter constant minus the
    # free-test term: 2 log2(2 / (0.1 * 0.01)) = 21.931568569324174
    assert got == pytest.approx(21.93142429260613, abs=1e-9)
    assert got < 2.0 * math.log2(2000.0)


def test_one_shot_bound_monotone_in_eps2():
    base = builtin_qsr_instances()["mismatched-prior"]
    vals = [one_shot_achievability_bound(replace(base, eps2=e))
            for e in (0.1, 0.2, 0.3, 0.4)]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_one_shot_bound_covers_protocol_cobits():
    # the closed-form count dominates what the protocol actually announces
    from qredist.protocols import qsr_parameters

    for inst in builtin_qsr_instances().values():
        params = qsr_parameters(inst)
        bound = one_shot_achievability_bound(inst)
        assert params.cobits <= math.ceil(bound) + 1e-9
