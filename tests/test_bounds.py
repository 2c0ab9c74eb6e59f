"""Every proven bound and cross-check is decided by ``qmat._check_bound``: the helper's
edges, and one case per check that makes it fire."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from qredist import cli, entropy, protocols, qmat, rates
from qredist.cli import main
from qredist.qmat import BoundViolation, DensityOperator, StateVector, _check_bound
from qredist.sampling import random_pure_state
from qredist.stateio import save_state


@pytest.mark.parametrize("bound, margin", [(2.0, 1e-8), (0.0, 1e-9), (-0.25, 1e-10), (1.0, 0.0)])
def test_check_bound_edges(bound, margin):
    upper, lower = bound + margin, bound - margin
    _check_bound("upper", upper, bound, "<=", margin)
    _check_bound("lower", lower, bound, ">=", margin)
    with pytest.raises(BoundViolation, match="upper: measured"):
        _check_bound("upper", np.nextafter(upper, math.inf), bound, "<=", margin)
    with pytest.raises(BoundViolation, match="lower: measured"):
        _check_bound("lower", np.nextafter(lower, -math.inf), bound, ">=", margin)


@pytest.mark.parametrize("sense", ["<=", ">="])
def test_check_bound_fails_on_nan(sense):
    with pytest.raises(BoundViolation, match="measured nan"):
        _check_bound("nan", math.nan, 0.0, sense, 1e-9)


def test_check_bound_refuses_an_unknown_sense():
    with pytest.raises(ValueError, match="sense"):
        _check_bound("typo", 0.0, 0.0, "<", 1e-9)


def test_bound_violation_is_both_error_kinds():
    assert issubclass(BoundViolation, RuntimeError)
    assert issubclass(BoundViolation, ArithmeticError)


def _ghz_file(tmp_path):
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    psi = StateVector(qmat.qubits("R", "B", "C"), amps)
    path = str(tmp_path / "ghz.json")
    save_state(path, psi)
    return psi.to_density(), path


def _rabc_file(tmp_path):
    sys_ = qmat.system(("R", 2), ("A", 2), ("B", 2), ("C", 2))
    psi = random_pure_state(sys_, np.random.default_rng(5))
    path = str(tmp_path / "rabc.json")
    save_state(path, psi)
    return psi, path


def _fake_decode(distance):
    def fake(branches, test_bc, psi, b):
        return {k: 0.0 for k in range(1, b + 2)}, 0.0, distance
    return fake


# Each case patches the source of one check's measured quantity to a violating value
# and returns (the check's name, a library call, CLI arguments or None).

def coherence_gain(monkeypatch, tmp_path):
    monkeypatch.setattr(protocols, "entropy_of_probs", lambda p: 3.0 * math.log2(len(p)))
    return ("coherence gain", lambda: protocols.coherence_creation(1, 1),
            ["simulate", "coherence-creation"])


def convex_split(monkeypatch, tmp_path):
    monkeypatch.setattr(protocols, "_spin_block_fidelity", lambda *args: 0.0)
    rho, sigma = protocols.random_split_instance(np.random.default_rng(1), 0.5)
    return ("convex split fidelity^2",
            lambda: protocols.convex_split_bound_check(rho, sigma, eps=0.0, delta=0.25),
            ["simulate", "convex-split"])


def decoder_claim_bound(monkeypatch, tmp_path):
    # mismatched-prior at b = 1: the claim bound is 0.99967 and b 2^(-d_f) > gamma^4
    monkeypatch.setattr(protocols, "_decode", _fake_decode(1.0))
    inst = protocols.builtin_qsr_instances()["mismatched-prior"]
    params = protocols.qsr_parameters(inst)
    return ("decoder distance against the claim bound",
            lambda: protocols.qsr_decoder_p1(inst, 1, params),
            ["sweep", "block", "--instance", "mismatched-prior", "--b-list", "1"])


def decoder_eps2_gamma(monkeypatch, tmp_path):
    # a test with d_f = 10 puts b 2^(-d_f) below gamma^4, where eps2 + gamma applies
    monkeypatch.setattr(protocols, "_decode", _fake_decode(1.0))
    parameters = protocols.qsr_parameters
    monkeypatch.setattr(cli, "qsr_parameters", lambda inst: replace(parameters(inst), d_f=10.0))
    inst = protocols.builtin_qsr_instances()["mismatched-prior"]
    params = cli.qsr_parameters(inst)
    return ("decoder distance against eps2 + gamma",
            lambda: protocols.qsr_decoder_p1(inst, 1, params),
            ["sweep", "block", "--instance", "mismatched-prior", "--b-list", "1"])


def transfer_overlap(monkeypatch, tmp_path):
    transfer = protocols._split_transfer

    def orthogonal(psi, sigma_pure, n):
        g, k, v = transfer(psi, sigma_pure, n)
        return g, np.zeros_like(k), v  # the overlap, the sum of K * V, is 0

    monkeypatch.setattr(protocols, "_split_transfer", orthogonal)
    inst = protocols.builtin_qsr_instances()["uncorrelated-pure"]
    return ("transfer overlap^2", lambda: protocols.qsr_full(inst), ["simulate", "qsr"])


def final_distance(monkeypatch, tmp_path):
    # every built-in has 3 eps1 + eps2 + gamma > 1, above any purified distance, so the
    # violating value is a NaN, which the comparison used to let through
    monkeypatch.setattr(protocols, "_decode", _fake_decode(math.nan))
    inst = protocols.builtin_qsr_instances()["uncorrelated-pure"]
    return ("final purified distance", lambda: protocols.qsr_full(inst), ["simulate", "qsr"])


def sequential_projectors(monkeypatch, tmp_path):
    monkeypatch.setattr(protocols, "purified_distance", lambda rho, sigma: 1.0)
    rho = DensityOperator(qmat.qubits("Q"), np.diag([0.9, 0.1]))
    return ("sequential projector distance",
            lambda: protocols.sequential_projector_bound_check(rho, [np.diag([0.0, 1.0])]),
            None)


def close_states(monkeypatch, tmp_path):
    monkeypatch.setattr(protocols, "purified_distance", lambda rho, sigma: 0.0)
    rho = DensityOperator(qmat.qubits("Q"), np.diag([1.0, 0.0]))
    sigma = DensityOperator(qmat.qubits("Q"), np.eye(2) / 2.0)
    return ("measurement transfer",
            lambda: protocols.close_states_measurement_check(rho, sigma, np.diag([1.0, 0.0])),
            None)


def cmi_routes(monkeypatch, tmp_path):
    monkeypatch.setattr(entropy, "mutual_information", lambda rho, a, b: 0.0)
    rho, path = _ghz_file(tmp_path)
    return ("conditional mutual information route gap",
            lambda: entropy.conditional_mutual_information(rho, "C", "R", "B"),
            ["quantity", "cmi", path, "--parts", "C,R,B"])


def cmi_subadditivity(monkeypatch, tmp_path):
    # both routes see the same S(RBC) + 10, so they agree on I(C:R|B) = 1 - 10
    entropy_of = entropy.von_neumann_entropy
    monkeypatch.setattr(entropy, "von_neumann_entropy",
                        lambda rho: entropy_of(rho) + (10.0 if len(rho.system.dims) == 3 else 0.0))
    rho, path = _ghz_file(tmp_path)
    return ("strong subadditivity",
            lambda: entropy.conditional_mutual_information(rho, "C", "R", "B"),
            ["quantity", "cmi", path, "--parts", "C,R,B"])


def rates_subadditivity(monkeypatch, tmp_path):
    entropy_of = rates._PureMarginals.entropy
    monkeypatch.setattr(rates._PureMarginals, "entropy", lambda self, *labels: entropy_of(
        self, *labels) + (10.0 if set(labels) == {"R", "B", "C"} else 0.0))
    psi, path = _rabc_file(tmp_path)
    return "strong subadditivity of I(C:R|B)", lambda: rates.rate_report(psi), ["rates", path]


def rate_form_spread(monkeypatch, tmp_path):
    coherence_of = rates._PureMarginals.coherence
    monkeypatch.setattr(rates._PureMarginals, "coherence", lambda self, *labels: coherence_of(
        self, *labels) + (1.0 if labels == ("B", "C") else 0.0))
    psi, path = _rabc_file(tmp_path)
    return "spread of the three incoherent rate forms", lambda: rates.rate_report(psi), [
        "rates", path]


def rate_dominance(monkeypatch, tmp_path):
    monkeypatch.setattr(rates._PureMarginals, "incoherent_rate", lambda self, sigma_c: -1.0)
    psi, path = _rabc_file(tmp_path)
    return "incoherent rate against the unrestricted rate", lambda: rates.rate_report(psi), [
        "rates", path]


def copies_additivity(monkeypatch, tmp_path):
    # one copy standing in for two halves every per-copy rate
    monkeypatch.setattr(rates, "tensor_power_state", lambda psi, m: psi)
    _, path = _rabc_file(tmp_path)
    argv = ["sweep", "copies", "--state", path, "--max-copies", "2"]
    return ("additivity of the rates over 2 copies",
            lambda: cli.cmd_copies(cli.build_parser().parse_args(argv)), argv)


CASES = [coherence_gain, convex_split, decoder_claim_bound, decoder_eps2_gamma,
         transfer_overlap, final_distance, sequential_projectors, close_states, cmi_routes,
         cmi_subadditivity, rates_subadditivity, rate_form_spread, rate_dominance,
         copies_additivity]


@pytest.mark.parametrize("case", CASES, ids=[case.__name__ for case in CASES])
def test_every_bound_fires(monkeypatch, tmp_path, capsys, case):
    check, call, argv = case(monkeypatch, tmp_path)
    with pytest.raises(ArithmeticError, match=re.escape(check)) as exc:
        call()
    assert isinstance(exc.value, BoundViolation)
    if argv is not None:
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert check in err
