import json
import math

import numpy as np
import pytest

from qredist import qmat
from qredist.cli import main
from qredist.qmat import DensityOperator, StateVector
from qredist.stateio import save_state


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, state):
        p = str(tmp_path / name)
        save_state(p, state)
        paths[name] = p
        return p

    write("plus.json", StateVector(qmat.qubits("Q"),
                                   np.array([1.0, 1.0]) / math.sqrt(2.0)))
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    write("ghz.json", StateVector(qmat.qubits("R", "B", "C"), amps))
    write("mix.json", DensityOperator(qmat.qubits("Q"), np.diag([0.7, 0.3])))
    write("id2.json", DensityOperator(qmat.qubits("Q"), np.eye(2) / 2.0))
    write("pure0.json", DensityOperator(qmat.qubits("Q"), np.diag([1.0, 0.0])))
    plus2 = StateVector(qmat.qubits("Q1", "Q2"), np.full(4, 0.5, dtype=complex))
    write("plus2.json", plus2)
    write("id4.json", DensityOperator(qmat.qubits("Q1", "Q2"), np.eye(4) / 4.0))
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    paths["broken.json"] = str(bad)
    nan = tmp_path / "nan.json"
    nan.write_text('{"registers": [{"label": "Q", "dim": 2}], '
                   '"matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
    paths["nan.json"] = str(nan)
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# quantity


def test_quantity_entropy_and_coherence(capsys, files):
    code, out, _ = run(capsys, ["quantity", "s", files["mix.json"]])
    assert code == 0
    assert float(out.split("=")[1]) == pytest.approx(0.8812908992306927, abs=1e-12)
    code, out, _ = run(capsys, ["quantity", "rc", files["plus.json"]])
    assert code == 0
    assert float(out.split("=")[1]) == pytest.approx(1.0, abs=1e-12)


def test_quantity_marginal_parts(capsys, files):
    # entropy of the B marginal of the three-party branching state
    code, out, _ = run(capsys, ["quantity", "s", files["ghz.json"], "--parts", "B"])
    assert code == 0
    assert float(out.split("=")[1]) == pytest.approx(1.0, abs=1e-9)


def test_quantity_cmi(capsys, files):
    code, out, _ = run(capsys, ["quantity", "cmi", files["ghz.json"],
                                "--parts", "C,R,B"])
    assert code == 0
    assert float(out.split("=")[1]) == pytest.approx(1.0, abs=1e-9)
    # joined parts: I(RB : C) against an empty conditioner is rejected
    code, _, err = run(capsys, ["quantity", "cmi", files["ghz.json"], "--parts", "R+B,C"])
    assert code == 2


def test_quantity_formats(capsys, files):
    code, out, _ = run(capsys, ["quantity", "s", files["mix.json"], "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["quantity"] == "s"
    code, out, _ = run(capsys, ["quantity", "s", files["mix.json"], "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "quantity,value"


def test_quantity_relative_entropies(capsys, files):
    code, out, _ = run(capsys, ["quantity", "d", files["mix.json"], files["id2.json"]])
    assert code == 0
    expected = 0.7 * math.log2(1.4) + 0.3 * math.log2(0.6)
    assert float(out.split("=")[1]) == pytest.approx(expected, abs=1e-10)
    code, out, _ = run(capsys, ["quantity", "dmax", files["mix.json"], files["id2.json"]])
    assert code == 0
    assert float(out.split("=")[1]) == pytest.approx(math.log2(1.4), abs=1e-9)


def test_quantity_infinite_exit_code(capsys, files):
    # mass outside the support: exit 1 unless infinities are allowed
    code, _, err = run(capsys, ["quantity", "d", files["mix.json"], files["pure0.json"]])
    assert code == 1
    assert "error" in err
    code, out, _ = run(capsys, ["quantity", "d", files["mix.json"], files["pure0.json"],
                                "--allow-inf"])
    assert code == 0
    assert "inf" in out


def test_quantity_hypothesis_testing(capsys, files):
    code, out, _ = run(capsys, ["quantity", "dh", files["mix.json"], files["mix.json"],
                                "--eps", "0.2"])
    assert code == 0
    assert float(out.split("=")[1]) == pytest.approx(-math.log2(0.8), abs=1e-9)
    code, out, _ = run(capsys, ["quantity", "df", files["plus2.json"], files["id4.json"],
                                "--eps", "0.1"])
    assert code == 0
    assert float(out.split("=")[1]) == pytest.approx(0.15200309344504995, abs=1e-10)
    # eps is mandatory for the testing quantities
    code, _, _ = run(capsys, ["quantity", "dh", files["mix.json"], files["mix.json"]])
    assert code == 2


def test_quantity_input_errors(capsys, files):
    code, _, err = run(capsys, ["quantity", "s", files["mix.json"], files["id2.json"]])
    assert code == 2  # wrong file count
    code, _, err = run(capsys, ["quantity", "s", files["broken.json"]])
    assert code == 2
    code, _, err = run(capsys, ["quantity", "s", files["dir"] + "/missing.json"])
    assert code == 2
    code, out, err = run(capsys, ["quantity", "s", files["nan.json"]])
    assert code == 2 and out == ""
    assert "non-finite" in err
    code, _, err = run(capsys, ["quantity", "mi", files["ghz.json"]])
    assert code == 2  # missing --parts


# --------------------------------------------------------------------------
# rates


def test_rates_random_state(capsys):
    code, out, _ = run(capsys, ["rates", "--random-qubits", "4"])
    assert code == 0
    assert "q_min_incoherent" in out
    # byte determinism under a fixed seed
    code2, out2, _ = run(capsys, ["rates", "--random-qubits", "4"])
    assert (code2, out2) == (0, out)
    code3, out3, _ = run(capsys, ["rates", "--random-qubits", "4", "--seed", "5"])
    assert out3 != out


def test_rates_units_and_formats(capsys):
    code, out, _ = run(capsys, ["rates", "--random-qubits", "4", "--format", "json"])
    assert code == 0
    qubits = json.loads(out)
    code, out, _ = run(capsys, ["rates", "--random-qubits", "4", "--format", "json",
                                "--units", "cobits"])
    cobits = json.loads(out)
    assert cobits["rates"]["q_min_std"] == pytest.approx(
        2.0 * qubits["rates"]["q_min_std"], abs=1e-12
    )
    assert cobits["rates"]["classical_rate_incoherent"] == pytest.approx(
        qubits["rates"]["classical_rate_incoherent"], abs=1e-12
    )
    code, out, _ = run(capsys, ["rates", "--random-qubits", "4", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "rate,value,units"


def test_rates_input_validation(capsys, files):
    code, _, _ = run(capsys, ["rates"])
    assert code == 2  # neither a file nor --random-qubits
    code, _, _ = run(capsys, ["rates", files["ghz.json"], "--random-qubits", "4"])
    assert code == 2  # both
    code, _, _ = run(capsys, ["rates", files["mix.json"]])
    assert code == 2  # density file where a vector is required


def test_rates_output_file(capsys, files, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["rates", "--random-qubits", "4", "--format", "json",
                                "--out", str(target)])
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert "rates" in payload


# --------------------------------------------------------------------------
# simulate


def test_simulate_coherence_creation(capsys):
    code, out, _ = run(capsys, ["simulate", "coherence-creation", "--q", "2", "--e", "1"])
    assert code == 0
    assert "coherent qubits out: 3" in out
    code, out, _ = run(capsys, ["simulate", "coherence-creation", "--q", "2", "--e", "1",
                                "--format", "csv"])
    assert code == 0
    header, row = out.splitlines()
    assert "qubits_sent" in header
    code, out, _ = run(capsys, ["simulate", "coherence-creation", "--format", "json"])
    assert code == 0
    json.loads(out)


def test_simulate_convex_split(capsys):
    code, out, _ = run(capsys, ["simulate", "convex-split", "--format", "json"])
    assert code == 0
    row = json.loads(out)[0]
    assert row["fidelity_sq"] >= row["bound"]
    code2, out2, _ = run(capsys, ["simulate", "convex-split", "--format", "json"])
    assert out2 == out  # same seed, same bytes


def test_simulate_convex_split_files(capsys, files, tmp_path):
    # explicit state files: product input gives fidelity 1 at any delta
    rho_p = DensityOperator(qmat.system(("P", 2)), np.diag([0.6, 0.4]))
    sigma = DensityOperator(qmat.system(("Q", 2)), np.diag([0.5, 0.5]))
    joint = qmat.tensor(rho_p, sigma)
    jp = str(tmp_path / "joint.json")
    sp = str(tmp_path / "sigma.json")
    save_state(jp, joint)
    save_state(sp, sigma)
    code, out, _ = run(capsys, ["simulate", "convex-split", "--state", jp,
                                "--sigma", sp, "--format", "json"])
    assert code == 0
    row = json.loads(out)[0]
    assert row["k"] == pytest.approx(0.0, abs=1e-9)
    assert row["fidelity_sq"] == pytest.approx(1.0, abs=1e-9)
    code, _, _ = run(capsys, ["simulate", "convex-split", "--state", jp])
    assert code == 2  # missing --sigma


def test_simulate_qsr(capsys):
    code, out, _ = run(capsys, ["simulate", "qsr", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["name"] == "uncorrelated-pure"
    assert payload["details"]["purified_distance"] <= payload["details"]["distance_bound"]
    code, out2, _ = run(capsys, ["simulate", "qsr", "--format", "json"])
    assert out2 == out


def test_simulate_qsr_instance_selection(capsys):
    code, out, _ = run(capsys, ["simulate", "qsr", "--instance", "mismatched-prior",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["details"]["name"] == "mismatched-prior"
    code, _, err = run(capsys, ["simulate", "qsr", "--instance", "nope"])
    assert code == 2
    assert "available" in err


def test_simulate_qsr_budget_and_override(capsys):
    # a tight eps1 blows the slot count past the amplitude budget
    code, _, err = run(capsys, ["simulate", "qsr", "--eps1", "0.2"])
    assert code == 3
    assert "budget" in err.lower() or "amplitudes" in err
    code, out, _ = run(capsys, ["simulate", "qsr", "--eps1", "0.2",
                                "--n-override", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["details"]["overridden"] is True


@pytest.mark.parametrize("flag, message", [("--n-override", "slot count must be positive"),
                                           ("--b-override", "block size 0 outside")])
def test_simulate_qsr_rejects_zero_override(capsys, flag, message):
    code, out, err = run(capsys, ["simulate", "qsr", flag, "0"])
    assert code == 2 and out == ""
    assert message in err


# --------------------------------------------------------------------------
# sweep


def test_sweep_copies(capsys):
    code, out, _ = run(capsys, ["sweep", "copies", "--random-qubits", "4",
                                "--max-copies", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("copies,")
    one = dict(zip(lines[0].split(","), lines[1].split(",")))
    two = dict(zip(lines[0].split(","), lines[2].split(",")))
    # per-copy rates are additive across independent copies
    for key in one:
        if key == "copies":
            continue
        assert float(two[key]) == pytest.approx(float(one[key]), abs=1e-7)


def test_sweep_copies_budget(capsys):
    code, _, err = run(capsys, ["sweep", "copies", "--random-qubits", "4",
                                "--max-copies", "4"])
    assert code == 3  # 16^4 amplitudes exceed the default budget


def test_sweep_delta_monotone(capsys):
    code, out, _ = run(capsys, ["sweep", "delta", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    idx = lines[0].split(",").index("fidelity_sq")
    fids = [float(line.split(",")[idx]) for line in lines[1:]]
    assert len(fids) == 3
    # smaller delta, more slots, better fidelity
    assert fids[0] <= fids[1] <= fids[2]


def test_sweep_eps(capsys, files):
    code, _, _ = run(capsys, ["sweep", "eps"])
    assert code == 2  # needs --rho and --sigma
    code, out, _ = run(capsys, ["sweep", "eps", "--rho", files["mix.json"],
                                "--sigma", files["id2.json"], "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    idx = lines[0].split(",").index("d_h")
    vals = [float(line.split(",")[idx]) for line in lines[1:]]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_sweep_block(capsys):
    code, out, _ = run(capsys, ["sweep", "block", "--b-list", "1,2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,fidelity,purified_distance,claim_bound"
    assert len(lines) == 3
    code, _, _ = run(capsys, ["sweep", "block", "--b-list", ""])
    assert code == 2


# --------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "7 of 7 checks passed" in out
    assert "FAIL" not in out
