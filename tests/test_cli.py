import ast
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qredist
from cli_helpers import leaf_parsers, options
from qredist import cli, qmat
from qredist.cli import build_parser, main
from qredist.protocols import builtin_qsr_instances, random_split_instance
from qredist.qmat import BoundViolation, DensityOperator, StateVector
from qredist.sampling import random_pure_state
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
    write("psi.json", random_pure_state(qmat.qubits("R", "A", "B", "C"), np.random.default_rng(2)))
    write("unc.json", builtin_qsr_instances()["uncorrelated-pure"].psi)
    write("c.json", DensityOperator(qmat.system(("C", 2)), np.diag([0.6, 0.4])))
    write("pq.json", qmat.tensor(DensityOperator(qmat.system(("P", 2)), np.diag([0.6, 0.4])),
                                 DensityOperator(qmat.qubits("Q"), np.eye(2) / 2.0)))
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    paths["broken.json"] = str(bad)
    nan = tmp_path / "nan.json"
    nan.write_text('{"registers": [{"label": "Q", "dim": 2}], '
                   '"matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
    paths["nan.json"] = str(nan)
    for name, dim in (("dim29.json", "2.9"), ("dimtrue.json", "true")):
        (tmp_path / name).write_text('{"registers": [{"label": "Q", "dim": %s}], '
                                     '"amplitudes": [[1, 0], [0, 0]]}' % dim)
        paths[name] = str(tmp_path / name)
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def python_fresh(args, **env):
    """Run a new interpreter on ``args``, with ``env`` added to its environment."""
    src = str(Path(qredist.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60,
                          env={**os.environ, **env, "PYTHONPATH": path})


def run_fresh(argv, **env):
    """Run the command line in a new interpreter, with ``env`` added to its environment."""
    return python_fresh(["-m", "qredist.cli", *argv], **env)


def run_or_exit(capsys, argv):
    """Like ``run``, counting argparse's refusal (``SystemExit``) as its exit code."""
    try:
        return run(capsys, argv)
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()


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
    code, _, err = run_or_exit(capsys, ["quantity", "dh", files["mix.json"], files["mix.json"]])
    assert code == 2
    assert "the following arguments are required: --eps" in err


def test_quantity_input_errors(capsys, files):
    code, _, err = run_or_exit(capsys, ["quantity", "s", files["mix.json"], files["id2.json"]])
    assert code == 2  # wrong file count
    code, _, err = run_or_exit(capsys, ["quantity", "d", files["mix.json"]])
    assert code == 2
    code, _, err = run(capsys, ["quantity", "s", files["broken.json"]])
    assert code == 2
    code, _, err = run(capsys, ["quantity", "s", files["dir"] + "/missing.json"])
    assert code == 2
    code, out, err = run(capsys, ["quantity", "s", files["nan.json"]])
    assert code == 2 and out == ""
    assert "non-finite" in err
    for name in ("dim29.json", "dimtrue.json"):  # a dimension is never truncated
        code, out, err = run(capsys, ["quantity", "s", files[name]])
        assert code == 2 and out == ""
        assert "non-integral dimension" in err
    # JSON types: a string flag or non-number entries are refused, not converted
    for name, payload in (
        ("strflag.json", '"matrix": [[[0.25, 0], [0, 0]], [[0, 0], [0.25, 0]]], '
                         '"subnormalized": "false"'),
        ("boolentry.json", '"amplitudes": [[true, false], [0, 0]]'),
        ("strentry.json", '"amplitudes": [["0", 0], [1, 0]]'),
        ("ragged.json", '"matrix": [[[0.5, 0], [0, 0]], [[0.5, 0]]]'),
    ):
        path = files["dir"] + "/" + name
        with open(path, "w") as fh:
            fh.write('{"registers": [{"label": "Q", "dim": 2}], %s}' % payload)
        code, out, err = run(capsys, ["quantity", "s", path])
        assert (code, out) == (2, "")
    code, _, err = run_or_exit(capsys, ["quantity", "mi", files["ghz.json"]])
    assert code == 2  # missing --parts


@pytest.mark.parametrize("name, parts", [("mi", "R,R"), ("ch", "R+B,B"), ("cmi", "R,B,R"),
                                         ("mi", "R+B+C,R"), ("s", "R+R"), ("rc", "B+R+B")])
def test_quantity_refuses_overlapping_parts(capsys, files, name, parts):
    # a register named twice is refused, never computed on
    code, out, err = run(capsys, ["quantity", name, files["ghz.json"], "--parts", parts])
    assert (code, out) == (2, "")
    assert "'R'" in err


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


def test_rates_input_validation(capsys, files, tmp_path):
    code, _, _ = run(capsys, ["rates"])
    assert code == 2  # neither a file nor --random-qubits
    code, _, _ = run(capsys, ["rates", files["ghz.json"], "--random-qubits", "4"])
    assert code == 2  # both
    code, _, _ = run(capsys, ["rates", files["mix.json"]])
    assert code == 2  # density file where a vector is required
    coherent = str(tmp_path / "coherent_c.json")
    save_state(coherent, DensityOperator(qmat.system(("C", 2)), np.full((2, 2), 0.5)))
    code, out, err = run(capsys, ["rates", "--random-qubits", "4", "--sigma-c", coherent])
    assert (code, out) == (2, "")  # a coherent sigma_c is not a free state
    assert "diagonal" in err


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
    for eps in ("nan", "inf"):
        code, out, err = run(capsys, ["simulate", "convex-split", "--eps", eps])
        assert (code, out) == (2, "") and "eps must be" in err


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


@pytest.mark.parametrize("name", ["uncorrelated-pure", "classical-side-info", "mismatched-prior"])
def test_simulate_qsr_runs_one_slot(capsys, name):
    # regression: a single slot used to exit 2, the dense transfer demanding room
    # for all of Alice's registers rather than for the input's support
    code, out, _ = run(capsys, ["simulate", "qsr", "--instance", name, "--n-override", "1",
                                "--format", "json"])
    assert code == 0
    details = json.loads(out)["details"]
    assert details["n"] == 1 and details["overridden"] is True
    assert 0.0 <= details["purified_distance"] <= 1.0


@pytest.mark.parametrize("flag, message", [("--n-override", "slot count must be positive"),
                                           ("--b-override", "block size 0 outside")])
def test_simulate_qsr_rejects_zero_override(capsys, flag, message):
    code, out, err = run(capsys, ["simulate", "qsr", flag, "0"])
    assert code == 2 and out == ""
    assert message in err


# One interpreter per BLAS thread count runs the battery through ``cli.main``.  At forced
# n = 7 the slot branches hold 65 536 amplitudes, past the size at which OpenBLAS splits a
# dot product across threads; the protocol's sums are numpy's, so their rounding does not
# depend on the thread count.  A 17-qubit rate report still moves in the last digit.
BLAS_BATTERY = [
    ["selftest"],
    ["rates", "--random-qubits", "13", "--seed", "3"],
    ["sweep", "delta"],
    ["simulate", "convex-split"],
    ["simulate", "qsr", "--instance", "mismatched-prior"],
    ["sweep", "block"],
    ["sweep", "copies", "--random-qubits", "4", "--max-copies", "3"],
    *(["simulate", "qsr", "--instance", name, "--n-override", "7", "--budget", "16777216",
       "--format", "json"] for name in ("mismatched-prior", "classical-side-info")),
]
IN_PROCESS = """
import contextlib, io, json, sys
from qredist.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([argv, code, out.getvalue()]))
"""


def test_cli_battery_prints_the_same_bytes_on_one_and_two_blas_threads():
    outs = []
    for threads in ("1", "2"):
        proc = python_fresh(["-c", IN_PROCESS, json.dumps(BLAS_BATTERY)],
                            **{var: threads for var in BLAS_THREAD_VARS})
        assert proc.returncode == 0, proc.stderr
        runs = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [(argv, code) for argv, code, _ in runs] == [(argv, 0) for argv in BLAS_BATTERY]
        outs.append(runs)
    for (argv, _, one), (_, _, two) in zip(*outs):
        assert one == two, argv


# --------------------------------------------------------------------------
# sweep


def test_sweep_copies(capsys, files):
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
    code, out, _ = run(capsys, ["sweep", "copies"])
    assert (code, out) == (2, "")  # neither a file nor --random-qubits
    code, out, _ = run(capsys, ["sweep", "copies", "--state", files["ghz.json"],
                                "--random-qubits", "4"])
    assert (code, out) == (2, "")  # both


def test_sweep_copies_budget(capsys):
    code, _, err = run(capsys, ["sweep", "copies", "--random-qubits", "4",
                                "--max-copies", "4"])
    assert code == 3  # 16^4 amplitudes exceed the default budget


@pytest.mark.parametrize("command", (["rates"], ["sweep", "copies"]))
def test_random_qubits_respect_budget(capsys, command):
    # 2^14 amplitudes are refused before the state is drawn
    code, out, err = run(capsys, [*command, "--random-qubits", "14", "--budget", "64"])
    assert (code, out) == (3, "")
    assert "2^14 amplitudes" in err


@pytest.mark.parametrize("command", (["rates"], ["sweep", "copies", "--max-copies", "1", "--state"]))
def test_state_files_respect_budget(capsys, tmp_path, command):
    # a loaded state over an explicit --budget is refused before any rate is computed
    path = str(tmp_path / "rabc.json")
    save_state(path, StateVector(qmat.qubits("R", "A", "B", "C", "D", "E"),
                                 np.full(64, 0.125, dtype=complex)))
    code, out, err = run(capsys, [*command, path, "--budget", "16"])
    assert (code, out) == (3, "")
    assert "budget of 16" in err
    code, out, _ = run(capsys, [*command, path, "--budget", "64"])
    assert code == 0 and out


@pytest.mark.parametrize("command", [
    ["simulate", "qsr", "--budget", "-1"],
    ["simulate", "qsr", "--budget", "0"],
    ["rates", "--random-qubits", "4", "--budget", "-3"],
    ["simulate", "coherence-creation", "--q", "1", "--e", "1", "--budget", "-1"],
    ["simulate", "convex-split", "--budget", "0"],
])
def test_budget_below_one_is_bad_input(capsys, command):
    # a budget below one amplitude is out of domain, not a blown budget (exit 3)
    code, out, err = run(capsys, command)
    assert (code, out) == (2, "")
    assert "--budget must be at least 1" in err


@pytest.mark.parametrize("command", [
    ["quantity", "s", "mix.json", "--seed", "1"],
    ["quantity", "df", "mix.json", "id2.json", "--eps", "0.1", "--budget", "-5"],
    ["rates", "--random-qubits", "4", "--allow-inf"],
    ["simulate", "qsr", "--allow-inf"],
    ["selftest", "--format", "json"],
    ["selftest", "--budget", "5"],
    ["selftest", "--allow-inf"],
    ["sweep", "eps", "--rho", "mix.json", "--sigma", "id2.json", "--budget", "5"],
    ["simulate", "qsr", "--seed", "5"],
    ["simulate", "qsr", "--q", "9"],
    ["simulate", "coherence-creation", "--instance", "x"],
    ["simulate", "convex-split", "--n-override", "3"],
    ["sweep", "block", "--allow-inf"],
    ["sweep", "copies", "--random-qubits", "4", "--deltas", "1"],
    ["sweep", "eps", "--rho", "mix.json", "--sigma", "id2.json", "--seed", "1"],
    *(["quantity", *base, *flag] for base in (
        ["s", "ghz.json"], ["rc", "ghz.json"], ["mi", "ghz.json", "--parts", "C,R"],
        ["ch", "ghz.json", "--parts", "C,R"], ["cmi", "ghz.json", "--parts", "C,R,B"])
      for flag in (["--eps", "0.1"], ["--allow-inf"])),
    *(["quantity", name, "mix.json", "id2.json", *flag] for name, flag in (
        ("d", ["--parts", "Q"]), ("d", ["--eps", "0.1"]),
        ("dmax", ["--parts", "Q"]), ("dmax", ["--eps", "0.2"]),
        ("v", ["--parts", "Q"]), ("v", ["--eps", "0.3"]), ("v", ["--allow-inf"]),
        ("dh", ["--eps", "0.1", "--parts", "Q"]), ("df", ["--eps", "0.1", "--parts", "Q"]))),
])
def test_options_a_command_never_reads_are_refused(capsys, files, command):
    # each of these exited 0 with the option ignored; each command, each simulate or sweep
    # target and each quantity name has its own parser, which exits 2 on an option it does
    # not take and prints its own usage line, not the top-level one
    argv = [files.get(arg, arg) for arg in command]
    code, out, err = run_or_exit(capsys, argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err
    leaf = command[:2] if command[0] in ("simulate", "sweep", "quantity") else command[:1]
    assert f"usage: qredist {' '.join(leaf)} [-h]" in err


@pytest.mark.parametrize("command, option", [
    (["rates", "psi.json", "--seed", "7"], "--seed"),
    (["sweep", "copies", "--state", "psi.json", "--seed", "9"], "--seed"),
    *(([*target, "--state", "pq.json", "--sigma", "id2.json", *flag], flag[0])
      for target in (["simulate", "convex-split"], ["sweep", "delta"])
      for flag in (["--seed", "1"], ["--k-cap", "0.3"])),
    *(([*target, "--sigma", "id2.json"], "--state")
      for target in (["simulate", "convex-split"], ["sweep", "delta"])),
])
def test_options_of_the_other_input_mode_are_refused(capsys, files, command, option):
    # regression: each of these exited 0 with the option unread; the seed and the cap set
    # only the seeded draw, which state files replace, and a --sigma without --state ran
    # the draw
    code, out, err = run(capsys, [files.get(arg, arg) for arg in command])
    assert (code, out) == (2, "")
    assert option in err


@pytest.mark.parametrize("command, flag", [
    (["simulate", "convex-split", "--sigma", "id2.json", "--state", ""], "--state"),
    (["simulate", "convex-split", "--state", "mix.json", "--sigma", ""], "--sigma"),
    (["sweep", "eps", "--sigma", "id2.json", "--rho", ""], "--rho"),
    (["sweep", "copies", "--state", ""], "--state"),
    (["rates", "--random-qubits", "4", "--sigma-c", ""], "--sigma-c"),
    (["rates", ""], "state"),
    (["quantity", "s", ""], "files"),
    (["selftest", "--out", ""], "--out"),
])
def test_empty_paths_are_refused(capsys, files, command, flag):
    # regression: an empty --sigma-c or --out was read as absent (exit 0, with the default
    # sigma_C or stdout), and an empty state file was reported as ": No such file or
    # directory", which names no path
    argv = [files.get(arg, arg) for arg in command]
    code, out, err = run_or_exit(capsys, argv)
    assert (code, out) == (2, "")
    assert f"argument {flag}: expected a file path, got an empty string" in err


@pytest.mark.parametrize("command", (["simulate", "convex-split"], ["sweep", "delta"]))
def test_convex_split_respects_budget(capsys, command):
    # the default draws need splits above dimension 16 (128 for simulate, 64 at the sweep's 0.25)
    code, out, err = run(capsys, [*command, "--budget", "16"])
    assert (code, out) == (3, "")
    assert "budget of 16" in err


@pytest.mark.parametrize("command", [
    ["simulate", "convex-split", "--delta", "1e-7"],
    ["simulate", "convex-split", "--delta", "1e-12"],
    ["sweep", "delta", "--deltas", "1e-12"],
    ["simulate", "qsr", "--instance", "mismatched-prior", "--eps1", "1e-9"],
    ["sweep", "block", "--b-list", "1000000000000"],
    ["simulate", "coherence-creation", "--q", "100000000000", "--e", "0"],
    ["simulate", "convex-split", "--delta", "1e-320"],
    ["simulate", "qsr", "--n-override", "1" + "0" * 400],
])
def test_budget_refuses_astronomical_counts(command):
    # regression: each of these formed a count of 10^7 to 10^11+ digits (hanging, or
    # exiting 2 when the message printed it) or overflowed a float slot count (exit 4)
    proc = run_fresh(command)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "budget" in proc.stderr


@pytest.mark.parametrize("command", (["simulate", "convex-split"], ["sweep", "delta"]))
def test_convex_split_rejects_bad_cap(capsys, command):
    # a NaN cap used to reach the split state and fail there; an infinite one drew uncapped
    for cap in ("nan", "inf", "-0.5"):
        code, out, err = run(capsys, [*command, "--k-cap", cap])
        assert (code, out) == (2, "")
        assert "k_cap" in err


def test_sweep_delta_monotone(capsys, files):
    code, out, _ = run(capsys, ["sweep", "delta", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    idx = lines[0].split(",").index("fidelity_sq")
    fids = [float(line.split(",")[idx]) for line in lines[1:]]
    assert len(fids) == 3
    # smaller delta, more slots, better fidelity
    assert fids[0] <= fids[1] <= fids[2]
    code, out, err = run(capsys, ["sweep", "delta", "--state", files["id4.json"]])
    assert (code, out) == (2, "")  # a state file also needs --sigma
    assert "--sigma" in err
    for eps in ("nan", "inf"):
        code, out, err = run(capsys, ["sweep", "delta", "--eps", eps])
        assert (code, out) == (2, "") and "eps must be" in err


def test_sweep_eps(capsys, files):
    for argv in (["sweep", "eps"], ["sweep", "eps", "--rho", files["mix.json"]]):
        code, out, err = run_or_exit(capsys, argv)
        assert (code, out) == (2, "")  # the parser requires --rho and --sigma
        assert "usage: qredist sweep eps [-h]" in err
        assert "the following arguments are required: " in err
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
    code, out, _ = run(capsys, ["sweep", "block", "--b-list", "1.6,2.5"])
    assert (code, out) == (2, "")  # not rounded to 2, 2


# --------------------------------------------------------------------------
# output formats

CROSS_FORMAT = [
    ["rates", "psi.json", "--sigma-c", "c.json"],
    ["rates", "--random-qubits", "5", "--units", "cobits"],
    ["rates", "unc.json"],  # point-mass entropies: the Schumacher rate reads 0.0
    ["quantity", "s", "mix.json"], ["quantity", "s", "pure0.json"],
    ["quantity", "rc", "ghz.json", "--parts", "R+B"],
    ["quantity", "mi", "ghz.json", "--parts", "C,R"],
    ["quantity", "ch", "ghz.json", "--parts", "C,R"],
    ["quantity", "cmi", "ghz.json", "--parts", "C,R,B"],
    ["quantity", "d", "mix.json", "pure0.json", "--allow-inf"],
    ["quantity", "dmax", "mix.json", "id2.json"], ["quantity", "v", "mix.json", "id2.json"],
    ["quantity", "dh", "mix.json", "id2.json", "--eps", "0.2"],
    ["quantity", "df", "plus2.json", "id4.json", "--eps", "0.1"],
    ["simulate", "coherence-creation", "--q", "2", "--e", "1"],
    ["simulate", "convex-split"],
    ["simulate", "qsr", "--instance", "mismatched-prior", "--n-override", "3"],
    ["sweep", "copies", "--random-qubits", "4", "--max-copies", "2"],
    ["sweep", "delta"],
    ["sweep", "eps", "--rho", "mix.json", "--sigma", "id2.json"],
    ["sweep", "block", "--b-list", "1,2"],
]


def _csv_rows_of(payload):
    """The rows that a command's CSV holds, read off its JSON."""
    if isinstance(payload, list):  # a table: the convex split and the sweeps
        return payload
    if "rates" in payload:
        return [{"rate": name, "value": value,
                 "units": ("classical bits per copy" if name == "classical_rate_incoherent"
                           else payload["units"])} for name, value in payload["rates"].items()]
    if "counters" in payload:  # a transcript
        return [{**payload["counters"], "achieved_fidelity": payload["achieved_fidelity"]}]
    return [payload]  # one quantity


@pytest.mark.parametrize("command", CROSS_FORMAT, ids=" ".join)
def test_csv_cells_are_the_repr_of_the_json_values(capsys, files, command):
    argv = [files.get(arg, arg) for arg in command]
    outs = {}
    for fmt in ("json", "csv", "pretty"):
        code, outs[fmt], _ = run(capsys, [*argv, "--format", fmt])
        assert code == 0
        assert "-0.0" not in re.split(r"[\s,:=\[\]{}\"]+", outs[fmt]), fmt  # a zero reads 0.0
    expected = [{key: value if isinstance(value, str) else repr(value)
                 for key, value in row.items()} for row in _csv_rows_of(json.loads(outs["json"]))]
    rows = list(csv.DictReader(io.StringIO(outs["csv"])))
    if command[0] == "rates":  # JSON sorts the rate names, CSV keeps the report's order
        rows.sort(key=lambda row: row["rate"])
    assert rows == expected


# --------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "7 of 7 checks passed" in out
    assert "FAIL" not in out


def test_selftest_passes_at_another_seed(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "3"])
    assert (code, out.splitlines()[-1]) == (0, "7 of 7 checks passed")


def test_selftest_reports_a_violated_bound_on_stderr(capsys, monkeypatch):
    def violated(*args, **kwargs):
        raise BoundViolation("convex split fidelity^2: measured 0.5")

    monkeypatch.setattr(cli, "convex_split_bound_check", violated)
    code, out, err = run(capsys, ["selftest"])
    assert (code, out) == (4, "")
    assert "FAIL convex split fidelity bound (BoundViolation: convex split" in err
    assert "6 of 7 checks passed" in err


def test_selftest_counts_only_violated_bounds_as_failures(capsys, monkeypatch):
    # regression: every exception in a check read as a failed bound (exit 4), so a bad seed
    # printed three FAIL lines; an input error now exits 2 from the error map
    def refused(rho):
        raise ValueError("expected non-negative integer")

    monkeypatch.setattr(cli, "relative_entropy_of_coherence", refused)
    code, out, err = run(capsys, ["selftest"])
    assert (code, out) == (2, "")
    assert err == "error: expected non-negative integer\n"


@pytest.mark.parametrize("command", [
    ["selftest", "--seed", "-5"],
    ["simulate", "convex-split", "--seed", "-1"],
    ["sweep", "delta", "--seed", "-1"],
    ["rates", "--random-qubits", "4", "--seed", "-1"],
    ["sweep", "copies", "--random-qubits", "4", "--seed", "1.5"],
])
def test_seed_must_be_a_non_negative_integer(capsys, command):
    # regression: selftest --seed -5 exited 4, the code of a violated bound
    code, out, err = run_or_exit(capsys, command)
    assert (code, out) == (2, "")
    assert "argument --seed: expected a non-negative integer" in err


def test_out_into_a_missing_directory_is_bad_input(capsys, tmp_path):
    # regression: the file was written outside the error map, so this printed a
    # FileNotFoundError traceback and exited 1, the code of an infinite quantity
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["rates", "--random-qubits", "4", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err == f"error: {target}: No such file or directory\n"


def _function_reads(tree):
    """``args.<name>`` reads per module function: its own, and with the functions it names."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def own(name):
        return {node.attr for node in ast.walk(functions[name])
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"}

    def reachable(name):
        seen, todo = set(), [name]
        while todo:
            fn = todo.pop()
            if fn not in seen:
                seen.add(fn)
                todo += [node.id for node in ast.walk(functions[fn])
                         if isinstance(node, ast.Name) and node.id in functions]
        return set().union(*map(own, seen))

    return own, reachable


def test_every_flag_a_leaf_takes_is_read():
    # a flag that a command or target takes but never reads would be ignored silently
    own, reachable = _function_reads(ast.parse(inspect.getsource(cli)))
    shared = own("main") | own("_emit")
    for path, parser in leaf_parsers():
        read = reachable(parser.get_default("run").__name__) | shared
        unread = {action.dest for action in options(parser)} - read
        assert not unread, f"{' '.join(path)} takes {sorted(unread)} and never reads them"


def test_cached_parser_leaks_nothing_between_calls(capsys, tmp_path):
    assert build_parser() is build_parser()
    paths = {name: str(tmp_path / name) for name in ("psi.json", "s.json", "a.json", "b.json")}
    save_state(paths["psi.json"],
               random_pure_state(qmat.qubits("R", "A", "B", "C"), np.random.default_rng(2)))
    save_state(paths["s.json"], DensityOperator(qmat.system(("C", 2)), np.diag([0.7, 0.3])))
    rho, sigma = random_split_instance(np.random.default_rng(4), 0.3)
    save_state(paths["a.json"], rho)
    save_state(paths["b.json"], sigma)
    pairs = [
        (["simulate", "qsr", "--instance", "mismatched-prior", "--n-override", "4",
          "--format", "json"], ["simulate", "qsr", "--format", "json"]),
        (["rates", "psi.json", "--sigma-c", "s.json"], ["rates", "psi.json"]),
        (["sweep", "delta", "--state", "a.json", "--sigma", "b.json"], ["sweep", "delta"]),
    ]
    for first, second in pairs:
        first, second = ([paths.get(arg, arg) for arg in argv] for argv in (first, second))
        assert run(capsys, first)[0] == 0
        code, out, _ = run(capsys, second)
        fresh = run_fresh(second)
        assert (code, out) == (fresh.returncode, fresh.stdout) and code == 0
        assert build_parser().parse_args(second) == build_parser.__wrapped__().parse_args(second)
