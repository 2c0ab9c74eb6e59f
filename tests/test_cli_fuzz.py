"""Seeded fuzz of the CLI's exit-code contract across every leaf parser.

Each case is an argv for one command, `simulate`/`sweep` target or quantity
name: a valid base with one out-of-domain flag value, a seeded draw of several,
or a malformed state file in one of the leaf's file slots.  For every case the exit
code is documented (0 to 4, argparse's exit counting as 2), exit 1 means an
infinite quantity, a failure prints nothing but its error message, no warning
is raised, and a second run prints the same bytes.  The case id is the argv, so a failure
names its input.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from cli_helpers import leaf_parsers, options
from qredist import qmat
from qredist.cli import main
from qredist.qmat import DensityOperator, StateVector
from qredist.stateio import save_state

# A valid argv per leaf, cheap to run; "@name" is a state file written per test.
BASE = {
    ("quantity", "s"): ["@q"],
    ("quantity", "rc"): ["@pq", "--parts", "C"],
    ("quantity", "mi"): ["@pq", "--parts", "P,C"],
    ("quantity", "ch"): ["@pq", "--parts", "P,C"],
    ("quantity", "cmi"): ["@psi", "--parts", "C,R,B"],
    ("quantity", "d"): ["@q", "@c"],
    ("quantity", "dmax"): ["@q", "@c"],
    ("quantity", "v"): ["@q", "@c"],
    ("quantity", "dh"): ["@q", "@c", "--eps", "0.1"],
    ("quantity", "df"): ["@q", "@c", "--eps", "0.1"],
    ("rates",): ["@psi", "--sigma-c", "@c"],
    ("simulate", "coherence-creation"): [],
    ("simulate", "convex-split"): ["--state", "@pq", "--sigma", "@c"],
    ("simulate", "qsr"): [],
    ("sweep", "copies"): ["--state", "@psi", "--max-copies", "1"],
    ("sweep", "delta"): ["--state", "@pq", "--sigma", "@c", "--deltas", "0.5"],
    ("sweep", "eps"): ["--rho", "@q", "--sigma", "@c", "--eps-list", "0.1"],
    ("sweep", "block"): ["--b-list", "1"],
    ("selftest",): [],
}

# out-of-domain flag values; "@missing" is a path under a directory that does not exist
VALUES = ("nan", "inf", "0", "-1", "1e308", "", "@missing")

# malformed state files: the registers and the payload of the JSON object, or raw text
_AMPS = '"amplitudes": [[1, 0], [0, 0]]'
PROBES = {
    "label-repeated": '{"registers": [{"label": "Q", "dim": 2}, {"label": "Q", "dim": 2}], '
                      '"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
    "label-missing": '{"registers": [{"dim": 2}], %s}' % _AMPS,
    "label-unknown": '{"registers": [{"label": "Z", "dim": 2}], %s}' % _AMPS,
    "dim-zero": '{"registers": [{"label": "Q", "dim": 0}], "amplitudes": []}',
    "dim-negative": '{"registers": [{"label": "Q", "dim": -2}], %s}' % _AMPS,
    "dim-fraction": '{"registers": [{"label": "Q", "dim": 2.9}], %s}' % _AMPS,
    "dim-bool": '{"registers": [{"label": "Q", "dim": true}], %s}' % _AMPS,
    "dim-string": '{"registers": [{"label": "Q", "dim": "2"}], %s}' % _AMPS,
    "dim-mismatch": '{"registers": [{"label": "Q", "dim": 4}], %s}' % _AMPS,
    "amp-nan": '{"registers": [{"label": "Q", "dim": 2}], "amplitudes": [[NaN, 0], [0, 0]]}',
    "amp-inf": '{"registers": [{"label": "Q", "dim": 2}], "amplitudes": [[Infinity, 0], [0, 0]]}',
    "amp-huge": '{"registers": [{"label": "Q", "dim": 2}], '
                '"amplitudes": [[1e308, 0], [1e308, 0]]}',
    "amp-overflow": '{"registers": [{"label": "Q", "dim": 2}], "amplitudes": [[1e999, 0], [0, 0]]}',
    "amp-zero": '{"registers": [{"label": "Q", "dim": 2}], "amplitudes": [[0, 0], [0, 0]]}',
    "amp-bool": '{"registers": [{"label": "Q", "dim": 2}], '
                '"amplitudes": [[true, false], [0, 0]]}',
    "amp-string": '{"registers": [{"label": "Q", "dim": 2}], "amplitudes": [["1", 0], [0, 0]]}',
    "amp-not-list": '{"registers": [{"label": "Q", "dim": 2}], "amplitudes": 1}',
    "registers-not-list": '{"registers": {"label": "Q", "dim": 2}, %s}' % _AMPS,
    "top-level-list": '[1, 2]',
    "no-payload": '{"registers": [{"label": "Q", "dim": 2}]}',
    "matrix-ragged": '{"registers": [{"label": "Q", "dim": 2}], '
                     '"matrix": [[[0.5, 0], [0, 0]], [[0.5, 0]]]}',
    "matrix-nan": '{"registers": [{"label": "Q", "dim": 2}], '
                  '"matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
    "matrix-huge": '{"registers": [{"label": "Q", "dim": 2}], '
                    '"matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]}',
    "matrix-inf": '{"registers": [{"label": "Q", "dim": 2}], '
                  '"matrix": [[[Infinity, 0], [0, 0]], [[0, 0], [0, 0]]]}',
    "matrix-negative": '{"registers": [{"label": "Q", "dim": 2}], '
                       '"matrix": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}',
    "matrix-not-hermitian": '{"registers": [{"label": "Q", "dim": 2}], '
                            '"matrix": [[[0.5, 0], [0.3, 0]], [[0, 0], [0.5, 0]]]}',
    "subnormalized-string": '{"registers": [{"label": "Q", "dim": 2}], '
                            '"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.25, 0]]], '
                            '"subnormalized": "yes"}',
    "off-support": '{"registers": [{"label": "C", "dim": 2}], '  # valid, but infinite D(q||.)
                   '"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
    "not-json": '{"registers": [',
    "empty": '',
}


def _flag_cases():
    cases = []
    for path, parser in leaf_parsers():
        for action in options(parser):
            flag = action.option_strings[0]
            for value in ((None,) if action.nargs == 0 else VALUES):
                cases.append((*path, *BASE[path], flag, *(() if value is None else (value,))))
    return cases


def _drawn_cases(seed=2024, per_leaf=8):
    rng = np.random.default_rng(seed)
    cases = []
    for path, parser in leaf_parsers():
        flags = options(parser)
        for _ in range(per_leaf):
            argv = [*path, *BASE[path]]
            for i in rng.choice(len(flags), size=min(3, len(flags)), replace=False):
                action = flags[i]
                argv.append(action.option_strings[0])
                if action.nargs != 0:
                    argv.append(VALUES[rng.integers(len(VALUES))])
            cases.append(tuple(argv))
    return cases


def _file_cases():
    # leaves that share a run function share its loaders, so the first of them stands for all
    cases, runs = [], set()
    for path, parser in leaf_parsers():
        if parser.get_default("run") in runs:
            continue
        runs.add(parser.get_default("run"))
        base = BASE[path]
        for slot in (i for i, arg in enumerate(base) if arg.startswith("@")):
            for probe in PROBES:
                argv = list(base)
                argv[slot] = "@" + probe
                cases.append((*path, *argv))
    return cases


BASES = [(*path, *base) for path, base in BASE.items()]
CASES = list(dict.fromkeys(BASES + _flag_cases() + _drawn_cases() + _file_cases()))


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = {"missing": str(d / "no-such-dir" / "x.json")}

    def write(name, state):
        paths[name] = str(d / f"{name}.json")
        save_state(paths[name], state)

    amps = np.random.default_rng(3).standard_normal(16) + 0j
    write("psi", StateVector(qmat.qubits("R", "A", "B", "C"), amps / np.linalg.norm(amps)))
    write("c", DensityOperator(qmat.system(("C", 2)), np.diag([0.6, 0.4])))
    write("q", DensityOperator(qmat.system(("C", 2)), np.diag([0.9, 0.1])))
    joint = np.zeros((4, 4))
    joint[0, 0] = joint[3, 3] = joint[0, 3] = joint[3, 0] = 0.3
    joint[1, 1] = joint[2, 2] = 0.2
    write("pq", DensityOperator(qmat.system(("P", 2), ("C", 2)), joint))
    for name, text in PROBES.items():
        paths[name] = str(d / f"probe-{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(text)
    return paths


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    # one for all cases: a directory per case takes longer to make than most cases to run
    return tmp_path_factory.mktemp("fuzz-out")


def _run(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print on stderr besides the error
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c) for c in CASES])
def test_exit_code_contract(capsys, monkeypatch, out_dir, state_files, case):
    monkeypatch.chdir(out_dir)  # an --out that is a bare value lands here
    argv = [state_files[arg[1:]] if arg.startswith("@") else arg for arg in case]
    code, out, err = _run(capsys, argv)
    assert code in (0, 1, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 1:
        assert "is infinite" in err
    if code != 0:
        assert out == "" and err
    assert _run(capsys, argv)[:2] == (code, out)
    if case in BASES:  # a base that failed would leave its mutations untested
        assert code == 0, err
