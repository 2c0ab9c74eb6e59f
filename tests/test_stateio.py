import math

import numpy as np
import pytest

from qredist import qmat
from qredist.qmat import DensityOperator, StateVector
from qredist.sampling import random_density, random_pure_state
from qredist.stateio import (
    StateFileError,
    load_density,
    load_state,
    save_state,
    state_from_json,
    state_to_json,
)


def test_vector_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    psi = random_pure_state(qmat.system(("A", 2), ("B", 3)), rng)
    path = str(tmp_path / "psi.json")
    save_state(path, psi)
    back = load_state(path)
    assert isinstance(back, StateVector)
    assert back.system.registers == psi.system.registers
    assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-15)


def test_density_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    rho = random_density(qmat.qubits("Q", "R"), rng)
    path = str(tmp_path / "rho.json")
    save_state(path, rho)
    back = load_state(path)
    assert isinstance(back, DensityOperator)
    assert np.allclose(back.matrix, rho.matrix, atol=1e-15)


def test_subnormalized_flag_survives(tmp_path):
    rho = DensityOperator(qmat.qubits("Q"), np.diag([0.25, 0.25]), subnormalized=True)
    path = str(tmp_path / "sub.json")
    save_state(path, rho)
    back = load_state(path)
    assert back.subnormalized is True
    assert back.trace() == pytest.approx(0.5)


def test_complex_entries_preserved():
    amp = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    psi = StateVector(qmat.qubits("Q"), amp)
    obj = state_to_json(psi)
    # amplitudes serialize as [re, im] pairs
    assert obj["amplitudes"][1] == [0.0, pytest.approx(1 / math.sqrt(2))]
    back = state_from_json(obj)
    assert np.allclose(back.amplitudes, amp)


def test_load_density_promotes_vectors(tmp_path):
    psi = StateVector(qmat.qubits("Q"), np.array([1.0, 1.0]) / math.sqrt(2.0))
    path = str(tmp_path / "plus.json")
    save_state(path, psi)
    rho = load_density(path)
    assert isinstance(rho, DensityOperator)
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5))


def test_rejects_malformed_payloads(tmp_path):
    with pytest.raises(StateFileError):
        state_from_json(["not", "a", "dict"])
    with pytest.raises(StateFileError):
        state_from_json({"matrix": [[1.0, 0.0]]})  # no registers
    with pytest.raises(StateFileError):
        state_from_json({"registers": [{"label": "Q", "dim": 2}]})  # no payload
    with pytest.raises(StateFileError):
        state_from_json(
            {"registers": [{"label": "Q", "dim": 2}],
             "matrix": [[[1.0, 0.0], [0.0, 0.0]]]}  # non-square
        )
    with pytest.raises(StateFileError, match="must be square"):
        state_from_json(
            {"registers": [{"label": "Q", "dim": 2}],
             "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]]}  # ragged rows
        )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(StateFileError):
        load_state(str(bad))
    with pytest.raises(StateFileError):
        load_state(str(tmp_path / "missing.json"))


def test_rejects_invalid_states():
    # well-formed JSON but unnormalized amplitudes / non-psd matrix
    with pytest.raises(StateFileError):
        state_from_json(
            {"registers": [{"label": "Q", "dim": 2}],
             "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}
        )
    with pytest.raises(StateFileError):
        state_from_json(
            {"registers": [{"label": "Q", "dim": 2}],
             "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]}
        )


def test_register_dimension_consistency():
    with pytest.raises(StateFileError):
        state_from_json(
            {"registers": [{"label": "Q", "dim": 2}],
             "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
        )
    # a dimension of 2.9 or true is refused, never truncated to 2 or 1
    for bad, amps in ((2.9, [[1.0, 0.0], [0.0, 0.0]]), (True, [[1.0, 0.0]])):
        with pytest.raises(StateFileError, match="non-integral dimension"):
            state_from_json({"registers": [{"label": "Q", "dim": bad}], "amplitudes": amps})
    psi = state_from_json({"registers": [{"label": "Q", "dim": 2.0}],
                           "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
    assert psi.system.registers == (("Q", 2),)


def test_rejects_non_json_types():
    regs = [{"label": "Q", "dim": 2}]
    half = [[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]
    # the flag is a JSON boolean; the string "false" used to read as True
    for flag in ("false", 0, None):
        with pytest.raises(StateFileError, match="'subnormalized' must be true or false"):
            state_from_json({"registers": regs, "matrix": half, "subnormalized": flag})
    # entries are JSON numbers, never booleans or numeric strings
    for pair in ([True, False], ["1", 0], [1, None]):
        with pytest.raises(StateFileError, match="pair of numbers"):
            state_from_json({"registers": regs, "amplitudes": [pair, [0, 0]]})
        with pytest.raises(StateFileError, match="pair of numbers"):
            state_from_json({"registers": regs, "matrix": [[pair, [0, 0]], [[0, 0], [0, 0]]]})
    with pytest.raises(StateFileError, match="does not fit a double"):
        state_from_json({"registers": regs, "amplitudes": [[10 ** 400, 0], [0, 0]]})
    with pytest.raises(StateFileError, match="'amplitudes' must be a list"):
        state_from_json({"registers": regs, "amplitudes": 5})
    with pytest.raises(StateFileError, match="row must be a list"):
        state_from_json({"registers": regs, "matrix": [5, 6]})
