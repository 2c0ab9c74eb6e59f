"""JSON state files.

A state file is a JSON object with a ``registers`` list of
``{"label": ..., "dim": ...}`` entries in tensor order plus either a
``matrix`` (density operator, row-major, entries as [re, im] pairs) or an
``amplitudes`` list (pure state).  Writers emit full double precision so
files round-trip exactly.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .qmat import DensityOperator, RegisterError, RegisterSystem, StateVector


class StateFileError(ValueError):
    """Malformed state file: bad JSON, missing keys or shape mismatches."""


def _system_to_json(sys_: RegisterSystem) -> list[dict[str, Any]]:
    return [{"label": lab, "dim": dim} for lab, dim in sys_.registers]


def _system_from_json(obj: Any) -> RegisterSystem:
    if not isinstance(obj, list) or not obj:
        raise StateFileError("'registers' must be a non-empty list")
    regs = []
    for entry in obj:
        if not isinstance(entry, dict) or "label" not in entry or "dim" not in entry:
            raise StateFileError(f"register entry {entry!r} needs 'label' and 'dim'")
        regs.append((str(entry["label"]), entry["dim"]))
    try:
        return RegisterSystem(tuple(regs))
    except RegisterError as exc:
        raise StateFileError(f"invalid registers: {exc}") from exc


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pair_to_complex(obj: Any) -> complex:
    """A [re, im] pair of JSON numbers; strings and booleans are refused, not converted."""
    if isinstance(obj, list) and len(obj) == 2:
        re, im = obj
        if (isinstance(re, (int, float)) and isinstance(im, (int, float))
                and not isinstance(re, bool) and not isinstance(im, bool)):
            try:
                return complex(float(re), float(im))
            except OverflowError as exc:
                raise StateFileError(f"entry {obj!r} does not fit a double") from exc
    raise StateFileError(f"expected [re, im] pair of numbers, got {obj!r}")


def _list_of(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise StateFileError(f"{what} must be a list, got {obj!r}")
    return obj


def state_to_json(state: DensityOperator | StateVector) -> dict[str, Any]:
    if isinstance(state, StateVector):
        return {
            "registers": _system_to_json(state.system),
            "amplitudes": [_complex_to_pair(z) for z in state.amplitudes],
        }
    out: dict[str, Any] = {
        "registers": _system_to_json(state.system),
        "matrix": [[_complex_to_pair(z) for z in row] for row in state.matrix],
    }
    if state.subnormalized:
        out["subnormalized"] = True
    return out


def state_from_json(obj: Any) -> DensityOperator | StateVector:
    if not isinstance(obj, dict):
        raise StateFileError("state file must contain a JSON object")
    if "registers" not in obj:
        raise StateFileError("state file is missing 'registers'")
    sys_ = _system_from_json(obj["registers"])
    if "amplitudes" in obj:
        amps = np.array([_pair_to_complex(p) for p in _list_of(obj["amplitudes"], "'amplitudes'")],
                        dtype=complex)
        try:
            return StateVector(sys_, amps)
        except ValueError as exc:
            raise StateFileError(f"invalid state vector: {exc}") from exc
    if "matrix" in obj:
        rows = [[_pair_to_complex(p) for p in _list_of(row, "a 'matrix' row")]
                for row in _list_of(obj["matrix"], "'matrix'")]
        if not rows or any(len(row) != len(rows) for row in rows):
            raise StateFileError(f"'matrix' must be square, got {len(rows)} rows of lengths "
                                 f"{sorted({len(row) for row in rows})}")
        mat = np.array(rows, dtype=complex)
        subnormalized = obj.get("subnormalized", False)
        if not isinstance(subnormalized, bool):
            raise StateFileError(f"'subnormalized' must be true or false, got {subnormalized!r}")
        try:
            return DensityOperator(sys_, mat, subnormalized=subnormalized)
        except ValueError as exc:
            raise StateFileError(f"invalid density operator: {exc}") from exc
    raise StateFileError("state file needs either 'matrix' or 'amplitudes'")


def save_state(path: str, state: DensityOperator | StateVector) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json(state), fh)
        fh.write("\n")


def load_state(path: str) -> DensityOperator | StateVector:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise StateFileError(f"{path}: {exc.strerror or exc}") from exc
    return state_from_json(obj)


def load_density(path: str) -> DensityOperator:
    """Load a state file, promoting pure states to density operators."""
    state = load_state(path)
    if isinstance(state, StateVector):
        return state.to_density()
    return state
