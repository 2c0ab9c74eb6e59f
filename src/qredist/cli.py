"""Batch command line frontend: quantities, rate reports, protocol runs, sweeps.

Every command is a thin dispatcher into the library; the only logic here is
argument handling and formatting.  Numeric output is byte-deterministic for
a fixed seed: floats are always rendered with repr and JSON keys are
sorted.

Exit codes: 0 success, 1 infinite quantity without --allow-inf, 2 input
error, 3 dimension budget exceeded, 4 violated bound or failed cross-check.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import replace
from typing import Any, Callable, Sequence

import numpy as np

from . import rates
from .coherence import dephase
from .entropy import (
    EntropicValue,
    conditional_entropy,
    conditional_mutual_information,
    hypothesis_testing_relative_entropy,
    max_relative_entropy,
    mutual_information,
    relative_entropy,
    relative_entropy_of_coherence,
    relative_entropy_variance,
    restricted_hypothesis_testing,
    von_neumann_entropy,
)
from .protocols import (
    BudgetExceeded,
    MAX_AMPLITUDES,
    MAX_DENSITY_DIM,
    QsrInstance,
    _check_budget,
    builtin_qsr_instances,
    coherence_creation,
    convex_split_bound_check,
    qsr_decoder_p1,
    qsr_full,
    qsr_parameters,
    random_split_instance,
)
from .qmat import (
    BoundViolation,
    DensityOperator,
    StateVector,
    _check_bound,
    partial_trace,
    system,
)
from .sampling import haar_vector
from .stateio import load_density, load_state

EXIT_OK = 0
EXIT_INFINITE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_BOUND = 4


class InputError(Exception):
    """Bad arguments or inputs detected at the dispatch layer."""


class InfiniteResult(Exception):
    """A requested quantity diverged and --allow-inf was not given."""


class SelftestFailed(Exception):
    """A selftest check failed; the message is the whole report."""


# ---------------------------------------------------------------------------
# small helpers

def _parse_parts(text: str, count: int | None = None) -> list[list[str]]:
    """Comma separates groups; '+' joins registers inside one group."""
    groups = [[r.strip() for r in g.split("+") if r.strip()] for g in text.split(",")]
    groups = [g for g in groups if g]
    if not groups:
        raise InputError(f"no register groups in {text!r}")
    if count is not None and len(groups) != count:
        raise InputError(f"expected {count} register groups, got {len(groups)} in {text!r}")
    return groups


def _parse_float_list(text: str) -> list[float]:
    return [float(piece) for piece in text.split(",") if piece.strip()]


def _parse_int_list(text: str) -> list[int]:
    """Integer literals only: "1.6" is refused, not rounded."""
    return [int(piece) for piece in text.split(",") if piece.strip()]


def _random_pure_rabc(seed: int, total_qubits: int) -> StateVector:
    if total_qubits < 4:
        raise InputError(f"need at least 4 qubits for registers R, A, B, C, got {total_qubits}")
    base, rem = divmod(total_qubits, 4)
    counts = [base + (1 if i < rem else 0) for i in range(4)]
    regs = tuple((lab, 2 ** c) for lab, c in zip(("R", "A", "B", "C"), counts))
    rng = np.random.default_rng(seed)
    return StateVector(system(*regs), haar_vector(2 ** total_qubits, rng))


def _load_vector(path: str) -> StateVector:
    state = load_state(path)
    if not isinstance(state, StateVector):
        raise InputError(f"{path}: expected a pure state (amplitudes), found a density matrix")
    return state


def _budget(args: argparse.Namespace, default: int = MAX_AMPLITUDES) -> int:
    """--budget when given, else the default cap for what the run materializes."""
    if args.budget is not None and args.budget < 1:
        raise InputError(f"--budget must be at least 1, got {args.budget}")
    return default if args.budget is None else args.budget


def _refuse_draw_options(**given: Any) -> None:
    """A state file replaces the seeded draw, so an option that only the draw reads is refused."""
    for dest, value in given.items():
        if value is not None:
            raise InputError(f"--{dest.replace('_', '-')} sets the seeded draw, "
                             "which a state file replaces")


def _pure_input(args: argparse.Namespace) -> StateVector:
    """The pure state from exactly one of a state file or --random-qubits."""
    if (args.state is None) == (args.random_qubits is None):
        raise InputError("provide exactly one of a state file or --random-qubits")
    budget = _budget(args)
    if args.state is not None:
        _refuse_draw_options(seed=args.seed)
        psi = _load_vector(args.state)
        if args.budget is not None:
            _check_budget(psi.system.dim, 1, 0, budget, f"state file {args.state}")
        return psi
    n = args.random_qubits
    _check_budget(1, 2, n, budget, f"--random-qubits {n} (2^{n} amplitudes)")
    return _random_pure_rabc(args.seed or 0, n)


def _split_pair(args: argparse.Namespace, k_cap: float
                ) -> tuple[DensityOperator, DensityOperator]:
    """Joint state and reference from --state and --sigma, or a seeded draw capped at
    --k-cap, by default at ``k_cap``."""
    if args.state is None and args.sigma is None:
        return random_split_instance(np.random.default_rng(args.seed or 0),
                                     k_cap if args.k_cap is None else args.k_cap)
    if args.sigma is None:
        raise InputError(f"{args.target} with a state file also needs --sigma")
    if args.state is None:
        raise InputError(f"{args.target} with --sigma also needs --state")
    _refuse_draw_options(seed=args.seed, k_cap=args.k_cap)
    return load_density(args.state), load_density(args.sigma)


def _builtin_instance(name: str) -> QsrInstance:
    instances = builtin_qsr_instances()
    if name not in instances:
        raise InputError(
            f"unknown instance {name!r}; available: {', '.join(sorted(instances))}"
        )
    return instances[name]


def _entropic(value: EntropicValue | float, allow_inf: bool) -> float | str:
    if isinstance(value, EntropicValue):
        if not value.finite:
            if not allow_inf:
                raise InfiniteResult("quantity is infinite (support condition violated)")
            return "inf"
        return value.value
    return float(value)


def _render(val: float | str) -> str:
    return val if isinstance(val, str) else repr(val)


def _json_text(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _rows_to_text(rows: list[dict[str, Any]], header: list[str], fmt: str) -> str:
    if fmt == "json":
        return _json_text([{k: row[k] for k in header} for row in rows])
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_render(row[k]) for k in header])
        return buf.getvalue()
    widths = [max(len(h), *(len(_render(r[h])) for r in rows)) if rows else len(h)
              for h in header]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(_render(row[h]).ljust(w) for h, w in zip(header, widths)).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# quantity command: each name's leaf carries its function as ``args.quantity``

def _quantity_text(args: argparse.Namespace, value: float | str) -> str:
    row = {"quantity": args.name, "value": value}
    if args.format == "json":
        return _json_text(row)
    if args.format == "csv":
        return _rows_to_text([row], list(row), "csv")
    return f"{args.name} = {_render(value)}\n"


def cmd_quantity_of_state(args: argparse.Namespace) -> str:
    """s, rc: on the state, or on the marginal of its one --parts group."""
    rho = load_density(args.files[0])
    if args.parts is not None:
        rho = partial_trace(rho, *_parse_parts(args.parts, 1))
    return _quantity_text(args, args.quantity(rho))


def cmd_quantity_of_parts(args: argparse.Namespace) -> str:
    """mi, ch: on two --parts groups; cmi: on three."""
    rho = load_density(args.files[0])
    groups = _parse_parts(args.parts, 3 if args.name == "cmi" else 2)
    return _quantity_text(args, args.quantity(rho, *groups))


def cmd_quantity_of_pair(args: argparse.Namespace) -> str:
    """d, dmax: rho against sigma, infinite off sigma's support."""
    value = args.quantity(*map(load_density, args.files))
    return _quantity_text(args, _entropic(value, args.allow_inf))


def cmd_quantity_variance(args: argparse.Namespace) -> str:
    """v: rho against sigma, refused off sigma's support."""
    return _quantity_text(args, args.quantity(*map(load_density, args.files)))


def cmd_quantity_at_eps(args: argparse.Namespace) -> str:
    """dh, df: rho against sigma at the test's error tolerance --eps."""
    value = args.quantity(*map(load_density, args.files), args.eps)
    return _quantity_text(args, _entropic(value, args.allow_inf))


# ---------------------------------------------------------------------------
# rates command

def cmd_rates(args: argparse.Namespace) -> str:
    psi = _pure_input(args)
    sigma_c = None if args.sigma_c is None else load_density(args.sigma_c)
    units = rates.COBIT_UNITS if args.units == "cobits" else rates.QUBIT_UNITS
    report = rates.rate_report(psi, sigma_c).in_units(units)
    if args.format == "json":
        return _json_text(report.to_json())
    if args.format == "csv":
        rows = [{"rate": name, "value": val, "units": report.units_of(name)}
                for name, val in report.entries().items()]
        return _rows_to_text(rows, ["rate", "value", "units"], "csv")
    lines = [f"units: {report.units}"]
    for name, val in report.entries().items():
        lines.append(f"  {name} = {_render(val)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# simulate command

def _transcript_text(args: argparse.Namespace, transcript) -> str:
    if args.format == "json":
        return _json_text(transcript.to_json())
    if args.format == "csv":
        row = {name: getattr(transcript, name) for name in transcript.COUNTERS}
        row["achieved_fidelity"] = transcript.achieved_fidelity
        return _rows_to_text([row], sorted(transcript.COUNTERS) + ["achieved_fidelity"], "csv")
    lines = []
    for i, step in enumerate(transcript.steps, 1):
        lines.append(f"step {i}: {step['description']}")
    for name in transcript.COUNTERS:
        lines.append(f"{name.replace('_', ' ')}: {getattr(transcript, name)}")
    lines.append(f"achieved fidelity: {_render(transcript.achieved_fidelity)}")
    for key in sorted(transcript.details):
        if key in ("rc_audit",):
            continue
        lines.append(f"{key}: {_render(transcript.details[key])}")
    return "\n".join(lines) + "\n"


def cmd_coherence_creation(args: argparse.Namespace) -> str:
    return _transcript_text(args, coherence_creation(args.q, args.e, budget=_budget(args)))


def cmd_convex_split(args: argparse.Namespace) -> str:
    rho, sigma = _split_pair(args, 0.5)
    chk = convex_split_bound_check(rho, sigma, eps=args.eps, delta=args.delta,
                                   budget=_budget(args, MAX_DENSITY_DIM))
    row = {"k": chk.k, "n": chk.n, "fidelity_sq": chk.fidelity_squared, "bound": chk.bound}
    return _rows_to_text([row], ["k", "n", "fidelity_sq", "bound"], args.format)


def cmd_qsr(args: argparse.Namespace) -> str:
    overrides = {"eps1": args.eps1, "eps2": args.eps2, "gamma": args.gamma,
                 "n_override": args.n_override, "b_override": args.b_override}
    inst = replace(_builtin_instance(args.instance),
                   **{name: val for name, val in overrides.items() if val is not None})
    return _transcript_text(args, qsr_full(inst, budget=_budget(args)))


# ---------------------------------------------------------------------------
# sweep command

def cmd_copies(args: argparse.Namespace) -> str:
    psi = _pure_input(args)
    if args.max_copies < 1:
        raise InputError("empty sweep: --max-copies must be at least 1")
    budget = _budget(args)
    rows = []
    for m in range(1, args.max_copies + 1):
        _check_budget(1, psi.system.dim, m, budget, f"the {m}-copy state")
        rep = rates.rate_report(rates.tensor_power_state(psi, m))
        row: dict[str, Any] = {"copies": m}
        for name, val in rep.entries().items():
            row[f"{name}_per_copy"] = val / m
        if rows:  # the rates are additive on product states: per copy, each is m = 1's
            _check_bound(f"additivity of the rates over {m} copies",
                         max(abs(row[key] - rows[0][key]) for key in row if key != "copies"),
                         0.0, "<=", rates.FORM_TOL)
        rows.append(row)
    return _rows_to_text(rows, list(rows[0]), args.format)


def cmd_delta(args: argparse.Namespace) -> str:
    deltas = _parse_float_list(args.deltas)
    if not deltas:
        raise InputError("empty sweep: no delta values given")
    rho, sigma = _split_pair(args, 0.15)
    budget = _budget(args, MAX_DENSITY_DIM)
    rows = []
    for delta in deltas:
        chk = convex_split_bound_check(rho, sigma, eps=args.eps, delta=delta, budget=budget)
        rows.append({"delta": delta, "k": chk.k, "n": chk.n,
                     "fidelity_sq": chk.fidelity_squared, "bound": chk.bound})
    return _rows_to_text(rows, ["delta", "k", "n", "fidelity_sq", "bound"], args.format)


def cmd_eps(args: argparse.Namespace) -> str:
    eps_values = _parse_float_list(args.eps_list)
    if not eps_values:
        raise InputError("empty sweep: no eps values given")
    rho, sigma = load_density(args.rho), load_density(args.sigma)
    rows = []
    for eps in eps_values:
        value = _entropic(hypothesis_testing_relative_entropy(rho, sigma, eps), args.allow_inf)
        rows.append({"eps": eps, "d_h": value})
    return _rows_to_text(rows, ["eps", "d_h"], args.format)


def cmd_block(args: argparse.Namespace) -> str:
    b_values = _parse_int_list(args.b_list)
    if not b_values:
        raise InputError("empty sweep: no block sizes given")
    inst = _builtin_instance(args.instance)
    params = qsr_parameters(inst)
    rows = []
    for b in b_values:
        t = qsr_decoder_p1(inst, b, params, budget=_budget(args))
        rows.append({"b": b, "fidelity": t.achieved_fidelity,
                     "purified_distance": t.details["purified_distance"],
                     "claim_bound": t.details["claim_bound"]})
    return _rows_to_text(rows, ["b", "fidelity", "purified_distance", "claim_bound"], args.format)


# ---------------------------------------------------------------------------
# selftest command

def _selftest_checks(seed: int) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def run(name: str, fn: Callable[[], tuple[bool, str]]) -> None:
        try:
            ok, info = fn()
        except BoundViolation as exc:  # a failed check; any other error is the run's
            ok, info = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, ok, info))

    def ghz_cmi() -> tuple[bool, str]:
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
        psi = StateVector(system(("R", 2), ("B", 2), ("C", 2)), amps)
        rho = psi.to_density()
        val = conditional_mutual_information(rho, "C", "R", "B")
        return abs(val - 1.0) < 1e-9, repr(val)

    def plus_rc() -> tuple[bool, str]:
        rho = DensityOperator(system(("Q", 2)), np.full((2, 2), 0.5, dtype=complex))
        val = relative_entropy_of_coherence(rho)
        return abs(val - 1.0) < 1e-9, repr(val)

    def dephase_idempotent() -> tuple[bool, str]:
        rng = np.random.default_rng(seed)
        from .sampling import random_density
        rho = random_density(system(("X", 2), ("Y", 3)), rng)
        once = dephase(rho).matrix
        twice = dephase(dephase(rho)).matrix
        gap = float(np.max(np.abs(once - twice)))
        return gap < 1e-12, repr(gap)

    def split_bound() -> tuple[bool, str]:
        rng = np.random.default_rng(seed + 1)
        rho, sigma = random_split_instance(rng, 0.5)
        # the call raises on a violated bound, which ``run`` records as a failure
        return True, repr(convex_split_bound_check(rho, sigma, eps=0.0, delta=0.25)
                          .fidelity_squared)

    def creation() -> tuple[bool, str]:
        t = coherence_creation(2, 1)
        ok = t.coherent_qubits_out == 3 and t.achieved_fidelity >= 1.0 - 1e-9
        return ok, repr(t.achieved_fidelity)

    def redistribution() -> tuple[bool, str]:
        t = qsr_full(builtin_qsr_instances()["uncorrelated-pure"])  # raises like split_bound
        return True, repr(t.details["purified_distance"])

    def rate_forms() -> tuple[bool, str]:
        psi = _random_pure_rabc(seed + 2, 4)
        a, b, c = rates.incoherent_rate_forms(psi)
        spread = max(a, b, c) - min(a, b, c)
        return spread < 1e-9, repr(spread)

    run("conditional mutual information on the three-party branching state", ghz_cmi)
    run("relative entropy of coherence of the flat qubit", plus_rc)
    run("dephasing is idempotent", dephase_idempotent)
    run("convex split fidelity bound", split_bound)
    run("coherence creation from two sends and one singlet", creation)
    run("redistribution end-to-end distance bound", redistribution)
    run("incoherent rate three-form agreement", rate_forms)
    return checks


def cmd_selftest(args: argparse.Namespace) -> str:
    checks = _selftest_checks(args.seed or 0)
    lines = [f"{'ok  ' if ok else 'FAIL'} {name} ({info})" for name, ok, info in checks]
    passed = sum(ok for _, ok, _ in checks)
    report = "\n".join([*lines, f"{passed} of {len(checks)} checks passed"])
    if passed < len(checks):
        raise SelftestFailed(f"selftest failed\n{report}")
    return report + "\n"


# ---------------------------------------------------------------------------
# parser and entry point

def _seed(text: str) -> int:
    if not text.isdecimal():  # digits only: no sign, point or exponent
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got an empty string")
    return text


class _Parser(argparse.ArgumentParser):
    """Refuses unknown arguments itself, not through its parent, so the error shows its usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


_OPTIONS: dict[str, dict[str, Any]] = {
    "--seed": dict(type=_seed, help="seed for any randomness (a non-negative integer)"),
    "--format": dict(choices=("json", "csv", "pretty"), default="pretty"),
    "--out": dict(type=_path, help="write output to this file instead of stdout"),
    "--budget": dict(type=int,
                     help=f"largest state vector a run may materialize (default {MAX_AMPLITUDES}); "
                          f"for a convex split, its largest density dimension "
                          f"(default {MAX_DENSITY_DIM})"),
    "--allow-inf": dict(action="store_true",
                        help="report infinite quantities instead of failing"),
}


def _leaf(sub: argparse._SubParsersAction, name: str, run: Callable[[argparse.Namespace], str],
          help: str, *shared: str) -> argparse.ArgumentParser:
    """A command, target or name parser that runs ``run`` and takes the shared options it reads."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    for flag in shared:
        p.add_argument(flag, **_OPTIONS[flag])
    return p


def _split_options(p: argparse.ArgumentParser) -> None:
    """What a convex split reads: a state pair from files, or a seeded capped draw."""
    p.add_argument("--state", type=_path, help="joint state file on P, Q")
    p.add_argument("--sigma", type=_path, help="reference state file on Q")
    p.add_argument("--eps", type=float, default=0.0, help="smoothing radius")
    p.add_argument("--k-cap", type=float, help="correlation cap for seeded random instances")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process and shared: no caller may modify it."""
    parser = _Parser(
        prog="qredist",
        description="entropic quantities, communication rates and one-shot protocol runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = "--format", "--out"

    q = sub.add_parser("quantity", help="evaluate one entropic quantity on state files")
    names = q.add_subparsers(dest="name", required=True)

    def quantities(run: Callable[[argparse.Namespace], str], nargs: int, *shared: str,
                   **functions: tuple[Callable[..., Any], str]) -> list[argparse.ArgumentParser]:
        """One leaf per (function, help), each taking ``nargs`` state files."""
        leaves = []
        for name, (function, help) in functions.items():
            c = _leaf(names, name, run, help, *output, *shared)
            c.set_defaults(quantity=function)
            c.add_argument("files", nargs=nargs, type=_path,
                           help="the state file" if nargs == 1 else "rho's file, then sigma's")
            leaves.append(c)
        return leaves

    for c in quantities(cmd_quantity_of_state, 1, s=(von_neumann_entropy, "von Neumann entropy"),
                        rc=(relative_entropy_of_coherence, "relative entropy of coherence")):
        c.add_argument("--parts", help="one register group, to take the quantity on its marginal")
    for c in quantities(cmd_quantity_of_parts, 1, mi=(mutual_information, "mutual information"),
                        ch=(conditional_entropy, "conditional entropy"),
                        cmi=(conditional_mutual_information, "conditional mutual information")):
        c.add_argument("--parts", required=True, help="register groups, comma separated, '+' joins")
    quantities(cmd_quantity_of_pair, 2, "--allow-inf", d=(relative_entropy, "relative entropy"),
               dmax=(max_relative_entropy, "max-relative entropy"))
    quantities(cmd_quantity_variance, 2, v=(relative_entropy_variance, "relative entropy variance"))
    for c in quantities(cmd_quantity_at_eps, 2, "--allow-inf",
                        dh=(hypothesis_testing_relative_entropy, "hypothesis-testing D_H^eps"),
                        df=(restricted_hypothesis_testing, "D_H^eps over free (diagonal) tests")):
        c.add_argument("--eps", type=float, required=True, help="the test's error tolerance")

    r = _leaf(sub, "rates", cmd_rates, "full closed-form rate report for one pure state",
              "--seed", *output, "--budget")
    r.add_argument("state", nargs="?", type=_path, help="pure state file on registers R, A, B, C")
    r.add_argument("--random-qubits", type=int,
                   help="draw a seeded random pure state on this many qubits instead")
    r.add_argument("--sigma-c", type=_path, help="free reference state file for the product form")
    r.add_argument("--units", choices=("qubits", "cobits"), default="qubits")

    s = sub.add_parser("simulate", help="run a protocol and print its transcript")
    targets = s.add_subparsers(dest="target", required=True)
    c = _leaf(targets, "coherence-creation", cmd_coherence_creation,
              "coherent qubits from qubit sends and singlets", *output, "--budget")
    c.add_argument("--q", type=int, default=1, help="qubit channel uses")
    c.add_argument("--e", type=int, default=1, help="singlets available")
    c = _leaf(targets, "convex-split", cmd_convex_split, "the convex-split fidelity bound",
              "--seed", *output, "--budget")
    _split_options(c)
    c.add_argument("--delta", type=float, default=0.25, help="overlap budget")
    c = _leaf(targets, "qsr", cmd_qsr, "state redistribution on a built-in instance",
              *output, "--budget")
    c.add_argument("--instance", default="uncorrelated-pure", help="built-in instance")
    c.add_argument("--eps1", type=float, help="override instance eps1")
    c.add_argument("--eps2", type=float, help="override instance eps2")
    c.add_argument("--gamma", type=float, help="override instance gamma")
    c.add_argument("--n-override", type=int, help="force the slot count")
    c.add_argument("--b-override", type=int, help="force the block size")

    w = sub.add_parser("sweep", help="parameter sweeps emitting one row per value")
    targets = w.add_subparsers(dest="target", required=True)
    c = _leaf(targets, "copies", cmd_copies, "per-copy rates of tensor powers",
              "--seed", *output, "--budget")
    c.add_argument("--state", type=_path, help="pure state file on registers R, A, B, C")
    c.add_argument("--random-qubits", type=int, help="seeded random input on this many qubits")
    c.add_argument("--max-copies", type=int, default=3, help="largest copy count")
    c = _leaf(targets, "delta", cmd_delta, "the convex-split bound over delta",
              "--seed", *output, "--budget")
    _split_options(c)
    c.add_argument("--deltas", default="0.5,0.25,0.125", help="delta values")
    c = _leaf(targets, "eps", cmd_eps, "hypothesis-testing relative entropy over eps",
              *output, "--allow-inf")
    c.add_argument("--rho", type=_path, required=True, help="tested state file")
    c.add_argument("--sigma", type=_path, required=True, help="reference state file")
    c.add_argument("--eps-list", default="0.05,0.1,0.25", help="eps values")
    c = _leaf(targets, "block", cmd_block, "the decoder's claim bound over block sizes",
              *output, "--budget")
    c.add_argument("--instance", default="classical-side-info", help="built-in instance")
    c.add_argument("--b-list", default="1,2,3", help="block sizes")

    _leaf(sub, "selftest", cmd_selftest, "run the built-in validation battery", "--seed", "--out")
    return parser


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{args.out}: {exc.strerror or exc}") from exc


# checked in order: a BoundViolation is an ArithmeticError, every state error a ValueError
_EXIT_CODES = {InfiniteResult: EXIT_INFINITE, BudgetExceeded: EXIT_BUDGET,
               ArithmeticError: EXIT_BOUND, SelftestFailed: EXIT_BOUND,
               InputError: EXIT_INPUT, ValueError: EXIT_INPUT, OSError: EXIT_INPUT}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args, args.run(args))
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
