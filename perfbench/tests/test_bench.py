"""Tests of the benchmark itself: correctness gate, traced-run hygiene, compare.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import numpy as np  # noqa: E402
import qredist  # noqa: E402
from qredist import qmat  # noqa: E402

import compare  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    """Scratch directory inside the benchmark's own output directory."""
    run.OUT_DIR.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT_DIR)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def build(name: str, workdir: str, seed=None):
    cls = WORKLOADS[name]
    return cls(cls.default_seed if seed is None else seed, workdir)


@pytest.mark.parametrize("name", ["small-battery", "qsr-scaling"])
def test_perturbed_reference_is_a_failed_op(name, workdir):
    wl = build(name, workdir)
    assert wl.reference is not None
    failures = []
    run.timed_op(wl, 0, failures)
    run.timed_op(wl, 1, failures)
    assert failures == []
    wl.reference[1][0] += 1e-6
    run.timed_op(wl, 1, failures)
    assert len(failures) == 1 and failures[0].startswith("op 1: value 0")


def test_reference_is_only_used_at_the_default_seed(workdir):
    wl = build("small-battery", workdir, seed=5)
    assert wl.reference is None
    failures = []
    for i in range(wl.CYCLE):
        run.timed_op(wl, i, failures)
    assert failures == []


def test_schmidt_oracle_catches_a_wrong_rate(workdir):
    wl = build("rate-report", workdir, seed=3)
    code, report = wl.run(0)
    assert wl.check(0, (code, report)) is None
    report["rates"]["q_plus_e_min_std"] += 1e-7
    assert "Schmidt spectrum" in wl.check(0, (code, report))


def test_classical_oracle_catches_a_wrong_test_value(workdir):
    wl = build("small-battery", workdir, seed=3)
    i = wl.KINDS.index("np")
    value, pi = wl.run(i)
    assert wl.check(i, (value, pi)) is None
    wrong = qredist.EntropicValue(value.value + 1e-5)
    assert "classical oracle" in wl.check(i, (wrong, pi))


def _traced_counts(wl, ops):
    tracer = Tracer()
    failures = []
    for i in ops:
        run.traced_op(wl, i, failures, tracer)
    assert failures == []
    return tracer, dict(tracer.calls), dict(tracer.work_d3)


def test_traced_counts_repeat_and_originals_come_back(workdir):
    originals = {
        "fidelity_matrices": qmat.fidelity_matrices,
        "post_init": qmat.DensityOperator.__post_init__,
        "eigh": np.linalg.eigh,
        "einsum": np.einsum,
        "main": qredist.cli.main,
    }
    for name, ops in (("small-battery", range(28)), ("qsr-scaling", range(6))):
        wl = build(name, workdir)
        _, calls_a, work_a = _traced_counts(wl, ops)
        tracer, calls_b, work_b = _traced_counts(wl, ops)
        assert calls_a == calls_b and work_a == work_b
        assert calls_a["qmat.DensityOperator"] > 0
        assert all(span[4] in ops for span in tracer.spans)
    assert qredist.protocols.fidelity_matrices is qredist.qmat.fidelity_matrices
    assert qmat.fidelity_matrices is originals["fidelity_matrices"]
    assert qmat.DensityOperator.__post_init__ is originals["post_init"]
    assert np.linalg.eigh is originals["eigh"] and np.einsum is originals["einsum"]
    assert qredist.cli.main is originals["main"]
    assert not hasattr(qmat.fidelity_matrices, "__wrapped__")


def test_kernels_outside_an_operation_are_not_counted():
    tracer = Tracer()
    tracer.install()
    try:
        np.linalg.eigvalsh(np.eye(3))
        qmat.DensityOperator(qmat.qubits("Q"), np.eye(2) / 2)
    finally:
        tracer.restore()
    assert tracer.spans == [] and sum(tracer.calls.values()) == 0


def test_metric_names_match_benchmark_json():
    tracer = Tracer()
    per_layer = tracer.metrics(ops=1, traced_s=1.0, untraced_s=1.0)
    assert sorted(per_layer) == sorted(m["name"] for m in SPEC["per_layer"])
    for spec in SPEC["per_layer"]:
        assert per_layer[spec["name"]][1] == spec["unit"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_compare_flags_unresolved_rows():
    spec = [{"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]
    steady = {("w", "ops_per_s"): [10.0, 10.1, 9.9, 10.0, 10.05]}
    noisy = {("w", "ops_per_s"): [8.0, 12.0, 9.0, 11.0, 10.0]}
    clearly_better = {("w", "ops_per_s"): [20.0, 25.0, 30.0, 22.0, 28.0]}
    assert compare.rows(steady, steady, spec)[0][-1] == ""
    assert compare.rows(steady, noisy, spec)[0][-1] == "unresolved"
    assert compare.rows(steady, clearly_better, spec)[0][-1] == ""
    assert compare.rows(steady, clearly_better, spec)[0][5] == f"{25.0 / 10.0:.4f}"
