"""Acceptance gate: nine end-to-end checks at fixed tolerances and runtime budgets.

Each test prints one summary line (criterion number, short name, PASS or
FAIL, elapsed seconds); run with ``pytest tests/test_acceptance.py -s`` to
see the lines as they complete.
"""

import math
import time

import numpy as np
from scipy.stats import binom

from qredist import qmat
from qredist.entropy import (
    hypothesis_testing_relative_entropy,
    max_relative_entropy,
    optimal_hypothesis_test,
    relative_entropy,
    relative_entropy_of_coherence,
    relative_entropy_variance,
    von_neumann_entropy,
)
from qredist.protocols import (
    builtin_qsr_instances,
    close_states_measurement_check,
    coherence_creation,
    convex_split_bound_check,
    qsr_full,
    qsr_parameters,
    random_split_instance,
    sequential_projector_bound_check,
)
from qredist.qmat import (
    DensityOperator,
    StateVector,
    partial_trace,
    psd_sqrt,
    purified_distance,
    trace_norm,
)
from qredist.rates import incoherent_rate_forms, incoherent_schumacher_rate, rate_report
from qredist.sampling import random_density, random_pure_state, random_unitary


def _report(num: int, name: str, violations: list, started: float) -> None:
    elapsed = time.monotonic() - started
    ok = not violations
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, f"criterion {num} violations: {violations[:5]}"


def test_criterion_1_coherence_creation():
    started = time.monotonic()
    violations = []
    for q in range(4):
        for e in range(4):
            t = coherence_creation(q, e)
            c = q + min(e, q)
            if t.coherent_qubits_out != c:
                violations.append((q, e, "count", t.coherent_qubits_out))
            if t.achieved_fidelity < 1.0 - 1e-9:
                violations.append((q, e, "fidelity", t.achieved_fidelity))
            bob_steps = [s for s in t.steps if s["description"].startswith("bob")]
            if len(bob_steps) != min(e, q):
                violations.append((q, e, "bob steps", len(bob_steps)))
            for s in bob_steps:
                text = s["description"]
                if not (s["data"].get("incoherent") and "certified incoherent" in text):
                    violations.append((q, e, "uncertified", text))
    if time.monotonic() - started >= 5.0:
        violations.append(("runtime", time.monotonic() - started))
    _report(1, "coherence creation", violations, started)


def test_criterion_2_local_coherence_gap():
    started = time.monotonic()
    violations = []
    rng = np.random.default_rng(20)
    for trial in range(1000):
        d_a = int(rng.integers(2, 5))
        d_b = int(rng.integers(2, 5))
        rho = random_density(qmat.system(("A", d_a), ("B", d_b)), rng)
        gap = relative_entropy_of_coherence(rho) - relative_entropy_of_coherence(
            partial_trace(rho, ["B"])
        )
        if gap > 2.0 * math.log2(d_a) + 1e-8:
            violations.append((trial, d_a, d_b, gap))
    if time.monotonic() - started >= 30.0:
        violations.append(("runtime", time.monotonic() - started))
    _report(2, "local coherence gap", violations, started)


def test_criterion_3_convex_split_bound():
    started = time.monotonic()
    violations = []
    rng = np.random.default_rng(30)
    # the smallest delta forces ten-register split states, so it gets the
    # smallest share of the 500 instances to stay inside the runtime budget
    plan = ((0.5, 0.5, 300), (0.25, 0.5, 194), (0.125, 0.15, 6))
    total = 0
    for delta, k_cap, count in plan:
        for _ in range(count):
            rho, sigma = random_split_instance(rng, k_cap)
            chk = convex_split_bound_check(rho, sigma, eps=0.0, delta=delta)
            total += 1
            if chk.fidelity_squared < 1.0 - delta - 1e-8:
                violations.append((delta, chk.k, chk.fidelity_squared))
    if total < 500:
        violations.append(("instances", total))
    if time.monotonic() - started >= 120.0:
        violations.append(("runtime", time.monotonic() - started))
    _report(3, "convex split bound", violations, started)


def test_criterion_4_three_form_rate_equality():
    started = time.monotonic()
    violations = []
    for seed in range(200):
        rng = np.random.default_rng(4000 + seed)
        psi = random_pure_state(qmat.qubits("R", "A", "B", "C"), rng)
        a, b, c = incoherent_rate_forms(psi)
        spread = max(a, b, c) - min(a, b, c)
        if spread > 1e-9:
            violations.append((seed, a, b, c))
    _report(4, "three-form rate equality", violations, started)


def test_criterion_5_flat_qubit_special_case():
    started = time.monotonic()
    violations = []
    plus = DensityOperator(qmat.system(("C", 2)), np.full((2, 2), 0.5))
    rate = incoherent_schumacher_rate(plus)
    if abs(rate - 0.5) > 1e-12:
        violations.append(("schumacher", rate))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rb = StateVector(qmat.qubits("R", "B"), bell)
    plus_c = StateVector(qmat.qubits("C"), np.array([1.0, 1.0]) / math.sqrt(2.0))
    psi = qmat.tensor_vectors(rb, plus_c)
    classical = rate_report(psi).classical_rate_incoherent
    if abs(classical - 1.0) > 1e-12:
        violations.append(("classical", classical))
    _report(5, "flat qubit special case", violations, started)


def _np_threshold_oracle(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Exhaustive randomized-threshold optimum for a classical pair.

    Every deterministic likelihood-ratio cut is evaluated, plus the
    fractional completion on the next atom that lands the captured p-mass
    exactly at 1 - eps; the smallest q-leak wins.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 1e-15, p / np.clip(q, 1e-15, None),
                         np.where(p > 1e-15, np.inf, -1.0))
    order = np.argsort(-ratio, kind="stable")
    ps, qs = p[order], q[order]
    target = 1.0 - eps
    best = math.inf
    cum_p = np.concatenate([[0.0], np.cumsum(ps)])
    cum_q = np.concatenate([[0.0], np.cumsum(qs)])
    for cut in range(len(ps) + 1):
        if cum_p[cut] >= target - 1e-15:
            best = min(best, cum_q[cut])
        elif cut < len(ps) and ps[cut] > 1e-15:
            w = (target - cum_p[cut]) / ps[cut]
            if w <= 1.0 + 1e-12:
                best = min(best, cum_q[cut] + min(w, 1.0) * qs[cut])
    return best


def test_criterion_6_hypothesis_testing_correctness():
    started = time.monotonic()
    violations = []
    rng = np.random.default_rng(60)
    eps_grid = (0.05, 0.1, 0.25)
    for trial in range(300):
        d = int(rng.integers(2, 7))
        u = random_unitary(d, rng)
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        sys_ = qmat.system(("S", d))
        rho = DensityOperator(sys_, (u * p) @ u.conj().T)
        sigma = DensityOperator(sys_, (u * q) @ u.conj().T)
        eps = eps_grid[trial % 3]
        got = hypothesis_testing_relative_entropy(rho, sigma, eps)
        beta = _np_threshold_oracle(p, q, eps)
        want = math.inf if beta <= 0 else -math.log2(beta)
        if math.isinf(want) != (not got.finite):
            violations.append((trial, "finiteness"))
        elif got.finite and abs(got.value - want) > 1e-6:
            violations.append((trial, got.value, want))
    for trial in range(150):
        rho = random_density(qmat.qubits("Q"), rng)
        sigma = random_density(qmat.qubits("Q"), rng)
        eps = eps_grid[trial % 3]
        val, pi = optimal_hypothesis_test(rho, sigma, eps)
        evs = np.linalg.eigvalsh(pi)
        if evs.min() < -1e-8 or evs.max() > 1.0 + 1e-8:
            violations.append((trial, "operator range", evs.min(), evs.max()))
        hit = float(np.trace(pi @ rho.matrix).real)
        if abs(hit - (1.0 - eps)) > 1e-8:
            violations.append((trial, "type-I", hit))
        leak = float(np.trace(pi @ sigma.matrix).real)
        if val.finite and abs(val.value + math.log2(leak)) > 1e-9:
            violations.append((trial, "achieved", val.value, -math.log2(leak)))
    _report(6, "hypothesis testing optimum", violations, started)


def test_criterion_7_redistribution_end_to_end():
    started = time.monotonic()
    violations = []
    instances = builtin_qsr_instances()
    if len(instances) != 3:
        violations.append(("library size", len(instances)))
    for name, inst in instances.items():
        params = qsr_parameters(inst)
        t = qsr_full(inst)
        d = t.details
        bound = 3.0 * inst.eps1 + inst.eps2 + inst.gamma
        if d["purified_distance"] > bound + 1e-9:
            violations.append((name, "distance", d["purified_distance"], bound))
        want_cobits = int(math.ceil(math.log2(params.n / params.b))) if params.n > params.b else 0
        if t.cobits_sent != want_cobits:
            violations.append((name, "cobits", t.cobits_sent, want_cobits))
        if inst.n_override is not None or inst.b_override is not None:
            violations.append((name, "overridden parameters"))
    if time.monotonic() - started >= 300.0:
        violations.append(("runtime", time.monotonic() - started))
    _report(7, "redistribution end to end", violations, started)


def _h2(t: float) -> float:
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)


def test_criterion_8_inequality_suite():
    started = time.monotonic()
    violations = []
    rng = np.random.default_rng(80)

    for trial in range(500):  # gentle measurement
        d = int(rng.integers(2, 5))
        sys_ = qmat.system(("S", d))
        rho = random_density(sys_, rng)
        u = random_unitary(d, rng)
        w = rng.uniform(0.0, 1.0, d)
        a = (u * w) @ u.conj().T
        lam = 1.0 - float(np.trace(a @ rho.matrix).real)
        sq = psd_sqrt(a)
        damage = trace_norm(rho.matrix - sq @ rho.matrix @ sq)
        if damage > 2.0 * math.sqrt(max(lam, 0.0)) + 1e-8:
            violations.append(("gentle", trial, damage, lam))

    for trial in range(500):  # purified-distance triangle
        sys_ = qmat.qubits("Q")
        a, b, c = (random_density(sys_, rng) for _ in range(3))
        if purified_distance(a, c) > purified_distance(a, b) + purified_distance(b, c) + 1e-8:
            violations.append(("triangle", trial))

    for trial in range(500):  # sequential projector damage
        sys_ = qmat.system(("S", 4))
        rho = random_density(sys_, rng)
        projs = []
        for _ in range(2):
            u = random_unitary(4, rng)
            v = u[:, 0]
            projs.append(np.outer(v, v.conj()))
        try:
            lhs, rhs = sequential_projector_bound_check(rho, projs)
        except Exception as exc:  # noqa: BLE001 - any raise is a violation
            violations.append(("sequential", trial, repr(exc)))
            continue
        if lhs > rhs + 1e-8:
            violations.append(("sequential", trial, lhs, rhs))

    for trial in range(500):  # measurement transferred to a close state
        d = int(rng.integers(2, 5))
        sys_ = qmat.system(("S", d))
        rho = random_density(sys_, rng)
        wmix = rng.uniform(0.0, 0.3)
        sigma = DensityOperator(sys_, (1.0 - wmix) * rho.matrix + wmix * np.eye(d) / d)
        evs, vecs = np.linalg.eigh(rho.matrix)
        keep = np.cumsum(evs[::-1]) < 0.9
        k = max(1, int(keep.sum()) + 1)
        top = vecs[:, ::-1][:, :k]
        op = top @ top.conj().T
        try:
            lhs, bound = close_states_measurement_check(rho, sigma, op)
        except Exception as exc:  # noqa: BLE001
            violations.append(("close-states", trial, repr(exc)))
            continue
        if lhs < bound - 1e-8:
            violations.append(("close-states", trial, lhs, bound))

    for trial in range(500):  # entropy continuity in trace distance
        d = int(rng.integers(2, 5))
        sys_ = qmat.system(("S", d))
        rho = random_density(sys_, rng)
        sigma = random_density(sys_, rng)
        t = trace_norm(rho.matrix - sigma.matrix) / 2.0
        gap = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
        if gap > t * math.log2(d - 1) + _h2(t) + 1e-8:
            violations.append(("continuity", trial, gap, t))

    for trial in range(500):  # data processing under partial trace
        sys_ = qmat.qubits("A", "B")
        rho = random_density(sys_, rng)
        sigma = random_density(sys_, rng)
        rho_a = partial_trace(rho, ["A"])
        sigma_a = partial_trace(sigma, ["A"])
        if relative_entropy(rho_a, sigma_a).value > relative_entropy(rho, sigma).value + 1e-8:
            violations.append(("dp-relative", trial))
        if max_relative_entropy(rho_a, sigma_a).value > max_relative_entropy(rho, sigma).value + 1e-8:
            violations.append(("dp-max", trial))
        joint = hypothesis_testing_relative_entropy(rho, sigma, 0.2)
        marg = hypothesis_testing_relative_entropy(rho_a, sigma_a, 0.2)
        if marg.value > joint.value + 1e-8:
            violations.append(("dp-testing", trial))

    _report(8, "inequality fact suite", violations, started)


def test_criterion_9_second_order_trend():
    started = time.monotonic()
    violations = []
    p, q, eps = 0.7, 0.45, 0.1
    sys_ = qmat.system(("Q", 2))
    rho = DensityOperator(sys_, np.diag([p, 1.0 - p]))
    sigma = DensityOperator(sys_, np.diag([q, 1.0 - q]))
    d_val = relative_entropy(rho, sigma).value
    v_val = relative_entropy_variance(rho, sigma)

    def collapsed(n: int) -> float:
        # the likelihood ratio of the n-fold product is constant on Hamming
        # type classes and strictly monotone in the type, so the optimal
        # test collapses onto the binomial pair without changing the value
        pn = binom.pmf(np.arange(n + 1), n, p)
        qn = binom.pmf(np.arange(n + 1), n, q)
        rn = DensityOperator(qmat.system(("T", n + 1)), np.diag(pn / pn.sum()))
        sn = DensityOperator(qmat.system(("T", n + 1)), np.diag(qn / qn.sum()))
        return hypothesis_testing_relative_entropy(rn, sn, eps).value

    def full(n: int) -> float:
        pn, qn = np.ones(1), np.ones(1)
        for _ in range(n):
            pn = np.kron(pn, [p, 1.0 - p])
            qn = np.kron(qn, [q, 1.0 - q])
        rn = DensityOperator(qmat.system(("N", 2 ** n)), np.diag(pn))
        sn = DensityOperator(qmat.system(("N", 2 ** n)), np.diag(qn))
        return hypothesis_testing_relative_entropy(rn, sn, eps).value

    for n in range(2, 9):  # validate the collapse against the full product
        if abs(collapsed(n) - full(n)) > 1e-9:
            violations.append(("collapse", n, collapsed(n), full(n)))

    values = [collapsed(n) for n in range(1, 13)]
    # n = 1 by hand: the cut takes the first atom (0.7), the completion puts
    # weight 2/3 on the second, so beta = 0.45 + (2/3) 0.55 = 49/60
    if abs(values[0] - math.log2(60.0 / 49.0)) > 1e-10:
        violations.append(("hand value", values[0]))

    deviations = [
        abs(v / n - (d_val + math.sqrt(v_val / n) * (-1.2815515655446004)))
        for n, v in zip(range(1, 13), values)
    ]
    fitted_c = max(n * dev for n, dev in zip(range(1, 13), deviations))
    if fitted_c > 3.0:
        violations.append(("fitted constant", fitted_c))
    for n, dev in zip(range(1, 13), deviations):
        if dev > fitted_c / n + 1e-12:
            violations.append(("envelope", n, dev))
    # after removing the known square-root term the per-copy distance to the
    # plain relative entropy shrinks monotonically
    if not all(b < a for a, b in zip(deviations, deviations[1:])):
        violations.append(("monotone trend", deviations))
    if deviations[-1] > 0.25:
        violations.append(("final distance", deviations[-1]))
    _report(9, "second-order trend", violations, started)
