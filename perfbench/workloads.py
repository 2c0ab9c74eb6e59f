"""The four seeded workloads of the qredist benchmark.

Each workload draws one pass of inputs from its seed in set-up, then runs
operations by index: operation ``i`` uses input ``i % len(workload)``.  The
size mix is fixed by the schedule, never by the seed, so a seed only changes
the numbers inside the inputs.  ``cycle_end(i)`` marks the indices after
which the operations run so far hold every size class in its stated share;
the timed loop stops only there, so throughput and percentiles always see
the stated mix.

Every call into the package goes through a module attribute looked up at
call time (``protocols.qsr_full``, not a name bound in set-up), so that the
traced run's wrappers see it.

``check(i, out)`` returns ``None`` for a correct result or a one-line reason.
It applies oracles that hold on any seed, and at the default seed also
compares ``values(i, out)`` with the stored reference.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

from qredist import cli, entropy, protocols, qmat, stateio
from qredist.sampling import haar_vector, random_density, random_unitary

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# results at the default seed must match the stored reference this closely
REF_TOL = 1e-9
EPS_GRID = (0.05, 0.1, 0.25)


class Workload:
    name = ""
    default_seed = 0
    # operations timed in the traced run, the same on every run
    trace_ops = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        path = REFERENCE_DIR / f"{self.name}.json"
        # results of the default seed's first pass, one list per operation
        self.stored = json.loads(path.read_text())["values"] if path.is_file() else None
        self.reference = self.stored if seed == self.default_seed else None

    def __len__(self) -> int:
        raise NotImplementedError

    def cycle_end(self, i: int) -> bool:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def values(self, i: int, out) -> list[float]:
        raise NotImplementedError

    def oracle(self, i: int, out) -> str | None:
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        reason = self.oracle(i, out)
        if reason is None and self.reference is not None:
            reason = compare_values(self.values(i, out), self.reference[i % len(self)])
        return reason


def compare_values(got: list[float], want: list[float]) -> str | None:
    if len(got) != len(want):
        return f"reference has {len(want)} values, result has {len(got)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= REF_TOL * max(1.0, abs(w)):
            return f"value {k} is {g!r}, reference {w!r}"
    return None


def _merge_evenly(*groups: list) -> list:
    """Merge lists so that each one's items are spread evenly over the result."""
    keyed = [((k + 0.5) / len(group), g, k) for g, group in enumerate(groups) for k in range(len(group))]
    return [groups[g][k] for _, g, k in sorted(keyed)]


# ---------------------------------------------------------------------------
# split-battery: dense convex-split states, 16x16 up to 1024x1024


class SplitBattery(Workload):
    """The acceptance-criterion-3 plan, interleaved into six equal blocks.

    Instances are drawn in plan order from one generator, so the default
    seed reproduces the criterion's 500 pairs.  Each block holds 50 pairs at
    delta 0.5 (n = 3, 16x16), 32 or 33 at delta 0.25 (n = 6, 128x128) and one
    at delta 0.125 (n = 9, 1024x1024); a block is one cycle.
    """

    name = "split-battery"
    default_seed = 30
    trace_ops = 83
    PLAN = ((0.5, 0.5, 300), (0.25, 0.5, 194), (0.125, 0.15, 6))

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        drawn = [
            [(delta, *protocols.random_split_instance(rng, k_cap)) for _ in range(count)]
            for delta, k_cap, count in self.PLAN
        ]
        blocks = len(drawn[2])
        self.ops = []
        self.ends = set()
        for b in range(blocks):
            small = drawn[0][b * len(drawn[0]) // blocks:(b + 1) * len(drawn[0]) // blocks]
            medium = drawn[1][b * len(drawn[1]) // blocks:(b + 1) * len(drawn[1]) // blocks]
            self.ops += _merge_evenly(small, medium) + [drawn[2][b]]
            self.ends.add(len(self.ops) - 1)

    def __len__(self) -> int:
        return len(self.ops)

    def cycle_end(self, i: int) -> bool:
        return i % len(self) in self.ends

    def run(self, i: int):
        delta, rho, sigma = self.ops[i % len(self)]
        return protocols.convex_split_bound_check(rho, sigma, eps=0.0, delta=delta)

    def values(self, i: int, out) -> list[float]:
        return [out.fidelity_squared, float(out.n)]

    def oracle(self, i: int, out) -> str | None:
        delta = self.ops[i % len(self)][0]
        want_n = int(math.ceil(2.0 ** out.k / delta - 1e-12))
        if out.n != want_n:
            return f"slot count {out.n}, expected {want_n} from k = {out.k}"
        if not 0.0 <= out.fidelity_squared <= 1.0:
            return f"fidelity^2 {out.fidelity_squared} outside [0, 1]"
        if out.fidelity_squared < 1.0 - delta - 1e-8:
            return f"fidelity^2 {out.fidelity_squared} below 1 - delta = {1.0 - delta}"
        return None


# ---------------------------------------------------------------------------
# qsr-scaling: the pure-vector protocol path


class QsrScaling(Workload):
    """qsr_full on the built-in instances at default and forced slot counts.

    A cycle is twelve runs: each of the three instances at its own
    parameters and at n = 4, 5, 6.  Each run first applies a seeded Haar
    unitary to the reference register R.  The protocol never touches R, so
    the transfer overlap and the cobit count are the same on every seed; the
    final distance is not, because the transfer isometry is only fixed up to
    the null space of a degenerate SVD.
    """

    name = "qsr-scaling"
    default_seed = 70
    trace_ops = 24
    SLOTS = (None, 4, 5, 6)
    BUDGET = 2 ** 18
    PASS_CYCLES = 4

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        builtin = protocols.builtin_qsr_instances()
        self.kinds = [(name, n) for n in self.SLOTS for name in sorted(builtin)]
        self.ops = []
        for _ in range(self.PASS_CYCLES):
            for name, n in self.kinds:
                inst = builtin[name]
                amps, sys_ = qmat.apply_subsystem_matrix(
                    inst.psi.amplitudes, inst.psi.system, random_unitary(2, rng), ["R"]
                )
                inst = dataclasses.replace(inst, psi=qmat.StateVector(sys_, amps), n_override=n)
                self.ops.append(inst)

    def __len__(self) -> int:
        return len(self.ops)

    def cycle_end(self, i: int) -> bool:
        return (i + 1) % len(self.kinds) == 0

    def run(self, i: int):
        return protocols.qsr_full(self.ops[i % len(self)], budget=self.BUDGET)

    def values(self, i: int, out) -> list[float]:
        d = out.details
        return [d["purified_distance"], d["overlap"], float(out.cobits_sent)]

    def oracle(self, i: int, out) -> str | None:
        inst = self.ops[i % len(self)]
        if inst.n_override is not None and out.details["n"] != inst.n_override:
            return f"ran {out.details['n']} slots, forced {inst.n_override}"
        if not 0.0 <= out.details["purified_distance"] <= 1.0:
            return f"purified distance {out.details['purified_distance']} outside [0, 1]"
        if self.stored is not None:
            # overlap and cobits of the same kind at the default seed
            return compare_values(self.values(i, out)[1:], self.stored[i % len(self.kinds)][1:])
        return None


# ---------------------------------------------------------------------------
# rate-report: the CLI on 10- to 12-qubit state files


def _entropy_bits(amps: np.ndarray, dims: tuple[int, ...], keep: list[int]) -> float:
    """Von Neumann entropy of a pure state's marginal from its Schmidt spectrum."""
    rest = [a for a in range(len(dims)) if a not in keep]
    t = np.transpose(amps.reshape(dims), keep + rest)
    s = np.linalg.svd(t.reshape(int(np.prod([dims[a] for a in keep])), -1), compute_uv=False)
    p = s * s
    p = p[p > 1e-12]
    return float(-np.sum(p * np.log2(p)))


class RateReport(Workload):
    """``qredist rates <file> --format json --out <file>`` through ``cli.main``.

    A cycle is twenty random R,A,B,C pure states: eleven of 10 qubits
    (8,8,4,4), eight of 11 qubits (8,8,8,4) and one of 12 qubits (8,8,8,8), so
    the median falls inside the 10-qubit class and the 90th percentile inside
    the 11-qubit class.  State files are written in set-up.
    """

    name = "rate-report"
    default_seed = 40
    trace_ops = 20
    CYCLE = (((8, 8, 4, 4), 11), ((8, 8, 8, 4), 8), ((8, 8, 8, 8), 1))
    PASS_CYCLES = 2
    RATES = (
        "q_min_std", "q_plus_e_min_std", "sum_bound_slepian_wolf", "q_min_incoherent",
        "q_min_schumacher_incoherent", "q_min_splitting_incoherent", "classical_rate_incoherent",
    )

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        order = _merge_evenly(*([dims] * count for dims, count in self.CYCLE))
        self.states = []
        for k in range(self.PASS_CYCLES * len(order)):
            dims = order[k % len(order)]
            psi = qmat.StateVector(qmat.system(*zip("RABC", dims)), haar_vector(int(np.prod(dims)), rng))
            path = os.path.join(workdir, f"state{k}.json")
            stateio.save_state(path, psi)
            self.states.append((path, psi))
        self.out_path = os.path.join(workdir, "rates.json")

    def __len__(self) -> int:
        return len(self.states)

    def cycle_end(self, i: int) -> bool:
        return (i + 1) % sum(count for _, count in self.CYCLE) == 0

    def run(self, i: int):
        path = self.states[i % len(self)][0]
        code = cli.main(["rates", path, "--format", "json", "--out", self.out_path])
        with open(self.out_path) as fh:
            return code, json.load(fh)

    def values(self, i: int, out) -> list[float]:
        return [out[1]["rates"][name] for name in self.RATES]

    def oracle(self, i: int, out) -> str | None:
        code, report = out
        if code != 0:
            return f"exit code {code}"
        got = report["rates"]
        if sorted(got) != sorted(self.RATES):
            return f"rate names {sorted(got)}"
        if not all(math.isfinite(v) for v in got.values()):
            return "non-finite rate"
        if got["classical_rate_incoherent"] != 2.0 * got["q_min_incoherent"]:
            return "classical rate is not twice the incoherent qubit rate"
        psi = self.states[i % len(self)][1]
        amps, dims = psi.amplitudes, psi.system.dims
        r, a, b, c = 0, 1, 2, 3
        s_bc = _entropy_bits(amps, dims, [b, c])
        s_b = _entropy_bits(amps, dims, [b])
        # S(RBC) = S(A) for a pure state on R, A, B, C
        q_std = 0.5 * (s_bc + _entropy_bits(amps, dims, [r, b]) - _entropy_bits(amps, dims, [a]) - s_b)
        for name, want in (("q_min_std", q_std), ("q_plus_e_min_std", s_bc - s_b)):
            if abs(got[name] - want) > REF_TOL:
                return f"{name} = {got[name]!r}, Schmidt spectrum gives {want!r}"
        return None


# ---------------------------------------------------------------------------
# small-battery: thousands of microsecond-scale calls on d = 2..8


def _np_oracle(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Exhaustive classical Neyman-Pearson optimum: every likelihood-ratio cut
    plus the fractional completion that captures exactly 1 - eps of p."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 1e-15, p / np.clip(q, 1e-15, None), np.where(p > 1e-15, np.inf, -1.0))
    order = np.argsort(-ratio, kind="stable")
    ps, qs = p[order], q[order]
    cum_p = np.concatenate([[0.0], np.cumsum(ps)])
    cum_q = np.concatenate([[0.0], np.cumsum(qs)])
    target = 1.0 - eps
    best = math.inf
    for cut in range(len(ps) + 1):
        if cum_p[cut] >= target - 1e-15:
            best = min(best, cum_q[cut])
        elif cut < len(ps) and ps[cut] > 1e-15:
            w = (target - cum_p[cut]) / ps[cut]
            if w <= 1.0 + 1e-12:
                best = min(best, cum_q[cut] + min(w, 1.0) * qs[cut])
    return best


def _purified_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Purified distance from the singular values of sqrt(a) sqrt(b)."""
    def sqrtm(m):
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    f = float(np.sum(np.linalg.svd(sqrtm(a) @ sqrtm(b), compute_uv=False)))
    return math.sqrt(max(0.0, 1.0 - min(f, 1.0) ** 2))


class SmallBattery(Workload):
    """Round-robin over four kinds of tiny operation.

    Kinds: the criterion-2 coherence gap on A x B, the optimal hypothesis
    test on a non-commuting pair (the threshold bisection), the same on a
    commuting pair against the exhaustive classical Neyman-Pearson oracle,
    and one criterion-8 fact (sequential projectors, close states, the
    purified-distance triangle, in turn).  The dimension d runs over 2..8;
    a cycle holds every (kind, d, fact) combination once.
    """

    name = "small-battery"
    default_seed = 20
    trace_ops = 840
    KINDS = ("gap", "oht", "np", "fact")
    DIMS = tuple(range(2, 9))
    GAP_DIMS = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 2))
    FACTS = ("sequential", "close", "triangle")
    CYCLE = len(KINDS) * len(DIMS) * len(FACTS)
    PASS_CYCLES = 16

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.ops = [self._draw(i, rng) for i in range(self.PASS_CYCLES * self.CYCLE)]

    def _draw(self, i: int, rng: np.random.Generator):
        kind = self.KINDS[i % len(self.KINDS)]
        j = (i // len(self.KINDS)) % len(self.DIMS)
        d = self.DIMS[j]
        sys_ = qmat.system(("S", d))
        eps = EPS_GRID[(i // len(self.KINDS)) % len(EPS_GRID)]
        if kind == "gap":
            d_a, d_b = self.GAP_DIMS[j]
            return kind, (random_density(qmat.system(("A", d_a), ("B", d_b)), rng), d_a)
        if kind == "oht":
            while True:
                rho, sigma = random_density(sys_, rng), random_density(sys_, rng)
                comm = rho.matrix @ sigma.matrix - sigma.matrix @ rho.matrix
                if np.linalg.norm(comm) > 1e-6:
                    return kind, (rho, sigma, eps)
        if kind == "np":
            u = random_unitary(d, rng)
            p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
            rho = qmat.DensityOperator(sys_, (u * p) @ u.conj().T)
            sigma = qmat.DensityOperator(sys_, (u * q) @ u.conj().T)
            return kind, (rho, sigma, eps, p, q)
        fact = self.FACTS[(i // (len(self.KINDS) * len(self.DIMS))) % len(self.FACTS)]
        rho = random_density(sys_, rng)
        if fact == "sequential":
            projs = []
            for _ in range(2):
                v = random_unitary(d, rng)[:, 0]
                projs.append(np.outer(v, v.conj()))
            return fact, (rho, projs)
        if fact == "close":
            w = rng.uniform(0.0, 0.3)
            sigma = qmat.DensityOperator(sys_, (1.0 - w) * rho.matrix + w * np.eye(d) / d)
            evs, vecs = np.linalg.eigh(rho.matrix)
            k = max(1, int((np.cumsum(evs[::-1]) < 0.9).sum()) + 1)
            top = vecs[:, ::-1][:, :k]
            return fact, (rho, sigma, top @ top.conj().T)
        return fact, (rho, random_density(sys_, rng), random_density(sys_, rng))

    def __len__(self) -> int:
        return len(self.ops)

    def cycle_end(self, i: int) -> bool:
        return (i + 1) % self.CYCLE == 0

    def run(self, i: int):
        kind, args = self.ops[i % len(self)]
        if kind == "gap":
            rho = args[0]
            return (entropy.relative_entropy_of_coherence(rho)
                    - entropy.relative_entropy_of_coherence(qmat.partial_trace(rho, ["B"])))
        if kind in ("oht", "np"):
            return entropy.optimal_hypothesis_test(args[0], args[1], args[2])
        if kind == "sequential":
            return protocols.sequential_projector_bound_check(*args)
        if kind == "close":
            return protocols.close_states_measurement_check(*args)
        a, b, c = args
        return (qmat.purified_distance(a, c), qmat.purified_distance(a, b),
                qmat.purified_distance(b, c))

    def values(self, i: int, out) -> list[float]:
        kind = self.ops[i % len(self)][0]
        if kind == "gap":
            return [out]
        if kind in ("oht", "np"):
            return [out[0].value]
        return [out[0]]

    def oracle(self, i: int, out) -> str | None:
        kind, args = self.ops[i % len(self)]
        if kind == "gap":
            bound = 2.0 * math.log2(args[1])
            if not -1e-9 <= out <= bound + 1e-8:
                return f"coherence gap {out} outside [0, {bound}]"
            return None
        if kind in ("oht", "np"):
            value, pi = out
            if not value.finite:
                return "infinite D_H on a full-rank pair"
            rho, sigma, eps = args[:3]
            if kind == "np":
                want = -math.log2(_np_oracle(args[3], args[4], eps))
                if abs(value.value - want) > 1e-6:
                    return f"D_H {value.value!r}, classical oracle {want!r}"
                return None
            evs = np.linalg.eigvalsh(pi)
            if evs[0] < -1e-8 or evs[-1] > 1.0 + 1e-8:
                return f"test operator spectrum [{evs[0]}, {evs[-1]}] outside [0, 1]"
            hit = float(np.trace(pi @ rho.matrix).real)
            if abs(hit - (1.0 - eps)) > 1e-8:
                return f"Tr(Pi rho) = {hit}, expected {1.0 - eps}"
            leak = float(np.trace(pi @ sigma.matrix).real)
            if abs(value.value + math.log2(leak)) > 1e-9:
                return f"D_H {value.value!r} but -log2 Tr(Pi sigma) = {-math.log2(leak)!r}"
            return None
        if kind in ("sequential", "close"):
            # both checks raise on a violated bound; the returned pair must agree
            lhs, rhs = out
            ok = lhs <= rhs + 1e-9 if kind == "sequential" else lhs >= rhs - 1e-9
            return None if ok else f"{kind} bound: {lhs} vs {rhs}"
        ac, ab, bc = out
        if ac > ab + bc + 1e-8:
            return f"triangle: P(a,c) = {ac} > {ab} + {bc}"
        want = _purified_distance(args[0].matrix, args[2].matrix)
        if abs(ac - want) > 1e-8:
            return f"purified distance {ac!r}, singular-value oracle {want!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (SplitBattery, QsrScaling, RateReport, SmallBattery)}
