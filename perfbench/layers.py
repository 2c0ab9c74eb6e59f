"""Per-layer tracing of qredist from outside the package.

``Tracer.install()`` rebinds each traced function under every name a
``qredist.*`` module holds it by, wraps ``__post_init__`` (the validation)
of the three validated state classes, and wraps the numpy kernels
``linalg.eigvalsh``, ``linalg.eigh``, ``linalg.svd`` and ``einsum``.
``Tracer.restore()`` puts every original object back; the two may alternate
around each traced operation.

A span is recorded only while an operation is open (``begin_op``), and a
kernel call only while a qredist span is open, so the benchmark's own
oracles never count.  Self time is a span's duration minus the time its
child spans cover; kernel spans are children, so a function's self time
excludes the kernels it calls and the self times plus kernel times add up
to the traced time.  Spans are kept in memory as
``(name, start, end, parent, op)`` tuples.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, attribute) pairs; layer is the module qredist.<layer>
FUNCTIONS = {
    "qmat": ("DensityOperator", "StateVector", "Isometry", "partial_trace", "vector_marginal",
             "tensor", "tensor_vectors", "permute_registers", "permute_vector",
             "relabel_density", "apply_subsystem_matrix", "psd_sqrt", "fidelity_matrices",
             "purify"),
    "entropy": ("von_neumann_entropy", "relative_entropy", "max_relative_entropy",
                "optimal_hypothesis_test", "restricted_hypothesis_test",
                "conditional_mutual_information"),
    "coherence": ("dephase",),
    "protocols": ("convex_split_bound_check", "convex_split_state", "qsr_parameters",
                  "uhlmann_isometry", "qsr_full"),
    "rates": ("rate_report", "incoherent_rate_forms", "standard_qsr_rates"),
    "cli": ("main",),
    "stateio": ("load_state",),
}
VALIDATED_CLASSES = ("DensityOperator", "StateVector", "Isometry")
# the functions through which work enters a layer also report total time
ENTRY_POINTS = ("cli.main", "stateio.load_state", "rates.rate_report", "protocols.qsr_full",
                "protocols.convex_split_bound_check", "entropy.optimal_hypothesis_test",
                "qmat.DensityOperator")
KERNELS = (("linalg", "eigvalsh"), ("linalg", "eigh"), ("linalg", "svd"), ("", "einsum"))
BUCKETS = (("le64", 64), ("d65_256", 256), ("d257_1024", 1024), ("gt1024", math.inf))
BISECTION = "entropy.optimal_hypothesis_test"


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]


def _matrix_shapes(op: str, args: tuple) -> list[tuple[int, int, int]]:
    """(batch, m, n) for each matrix operand; an einsum operand of s entries
    counts as a sqrt(s) x sqrt(s) matrix."""
    if op == "einsum":
        out = []
        for a in args[1:]:
            size = int(np.size(a))
            side = math.isqrt(size)
            out.append((1, side, size // max(side, 1)))
        return out
    shape = np.shape(args[0])
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return [(batch, shape[-2], shape[-1])]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.work_d3: dict[str, int] = defaultdict(int)
        self.bisection_eigh = 0
        self._open: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._op: int | None = None
        self._plan: list[tuple[object, str, object, object]] | None = None

    # -- spans --------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self._op = None

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, time.perf_counter(), 0.0, len(self.spans), parent]
        self.spans.append(None)  # placeholder keeps span ids in start order
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child, idx, parent = frame
        self._stack.pop()
        self._open[name] -= 1
        dur = end - start
        self.spans[idx] = (name, start, end, parent, self._op)
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._open[name] == 0:
            self.total_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    def _wrap_kernel(self, op: str, fn):
        tracer = self
        name = f"kernel.{op}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            shapes = _matrix_shapes(op, args)
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tracer._exit(frame)
                dim = max(max(m, n) for _, m, n in shapes)
                bucket = next(label for label, top in BUCKETS if dim <= top)
                tracer.calls[f"{name}.{bucket}"] += 1
                tracer.self_s[f"{name}.{bucket}"] += dur
                tracer.work_d3[name] += sum(b * m * n * min(m, n) for b, m, n in shapes)
                if op == "eigh" and tracer._open[BISECTION]:
                    tracer.bisection_eigh += 1

        return traced

    # -- installing and restoring --------------------------------------------

    def _plan_rebinds(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every name to rebind."""
        import qredist  # noqa: F401 - the package must be loaded before scanning it

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qredist" or n.startswith("qredist."))]
        plan = []
        for layer, fns in FUNCTIONS.items():
            module = sys.modules[f"qredist.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                orig = getattr(module, fn)
                if fn in VALIDATED_CLASSES:
                    post_init = orig.__post_init__
                    plan.append((orig, "__post_init__", post_init, self._wrap(name, post_init)))
                    continue
                wrapped = self._wrap(name, orig)
                for mod in modules:
                    plan += [(mod, attr, orig, wrapped)
                             for attr, val in vars(mod).items() if val is orig]
        for sub, op in KERNELS:
            module = getattr(np, sub) if sub else np
            orig = getattr(module, op)
            plan.append((module, op, orig, self._wrap_kernel(op, orig)))
        return plan

    def install(self) -> None:
        """Rebind every traced name to its wrapper; the first call plans them."""
        if self._plan is None:
            self._plan = self._plan_rebinds()
        for owner, attr, _, wrapped in self._plan:
            setattr(owner, attr, wrapped)

    def restore(self) -> list[str]:
        """Put every original back; return the names that still differ."""
        for owner, attr, orig, _ in reversed(self._plan or []):
            setattr(owner, attr, orig)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, orig, _ in self._plan or [] if getattr(owner, attr) is not orig]

    # -- results -------------------------------------------------------------

    def metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in function_names():
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            if name in ENTRY_POINTS:
                out[f"{name}.total_s"] = (self.total_s[name], "s")
        for _, op in KERNELS:
            name = f"kernel.{op}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.self_s[name], "s")
            out[f"{name}.work_d3"] = (self.work_d3[name], "d3-computed")
            for label, _ in BUCKETS:
                out[f"{name}.{label}.calls"] = (self.calls[f"{name}.{label}"], "count")
                out[f"{name}.{label}.s"] = (self.self_s[f"{name}.{label}"], "s")
        dens = "qmat.DensityOperator"
        out[f"{dens}.per_op"] = (self.calls[dens] / ops, "1/op")
        out[f"{dens}.share"] = (self.self_s[dens] / traced_s, "ratio")
        n_oht = self.calls[BISECTION]
        out[f"{BISECTION}.eigh_per_call"] = (self.bisection_eigh / n_oht if n_oht else 0.0, "1/call")
        out["tracing.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
        out["trace.ops"] = (ops, "count")
        out["trace.traced_s"] = (traced_s, "s")
        out["trace.untraced_s"] = (untraced_s, "s")
        return out
