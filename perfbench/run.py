"""qredist benchmark: one closed-loop client, one process, one BLAS thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): split-battery, qsr-scaling,
rate-report, small-battery.  The package is imported from ``src/`` next to
this directory; the run fails without printing a result if it is missing.

``--trace 0`` runs whole cycles of the workload until the time spent inside
operations reaches ``--seconds`` (and at least ``MIN_OPS`` operations ran),
checks every result, and reports the end-to-end metrics.  ``--trace 1``
runs each operation of the workload's fixed traced pass twice, once plain
and once with every layer wrapped (layers.py), and reports the per-layer
metrics; its spans go to ``perfbench/out/``.  Each run appends its record to
``perfbench/out/results.jsonl`` for compare.py.  The last line of standard
output is the result object.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# pin every BLAS pool to one thread before numpy is imported
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# p90 needs ten samples beyond it
MIN_OPS = 100
# set-up runs this many times in all: once here, the rest in fresh processes
SETUP_SAMPLES = 3
# stop starting cycles once a run has taken this long, to end within 180 s
WALL_CAP_S = 120.0
WAIT_NOTE = ("time waiting: not applicable (one process, closed loop, no queue); "
             "not reported")


def import_package():
    """Import qredist from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "qredist" / "__init__.py").is_file():
        raise SystemExit(f"error: no qredist sources under {src}")
    sys.path.insert(0, str(src))
    import qredist

    if Path(qredist.__file__).resolve().parent != src / "qredist":
        raise SystemExit(f"error: imported qredist from {qredist.__file__}, not {src}")


def set_up(workload: str, seed: int, workdir: str):
    """Import, draw the inputs and run one warm-up operation."""
    import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir)
    wl.run(0)
    return wl


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def timed_op(wl, i: int, failures: list, tracer=None) -> float:
    """Run operation i, check it outside the timer, return its latency."""
    if tracer is not None:
        tracer.begin_op(i)
    start = time.perf_counter()
    try:
        out = wl.run(i)
    except Exception:  # noqa: BLE001 - a raising operation is a failed operation
        elapsed = time.perf_counter() - start
        failures.append(f"op {i}: {traceback.format_exc(limit=1).strip().splitlines()[-1]}")
        return elapsed
    finally:
        if tracer is not None:
            tracer.end_op()
    elapsed = time.perf_counter() - start
    reason = wl.check(i, out)
    if reason is not None:
        failures.append(f"op {i}: {reason}")
    return elapsed


def run_cycles(wl, seconds: float, failures: list) -> list[float]:
    """Whole cycles until the time inside operations reaches `seconds`."""
    started = time.perf_counter()
    latencies: list[float] = []
    busy = 0.0
    i = 0
    while True:
        dt = timed_op(wl, i, failures)
        latencies.append(dt)
        busy += dt
        if wl.cycle_end(i) and (
            (busy >= seconds and len(latencies) >= MIN_OPS)
            or time.perf_counter() - started > WALL_CAP_S
        ):
            return latencies
        i += 1


def setup_probe_times(args) -> list[float]:
    """Set-up time of fresh processes running the same set-up."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(args, wl, setup_s: float) -> tuple[dict, int, int]:
    import numpy as np

    failures: list[str] = []
    lat = run_cycles(wl, args.seconds, failures)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + setup_probe_times(args)
    ms = np.asarray(lat) * 1e3
    metrics = {
        "ops_per_s": (len(lat) / float(np.sum(lat)), "ops/s"),
        "op_p50_ms": (float(np.percentile(ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(ms, 90)), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"ops: {len(lat)} in {np.sum(lat):.3f} s inside operations "
          f"(percentiles over {len(lat)} samples); set-up samples {setups}")
    print(f"failed_frac: {len(failures) / len(lat)!r} ratio ({len(failures)} of {len(lat)})")
    for line in failures[:5]:
        print(f"failed {line}", file=sys.stderr)
    return metrics, len(lat), len(failures)


def traced_op(wl, i: int, failures: list, tracer) -> float:
    """timed_op with every layer wrapped, restoring the originals after."""
    tracer.install()
    try:
        return timed_op(wl, i, failures, tracer)
    finally:
        left = tracer.restore()
        if left:
            failures.append(f"op {i}: not restored after tracing: {left}")


def traced(args, wl) -> tuple[dict, int, int]:
    from layers import Tracer

    failures: list[str] = []
    ops = range(wl.trace_ops)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for i in ops:
        # alternate which side runs first, so neither always meets a warm cache
        plain_first = i % 2 == 0
        if plain_first:
            untraced_s += timed_op(wl, i, failures)
        traced_s += traced_op(wl, i, failures, tracer)
        if not plain_first:
            untraced_s += timed_op(wl, i, failures)
    metrics = tracer.metrics(len(ops), traced_s, untraced_s)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"traced {len(ops)} ops; {len(tracer.spans)} spans written to {spans_path}")
    for line in failures[:5]:
        print(f"failed {line}", file=sys.stderr)
    return metrics, 2 * len(ops), len(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("split-battery", "qsr-scaling", "rate-report", "small-battery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = set_up(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        env = environment()
        print("environment: " + json.dumps(env, sort_keys=True))
        if args.trace:
            metrics, attempted, failed = traced(args, wl)
        else:
            metrics, attempted, failed = end_to_end(args, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(WAIT_NOTE)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, **result}
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
