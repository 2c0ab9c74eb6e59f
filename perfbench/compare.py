"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds result records as run.py appends them to
``perfbench/out/results.jsonl``; copy that file aside between the two
commits.  Only untraced records are compared.  For every end-to-end metric
of BENCHMARK.json the table shows each side's median and quartiles and the
ratio of the medians.  A row is marked "unresolved" when either side's
spread (distance between quartiles, as a share of its median) exceeds the
metric's bound, unless every run of the change reads better than every run
of the base.  The script only prints: it gates nothing and writes nothing.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, str], list[float]]:
    runs: dict[tuple[str, str], list[float]] = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("trace"):
                continue
            for name, metric in record["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(metric["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rows(base: dict, change: dict, metrics: list[dict]) -> list[list[str]]:
    out = []
    workloads = sorted({w for w, _ in base} | {w for w, _ in change})
    for workload in workloads:
        for spec in metrics:
            key = (workload, spec["name"])
            if key not in base or key not in change:
                continue
            (b1, bm, b3), (c1, cm, c3) = quartiles(base[key]), quartiles(change[key])
            lower = spec["better"] == "lower"
            spread = max((b3 - b1) / abs(bm), (c3 - c1) / abs(cm))
            if lower:
                separated = max(change[key]) < min(base[key])
            else:
                separated = min(change[key]) > max(base[key])
            verdict = "unresolved" if spread > spec["bound"] and not separated else ""
            out.append([workload, spec["name"], spec["unit"],
                        f"{bm:.6g} [{b1:.6g}, {b3:.6g}]", f"{cm:.6g} [{c1:.6g}, {c3:.6g}]",
                        f"{cm / bm:.4f}", f"{len(base[key])}/{len(change[key])}", verdict])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    header = ["workload", "metric", "unit", "base median [q1, q3]",
              "change median [q1, q3]", "ratio", "runs", "flag"]
    table = [header] + rows(load(argv[0]), load(argv[1]), metrics)
    widths = [max(len(r[k]) for r in table) for k in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
