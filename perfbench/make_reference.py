"""Write the stored reference results of every workload at its default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one full pass of each workload and stores ``values(i, out)`` per
operation in ``perfbench/reference/<workload>.json``.  Regenerate only when
a deliberate change to the package's numbers has been reviewed.
"""

import json
import sys
import tempfile

import run


def main(names: list[str]) -> int:
    run.import_package()
    from workloads import WORKLOADS, REFERENCE_DIR

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        cls = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
            wl = cls(cls.default_seed, workdir)
            wl.stored = wl.reference = None
            values = []
            for i in range(len(wl)):
                out = wl.run(i)
                reason = wl.oracle(i, out)
                if reason is not None:
                    raise SystemExit(f"{name} op {i}: {reason}")
                values.append(wl.values(i, out))
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "seed": cls.default_seed,
                                    "values": values}) + "\n")
        print(f"{name}: {len(values)} reference results in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
