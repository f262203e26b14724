"""Record the reference outputs the benchmark's correctness gate compares to.

Runs every operation of every workload once, at both sizes, and writes the
exact view of each output (ints, strings, bools and pass flags; floats are
not compared) to ``bench/reference/<workload>.<size>.json``.  Run it from
the repository root only when the program's outputs are meant to change:

    python3 bench/make_reference.py

The seed does not reach any recorded field (it only feeds the vaughan
random weights, whose results are floats), so one reference serves every
seed.  The independent routes in ``workloads.check_result`` are applied
before writing, so a reference that disagrees with them is never stored.
"""

from __future__ import annotations

import json
import sys

import workloads as wl

ROOT = wl.BENCH_DIR.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import rsfq

    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in wl.WORKLOADS:
        for size in ("full", "tiny"):
            rings = {pe: rsfq.PolyRing(rsfq.FieldCtx(*pe))
                     for pe in wl.fields_of(workload, size)}
            ops = wl.build_operations(rsfq, workload, size, 1, rings)
            reference = {}
            for op, seconds, out, err in wl.run_operations(ops):
                view = wl.exact_view(out) if err is None else None
                problems = wl.check_result(rsfq, rings, op, out, err,
                                           {op.key: view},
                                           ROOT / "tests" / "golden")
                if problems:
                    print(f"{op.key}: {problems}", file=sys.stderr)
                    return 1
                reference[op.key] = view
                print(f"{workload}.{size} {op.key} {seconds:.2f}s",
                      file=sys.stderr)
            path = wl.reference_path(workload, size)
            with open(path, "w") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
