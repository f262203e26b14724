"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Run from the repository root.  It checks, in about a minute:

1. every workload at ``--size tiny`` with ``--trace 0`` and ``--trace 1``
   exits 0 and prints a last line with exactly the keys ``correct``,
   ``attempted``, ``failed`` and ``metrics``, carrying every metric that
   BENCHMARK.json declares for that mode, each with its declared unit;
2. the correctness gate trips on a deliberately corrupted reference, and
   the independent routes (formula count, count(gamma) = count(-gamma))
   trip on a corrupted output even when the reference agrees with it;
3. in a directory holding only BENCHMARK.json and ``bench/``, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import workloads as wl

ROOT = wl.BENCH_DIR.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


def run_bench(cwd, workload: str, trace: int, size: str = "tiny"):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result_lines(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in wl.WORKLOADS:
            done = run_bench(ROOT, workload, trace)
            assert done.returncode == 0, (workload, trace, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared, (workload, trace,
                                     set(got) ^ set(declared))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics")


def check_gate() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import rsfq

    for workload in wl.WORKLOADS:
        rings = {pe: rsfq.PolyRing(rsfq.FieldCtx(*pe))
                 for pe in wl.fields_of(workload, "tiny")}
        ops = wl.build_operations(rsfq, workload, "tiny", 7, rings)
        results = wl.run_operations(ops)
        reference = wl.load_reference(workload, "tiny")

        def problems(ref, op, out, err):
            return wl.check_result(rsfq, rings, op, out, err, ref, GOLDEN_DIR)

        for op, _, out, err in results:
            assert not problems(reference, op, out, err), op.key

        # A corrupted reference: flip a pass flag or bump a count.
        op, _, out, err = results[-1]
        bad = copy.deepcopy(reference)
        entry = bad[op.key]
        if op.kind == "verify":
            entry["pass"] = not entry["pass"]
        elif op.kind == "dist":
            entry["counts"]["0"] += 1
        else:
            entry["count"] += 1
        assert problems(bad, op, out, err), f"gate missed {op.key}"

        # A corrupted output that the reference agrees with: the
        # independent routes must still catch it.
        if op.kind in ("dist", "sieve") or op.check == "dist":
            out = copy.deepcopy(out)
            if op.kind == "sieve":
                out["count"] += 1
            else:
                table = out if op.kind == "dist" else out["detail"]
                keys = sorted(table["counts"])
                table["counts"][keys[1]] += 1
                table["counts"][keys[-1]] -= 1
            agreeing = {op.key: wl.exact_view(out)}
            assert problems(agreeing, op, out, err), \
                f"independent routes missed {op.key}"
        print(f"ok   gate trips on corrupted {workload} data")


def check_bare_directory() -> None:
    bare = wl.BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(wl.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run_bench(bare, "dist-irreducibles", 0, size="full")
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    shutil.rmtree(bare)
    print(f"ok   bare directory: exit {done.returncode}, no result line")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_gate()
    check_bare_directory()
    check_result_lines(spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
