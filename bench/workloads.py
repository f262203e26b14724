"""Workloads of the rsfq benchmark, their correctness gate and work counts.

A workload is a fixed list of operations.  An operation is one verify cell
(``verify.run_cell``), one ``dist.distribution`` table or one
``sieve.count_irreducibles_sieve`` count.  Every operation's output is
checked against the reference recorded by ``make_reference.py`` and against
routes that do not share its code path:

- the exact (int/str/bool) fields and pass flags of the recorded output;
- irreducible totals against ``irreducible_count_formula``;
- the symmetry count(gamma) = count(-gamma) of every distribution table;
- q = 3 distribution tables against ``tests/golden/`` where one exists.

rank-qa cells at n >= 5 report ``pass: false``: that is the documented
falsification of the stated rank bound, so a cell is correct when its
inventory matches the reference, and a pass flag that flips either way is
a failed operation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Operation parameters per workload and size; BENCHMARK.json says why each
# workload exists.  "tiny" exists for smoke.py.  Verify entries: field
# (p, e), n_max passed to RunConfig, and star_n_max, which drops star cells
# above that degree.  The full sizes keep every operation under about 0.6 s
# and a pass near one second, so that a run holds 15-30 passes to take a
# median over, with the reference loop of run.end_to_end sampling the host
# next to each operation.  A single 2-3 s call, such as rank-bab at q=9,
# n=5 or star at q=9, n=4, gets a handful of samples per run and follows the
# shared host's slow spells.
SPECS = {
    "verify-prime": {
        "full": [{"kind": "verify", "p": 3, "e": 1, "n_max": 5},
                 {"kind": "verify", "p": 5, "e": 1, "n_max": 4}],
        "tiny": [{"kind": "verify", "p": 3, "e": 1, "n_max": 3},
                 {"kind": "verify", "p": 5, "e": 1, "n_max": 2}],
    },
    "verify-ext": {
        "full": [{"kind": "verify", "p": 3, "e": 2, "n_max": 4,
                  "star_n_max": 3}],
        "tiny": [{"kind": "verify", "p": 3, "e": 2, "n_max": 2}],
    },
    "dist-irreducibles": {
        "full": [{"kind": "dist", "p": 3, "e": 1, "n": 7},
                 {"kind": "dist", "p": 3, "e": 1, "n": 8}],
        "tiny": [{"kind": "dist", "p": 3, "e": 1, "n": 5}],
    },
    "sieve-bulk": {
        "full": [{"kind": "sieve", "p": 3, "e": 1, "n": 12},
                 {"kind": "sieve", "p": 3, "e": 2, "n": 6}],
        "tiny": [{"kind": "sieve", "p": 3, "e": 1, "n": 6},
                 {"kind": "sieve", "p": 3, "e": 2, "n": 3}],
    },
}

WORKLOADS = tuple(SPECS)

# Detail keys whose values count enumerated objects in a verify cell.
OBJECT_KEYS = ("checked", "forms", "combos", "pairs_checked")

# Stands in the reference for a float field: floats are not compared.
SKIP = "<float>"


def fields_of(workload: str, size: str) -> list:
    """Distinct (p, e) pairs the workload's operations use."""
    out = []
    for spec in SPECS[workload][size]:
        if (spec["p"], spec["e"]) not in out:
            out.append((spec["p"], spec["e"]))
    return out


class Operation:
    """One checked call into rsfq."""

    def __init__(self, key: str, kind: str, q: int, n: int, call,
                 check: str | None = None):
        self.key = key
        self.kind = kind          # "verify", "dist" or "sieve"
        self.q = q
        self.n = n
        self.call = call          # () -> JSON-ready output
        self.check = check        # verify check name, None otherwise


def build_operations(rsfq, workload: str, size: str, seed: int,
                     rings: dict) -> list:
    """Concrete operations; ``rings`` maps (p, e) to a built PolyRing."""
    ops = []
    for spec in SPECS[workload][size]:
        ring = rings[(spec["p"], spec["e"])]
        q = ring.ctx.q
        if spec["kind"] == "verify":
            cfg = rsfq.RunConfig(p=spec["p"], e=spec["e"], seed=seed,
                                 n_max=spec["n_max"], jobs=1)
            star_max = spec.get("star_n_max")
            for cell in rsfq.build_cells(cfg, ["all"]):
                if cell["check"] == "star" and star_max is not None \
                        and cell["n"] > star_max:
                    continue
                ops.append(Operation(
                    f"verify q={q} {cell['check']} n={cell['n']}", "verify",
                    q, cell["n"], lambda cell=cell: rsfq.run_cell(cell),
                    check=cell["check"],
                ))
        elif spec["kind"] == "dist":
            n = spec["n"]
            ops.append(Operation(
                f"dist q={q} n={n}", "dist", q, n,
                lambda ring=ring, n=n: rsfq.distribution(ring, n).as_dict(),
            ))
        else:
            n = spec["n"]
            ops.append(Operation(
                f"sieve q={q} n={n}", "sieve", q, n,
                lambda ring=ring, n=n: {
                    "count": rsfq.count_irreducibles_sieve(ring, n)},
            ))
    return ops


def run_operations(ops: list, span=None) -> list:
    """Run each operation once; returns (op, seconds, output, error).

    ``span`` (optional) wraps each call in a tracing span of the given name.
    """
    results = []
    for op in ops:
        name = f"verify.cell.{op.check}" if op.kind == "verify" else None
        started = time.perf_counter()
        try:
            if span is not None and name is not None:
                with span(name):
                    out = op.call()
            else:
                out = op.call()
            err = None
        except Exception as exc:  # a raising operation counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((op, time.perf_counter() - started, out, err))
    return results


# -- reference ---------------------------------------------------------------


def exact_view(obj):
    """The exactly comparable part of an output: floats become SKIP."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return SKIP
    if isinstance(obj, dict):
        return {str(k): exact_view(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [exact_view(v) for v in obj]
    raise TypeError(f"unexpected output type {type(obj).__name__}")


def mismatch(ref, out, path: str = "") -> str | None:
    """First place where ``out`` differs from the reference view, or None.

    Keys the output has beyond the reference are ignored, so new report
    fields do not break the gate; every recorded field must match exactly.
    """
    if ref == SKIP:
        return None
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return f"{path or '.'}: expected an object"
        for key, sub in ref.items():
            if key not in out:
                return f"{path}.{key}: missing"
            found = mismatch(sub, out[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(out, (list, tuple)) or len(out) != len(ref):
            return f"{path or '.'}: expected a list of {len(ref)}"
        for i, (sub, got) in enumerate(zip(ref, out)):
            found = mismatch(sub, got, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(ref) is not type(out) or ref != out:
        return f"{path or '.'}: expected {ref!r}, got {out!r}"
    return None


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}.{size}.json"


def load_reference(workload: str, size: str) -> dict:
    with open(reference_path(workload, size)) as fh:
        return json.load(fh)


# -- independent routes --------------------------------------------------------


def _table_problems(rsfq, ring, n: int, table: dict, golden_dir: Path) -> list:
    problems = []
    ctx = ring.ctx
    q = ctx.q
    counts = table["counts"]
    want = rsfq.irreducible_count_formula(q, n)
    if table["total"] != want or sum(counts.values()) != want:
        problems.append(f"total {table['total']} != formula {want}")
    for gamma, count in counts.items():
        neg = ctx.element_str(ctx.neg(ctx.parse_element(gamma)))
        if counts.get(neg) != count:
            problems.append(f"count({gamma}) = {count} != count(-{gamma})")
            break
    golden = golden_dir / f"dist_q{q}_n{n}.json"
    if q == 3 and golden.exists():
        with open(golden) as fh:
            gold = json.load(fh)
        if gold["counts"] != counts or gold["total"] != table["total"]:
            problems.append(f"differs from {golden.name}")
    return problems


def check_result(rsfq, rings: dict, op: Operation, out, err, reference: dict,
                 golden_dir: Path) -> list:
    """Problems with one operation's output; empty when it is correct."""
    if err is not None:
        return [err]
    if op.key not in reference:
        return [f"no reference for {op.key}"]
    found = mismatch(reference[op.key], out)
    if found:
        return [f"reference mismatch at {found}"]
    # The output has the recorded shape from here on.
    problems = []
    ring = next(r for r in rings.values() if r.ctx.q == op.q)
    if op.kind == "dist" or (op.kind == "verify" and op.check == "dist"):
        table = out if op.kind == "dist" else out["detail"]
        problems += _table_problems(rsfq, ring, op.n, table, golden_dir)
    elif op.kind == "sieve":
        want = rsfq.irreducible_count_formula(op.q, op.n)
        if out["count"] != want:
            problems.append(f"sieve count {out['count']} != formula {want}")
    return problems


# -- work counts -----------------------------------------------------------------


def _objects(detail) -> int:
    if isinstance(detail, dict):
        return sum(v if k in OBJECT_KEYS and isinstance(v, int) else _objects(v)
                   for k, v in detail.items())
    if isinstance(detail, list):
        return sum(_objects(v) for v in detail)
    return 0


def work_counts(results: list) -> dict:
    """Deterministic work of one pass: cells run, objects enumerated (the
    verify details' checked/forms/combos/pairs_checked) and monics classified
    (q^n per distribution table or sieve count, verify dist cells included)."""
    cells = objects = monics = 0
    for op, _, out, _ in results:
        if op.kind == "verify":
            cells += 1
            objects += _objects(out)
        if op.kind != "verify" or op.check == "dist":
            monics += op.q ** op.n
    return {"cells": cells, "objects": objects, "monics": monics}
