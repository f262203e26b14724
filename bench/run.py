"""rsfq benchmark: one workload per invocation, checked against a reference.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports rsfq from ``src/``.  The load
is a closed loop of batch jobs: one operation at a time in this process,
the plain single-threaded baseline (``--jobs 1``).

``--trace 0`` runs a sizing pass, then repeats the workload's operations
until ``--seconds`` would be exceeded and reports the end-to-end metrics:

- ``wall_norm_s``: seconds for one pass over the operations at the
  reference host speed: the median over the passes of the pass's time
  over the time of the reference loop interleaved with it, times what that
  reference work takes at the reference speed (see ``end_to_end``).  The
  raw median pass time is the details file's ``wall_s``;
- ``setup_s``: best over fresh processes, one before the sizing pass and
  one before every second pass after it, of interpreter start, ``import
  rsfq`` and FieldCtx/PolyRing construction for the workload's fields.
  It is not scaled: process start and imports do not slow with the host
  the way the reference loop does;
- ``peak_rss_mb``: peak resident memory of this process;
- ``monics_per_norm_s``: monic polynomials classified per second at the
  reference speed, q^n per distribution table or sieve count over
  wall_norm_s.  The verify workloads classify monics only in their dist
  cells, so there it follows wall_norm_s.

``--trace 1`` reports the per-layer metrics instead, from an untraced
pass, a pass with spans around rsfq's public entry points (``spans.py``),
a pass with call counters on field and poly ring operations, a second
untraced pass, the seeded micro-timings of ``micro.py`` and the best time
of one reference-loop chunk (``host.ref_loop_us``), by which to read them.
Spans and counters get separate passes because the counters on field
operations would inflate the self times; ``trace.overhead_frac`` and
``trace.count_overhead_frac`` compare each with the untraced passes.

Every output of every pass goes through the correctness gate in
``workloads.py``; an operation fails if it raises or its output disagrees
with the reference or an independent route.  The last stdout line is the
JSON result; a details file (machine facts, per-repetition times, work
counts, spans) is written to ``bench/out/``.  Exit status: 0 when every
output is correct, 1 when the gate failed, 2 when the benchmark could not
run (for example when ``src/rsfq`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN_DIR = ROOT / "tests" / "golden"

# A set-up probe runs before every PROBE_EVERY-th pass: spread over the run,
# not bunched at its start, so that one slow spell of the shared host cannot
# cover them all, and sparse enough that passes keep most of the run.
PROBE_EVERY = 2
# The reference loop: iterations per chunk, the chunk's best time on the
# host where the benchmark was defined (a 2-vCPU "Intel(R) Xeon(R)
# Processor" VM, Python 3.11.7; wall_norm_s is in seconds at that speed),
# and the reference time spent before each operation, as a share of the
# operation's time.
REF_CHUNK = 1000
REF_CHUNK_S = 3.4e-4
REF_SHARE = 0.1
CHECKS = ("star", "lin-red", "tau", "tau-moment", "gauss", "rank-qa",
          "rank-bab", "vaughan", "dist")
MICRO_FIELDS = ((3, 1), (5, 1), (3, 2))


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload at smoke-test size")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def import_rsfq():
    if not (SRC / "rsfq" / "__init__.py").is_file():
        raise BenchError(f"no rsfq package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import rsfq
    if Path(rsfq.__file__).resolve().parent != (SRC / "rsfq").resolve():
        raise BenchError(f"imported rsfq from {rsfq.__file__}, not {SRC}")
    return rsfq


# -- facts ---------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


# -- measurement ---------------------------------------------------------------


def setup_probe(fields) -> float:
    """Seconds from spawn to exit of one fresh set-up process."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)]
    cmd += [f"{p},{e}" for p, e in fields]
    started = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{done.stderr}")
    return time.perf_counter() - started


class Gate:
    """Failure accounting over every checked pass."""

    def __init__(self, wl, rsfq, rings, reference):
        self.wl, self.rsfq, self.rings = wl, rsfq, rings
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.work = None

    def check(self, results) -> dict:
        for op, _, out, err in results:
            self.attempted += 1
            found = self.wl.check_result(self.rsfq, self.rings, op, out, err,
                                         self.reference, GOLDEN_DIR)
            if found:
                self.failed += 1
                self.problems.append({"op": op.key, "problems": found})
        work = self.wl.work_counts(results)
        if self.work is None:
            self.work = work
        elif work != self.work:
            self.failed += 1
            self.problems.append({"op": "work counts",
                                  "problems": [f"{work} != {self.work}"]})
        return work


def wall(results) -> float:
    return sum(seconds for _, seconds, _, _ in results)


def _ref_step(a: int, b: int) -> int:
    return (a * b + 1) % 9


def reference_loop() -> int:
    """A fixed pure-Python loop: tuples, a dict, a list, small-int arithmetic
    and calls, the kind of interpreter work rsfq's field and polynomial code
    does, sharing none of rsfq's code."""
    counts = {}
    digits = []
    acc = 0
    for i in range(REF_CHUNK):
        pair = (i % 9, _ref_step(i, 7))
        counts[pair] = counts.get(pair, 0) + 1
        digits.append(pair[1])
        acc = (acc * 31 + pair[0] * pair[1]) % 1000003
    return acc + len(digits)


def time_reference(chunks: int) -> float:
    started = time.perf_counter()
    for _ in range(chunks):
        reference_loop()
    return time.perf_counter() - started


def end_to_end(wl, ops, gate, fields, seconds: int) -> tuple:
    """A sizing pass, then set-up probes and passes while the next fits.

    The host is shared and its speed swings by up to 2x, in spells from
    under a second to minutes, so raw pass times of the same code spread
    too far to compare two commits.  Before every operation the reference
    loop runs for about REF_SHARE of that operation's time (chunk counts
    fixed by the sizing pass), so within each pass the loop samples the
    host at the moments the operations ran.  A pass's time over its
    reference time, times what that reference work takes at the reference
    speed, is the pass's time at the reference speed; wall_norm_s is the
    median over the passes.
    """
    started = time.perf_counter()
    setup_times = [setup_probe(fields)]
    sizing = wl.run_operations(ops)
    gate.check(sizing)
    chunk_s = min(time_reference(1) for _ in range(20))
    chunks = [max(1, round(REF_SHARE * sec / chunk_s))
              for _, sec, _, _ in sizing]
    reps, refs, spent = [], [], []
    while True:
        if len(reps) % PROBE_EVERY == PROBE_EVERY - 1:
            setup_times.append(setup_probe(fields))
        pass_started = time.perf_counter()
        results, ref_row = [], []
        for op, count in zip(ops, chunks):
            ref_row.append(time_reference(count))
            results += wl.run_operations([op])
        gate.check(results)
        reps.append([sec for _, sec, _, _ in results])
        refs.append(ref_row)
        spent.append(time.perf_counter() - pass_started)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(spent) > seconds:
            break
    ref_work_s = sum(chunks) * REF_CHUNK_S
    norm = [sum(r) * ref_work_s / sum(f) for r, f in zip(reps, refs)]
    wall_norm_s = statistics.median(norm)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_norm_s": (wall_norm_s, "s"),
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "monics_per_norm_s": (gate.work["monics"] / wall_norm_s, "1/s"),
    }
    return metrics, {
        "wall_s": statistics.median(map(sum, reps)),
        "ref_chunks": chunks,
        "ref_s": refs,
        "norm_pass_s": norm,
        "setup_probe_s": setup_times,
        "pass_wall_s": [sum(r) for r in reps],
        "op_s": {op.key: list(col) for op, col in zip(ops, zip(*reps))},
    }


def per_layer(wl, spans, micro, rsfq, ops, gate, rings, seed) -> tuple:
    base = wl.run_operations(ops)
    gate.check(base)

    tracer = spans.Tracer()
    patch = spans.Patch(spans.SPANNED, tracer.wrap)
    try:
        traced = wl.run_operations(ops, span=tracer.span)
    finally:
        patch.remove()
    gate.check(traced)

    counters = spans.Counters()
    patch = spans.Patch(spans.COUNTED, counters.wrap)
    try:
        counted = wl.run_operations(ops)
    finally:
        patch.remove()
    gate.check(counted)

    # The host's speed drifts, so the untraced reference is the mean of a
    # pass before and a pass after the traced ones.
    base_after = wl.run_operations(ops)
    gate.check(base_after)
    base_s = (wall(base) + wall(base_after)) / 2

    metrics = micro.measure(rsfq, rings, seed)
    # The host's speed when the micro-timings ran, to read them by.
    metrics["host.ref_loop_us"] = (
        min(time_reference(1) for _ in range(200)) * 1e6, "us")
    for name, count in counters.counts().items():
        layer, path = name.split(".", 1)
        metrics[f"{layer}.{path.split('.')[-1]}_calls"] = (count, "count")
    for layer, self_s in tracer.layer_self().items():
        metrics[f"self_s.{layer}"] = (self_s, "s")
    cell_s = {check: 0.0 for check in CHECKS}
    longest = 0.0
    for op, sec, _, _ in base:
        if op.kind == "verify":
            cell_s[op.check] += sec
            longest = max(longest, sec)
    cell_self = tracer.check_self()
    for check in CHECKS:
        metrics[f"verify.cell_s.{check}"] = (cell_s[check], "s")
        metrics[f"verify.cell_self_s.{check}"] = (
            cell_self.get(check, (0.0, 0.0))[1], "s")
    total_cells = sum(cell_s.values())
    metrics["verify.max_cell_share"] = (
        longest / total_cells if total_cells else 0.0, "frac")
    metrics["trace.overhead_frac"] = (wall(traced) / base_s - 1, "frac")
    metrics["trace.count_overhead_frac"] = (wall(counted) / base_s - 1, "frac")
    for key, value in wl.work_counts(base).items():
        metrics[f"work.{key}"] = (value, "count")
    details = {
        "untraced_wall_s": [wall(base), wall(base_after)],
        "traced_wall_s": wall(traced),
        "counted_wall_s": wall(counted),
        "calls": counters.counts(),
        "trace": tracer.dump(),
    }
    return metrics, details


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    import workloads as wl

    args = parse_args(argv, wl.WORKLOADS)
    try:
        rsfq = import_rsfq()
        import numpy

        import micro
        import spans

        reference = wl.load_reference(args.workload, args.size)
        fields = wl.fields_of(args.workload, args.size)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    ring_fields = set(fields) | (set(MICRO_FIELDS) if args.trace else set())
    rings = {pe: rsfq.PolyRing(rsfq.FieldCtx(*pe)) for pe in ring_fields}
    ops = wl.build_operations(rsfq, args.workload, args.size, args.seed, rings)
    gate = Gate(wl, rsfq, rings, reference)
    started = time.perf_counter()
    if args.trace:
        metrics, details = per_layer(wl, spans, micro, rsfq, ops, gate,
                                     rings, args.seed)
    else:
        try:
            metrics, details = end_to_end(wl, ops, gate, fields, args.seconds)
        except (BenchError, subprocess.SubprocessError) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
    details["run_s"] = time.perf_counter() - started

    correct = gate.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "operations": [{"key": op.key, "q": op.q, "n": op.n,
                        "q^n": op.q ** op.n} for op in ops],
        "work": gate.work,
        "machine": machine_facts(numpy.__version__),
        "load": "closed loop, one operation at a time, one process (--jobs 1)",
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failed_frac": gate.failed / gate.attempted,
        "problems": gate.problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "micro_sizes": micro.SIZES if args.trace else None,
        **details,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}.{args.size}.seed{args.seed}" \
                         f".trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {record['failed_frac']:.6g} "
          f"({gate.failed} of {gate.attempted} operations)")
    print(f"{args.workload} work = {gate.work}")
    for problem in gate.problems[:5]:
        print(f"{args.workload} FAILED {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
