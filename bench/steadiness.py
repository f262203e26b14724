"""Run the benchmark over several seeds and check that it is steady.

    python3 bench/steadiness.py [--workloads A,B] [--seeds 1,2,...] [--seconds S]

Run from the repository root.  Defaults: every workload, seeds 1..10 and
BENCHMARK.json's run_seconds.  Each run is a fresh ``bench/run.py
--trace 0`` process; its end-to-end metrics and failure count are printed
as it finishes.  Per workload it then prints each metric's median and
spread (the distance between the first and third quartile of
``statistics.quantiles(values, n=4)``, as a share of the median) beside
the metric's bound.

Exit status 1 when a run fails its correctness gate, when a spread other
than setup_s exceeds its bound, or when the deterministic work counts
(cells run, objects enumerated, monics classified) differ between runs.
With ``--seeds 1`` it is the one command that prints every end-to-end
metric and failed_frac for every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import workloads as wl

ROOT = wl.BENCH_DIR.parent


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workloads", default=",".join(wl.WORKLOADS))
    ap.add_argument("--seeds", default=",".join(map(str, range(1, 11))))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        work = set()
        for seed in args.seeds.split(","):
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload,
                 "--seed", seed, "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stdout}{done.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            with open(wl.BENCH_DIR / "out" /
                      f"{workload}.full.seed{seed}.trace0.json") as fh:
                work.add(json.dumps(json.load(fh)["work"], sort_keys=True))
            shown = "  ".join(f"{name}={m['value']:.4g} {m['unit']}"
                              for name, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown}  failed_frac="
                  f"{result['failed'] / result['attempted']:.3g}", flush=True)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        if len(work) > 1:
            print(f"{workload}: work counts differ between runs: {work}")
            ok = False
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            within = spread <= bounds[name] or name == "setup_s"
            ok = ok and within
            print(f"{workload} {name}: median {median:.5g} spread "
                  f"{spread:.4f} bound {bounds[name]}"
                  f"{'' if within else '  EXCEEDS BOUND'}")
        print(f"{workload} work: {sorted(work)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
