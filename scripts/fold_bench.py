#!/usr/bin/env python3
"""Fold one change's parent/change benchmark pairs into BENCH_<number>.json.

Each run is the captured stdout of

    python3 bench/run.py --workload W --seed S --seconds 30 --trace 0

on the parent commit or on the change, saved as ``<W>.<side>.<S>.out`` in
one directory, side being ``parent`` or ``change``.  The last line of a
run is its JSON result.  A pair is the parent and change runs of one
workload and seed; the file written at the later time ran second.

For every workload and end-to-end metric of BENCHMARK.json the output
records each side's runs, median and quartiles, the pairs the change won
(ties count for neither side), whether the gain is clear (won at least
nine tenths of the pairs, and the medians differ by more than the
parent's interquartile range) and whether the change's median stays
within the metric's relative bound.  Machine facts are those of the host
that runs this script, so run it where the pairs ran.

Usage:
    python scripts/fold_bench.py --number 6 --runs DIR [--out BENCH_6.json]
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_runs(runs_dir: Path) -> dict:
    """{workload: {seed: {side: (result, mtime)}}} from the .out files."""
    runs = {}
    for path in sorted(runs_dir.glob("*.out")):
        workload, side, seed = path.stem.rsplit(".", 2)
        if side not in SIDES:
            raise SystemExit(f"{path.name}: side must be parent or change")
        lines = path.read_text().strip().splitlines()
        if not lines:
            raise SystemExit(f"{path.name}: empty run output")
        result = json.loads(lines[-1])
        by_seed = runs.setdefault(workload, {}).setdefault(int(seed), {})
        by_seed[side] = (result, path.stat().st_mtime)
    return runs


def summary(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def fold_metric(spec: dict, pairs: list) -> dict:
    name, lower = spec["name"], spec["better"] == "lower"
    sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
             for side in SIDES}
    won = lost = 0
    for old, new in zip(sides["parent"], sides["change"]):
        if new != old:
            better = new < old if lower else new > old
            won += better
            lost += not better
    parent, change = summary(sides["parent"]), summary(sides["change"])
    gap = change["median"] - parent["median"]
    worse_frac = (gap if lower else -gap) / parent["median"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "change_over_parent": change["median"] / parent["median"],
        "pairs_won": won,
        "pairs_lost": lost,
        "clear_gain": (won >= 0.9 * len(pairs)
                       and (-gap if lower else gap)
                       > parent["q3"] - parent["q1"]),
        "worse_frac": worse_frac,
        "within_bound": worse_frac <= spec["bound"],
    }


def fold(runs: dict, benchmark: dict) -> dict:
    out = {}
    for workload, by_seed in sorted(runs.items()):
        seeds = sorted(s for s, sides in by_seed.items()
                       if all(side in sides for side in SIDES))
        pairs = [{side: by_seed[s][side][0] for side in SIDES} for s in seeds]
        first = [min(SIDES, key=lambda side: by_seed[s][side][1])
                 for s in seeds]
        out[workload] = {
            "seeds": seeds,
            "pairs": len(pairs),
            "first_in_pair": first,
            "attempted": {side: sum(p[side]["attempted"] for p in pairs)
                          for side in SIDES},
            "failed": {side: sum(p[side]["failed"] for p in pairs)
                       for side in SIDES},
            "all_correct": all(p[side]["correct"]
                               for p in pairs for side in SIDES),
            "metrics": {spec["name"]: fold_metric(spec, pairs)
                        for spec in benchmark["end_to_end"]},
        }
    return out


def machine_facts() -> dict:
    """bench/run.py's machine facts, less the commit of the checkout (this
    script may run before or after the change is committed)."""
    import numpy
    sys.path.insert(0, str(ROOT / "bench"))
    from run import machine_facts as bench_facts
    facts = bench_facts(numpy.__version__)
    del facts["commit"]
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True,
                        help="place of the change in the BENCH_*.json series")
    parser.add_argument("--runs", type=Path, required=True,
                        help="directory of <workload>.<side>.<seed>.out files")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default BENCH_<number>.json)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = load_runs(args.runs)
    if not runs:
        print(f"no *.out runs in {args.runs}", file=sys.stderr)
        return 2
    record = {
        "number": args.number,
        "command": " ".join(benchmark["command"])
                   + " --workload W --seed S --seconds "
                   + str(benchmark["run_seconds"]) + " --trace 0",
        "machine": machine_facts(),
        "workloads": fold(runs, benchmark),
    }
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
