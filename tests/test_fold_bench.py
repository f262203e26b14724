import importlib.util
import json
import os
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fold_bench.py"


def load_script():
    spec = importlib.util.spec_from_file_location("fold_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(runs, side, seed, wall, mtime):
    metrics = {"wall_norm_s": {"value": wall, "unit": "s"},
               "setup_s": {"value": 0.3, "unit": "s"},
               "peak_rss_mb": {"value": 40.0, "unit": "MB"},
               "monics_per_norm_s": {"value": 100.0 / wall, "unit": "1/s"}}
    path = runs / f"verify-prime.{side}.{seed}.out"
    path.write_text("verify-prime wall_norm_s = ...\n" + json.dumps(
        {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}))
    os.utime(path, (mtime, mtime))


def test_fold_pairs_medians_wins_and_order(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    parent = [0.60, 0.58, 0.62, 0.59]
    change = [0.30, 0.31, 0.62, 0.29]
    for k, (old, new) in enumerate(zip(parent, change)):
        first, second = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        values = {"parent": old, "change": new}
        write_run(runs, first, 10 + k, values[first], 1000 + 2 * k)
        write_run(runs, second, 10 + k, values[second], 1001 + 2 * k)
    out = tmp_path / "BENCH_1.json"
    assert load_script().main(["--number", "1", "--runs", str(runs),
                               "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["number"] == 1 and "nproc" in record["machine"]
    fold = record["workloads"]["verify-prime"]
    assert fold["seeds"] == [10, 11, 12, 13]
    assert fold["first_in_pair"] == ["parent", "change", "parent", "change"]
    assert fold["failed"] == {"parent": 0, "change": 0}
    wall = fold["metrics"]["wall_norm_s"]
    assert wall["parent"]["median"] == 0.595
    assert wall["change"]["median"] == 0.305
    # The tie at seed 12 counts for neither side: 3 of 4 is not 9 tenths.
    assert (wall["pairs_won"], wall["pairs_lost"]) == (3, 0)
    assert not wall["clear_gain"] and wall["within_bound"]
    rate = fold["metrics"]["monics_per_norm_s"]
    assert rate["pairs_won"] == 3 and rate["worse_frac"] < 0
