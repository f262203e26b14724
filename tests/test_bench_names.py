"""Every name the benchmark's tracer patches must exist in rsfq.

bench/spans.py installs its spans and call counters by looking each
(module, path) target up with getattr; a renamed or deleted function would
break `bench/run.py --trace 1` there.  This loads spans.py by path and
resolves every target the way its Patch class does.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(f"rsfq.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        return attr in getattr(owner, cls_name, object).__dict__
    return callable(getattr(owner, path, None))


def test_every_spanned_and_counted_name_resolves():
    spans = load_spans()
    targets = spans.SPANNED + spans.COUNTED
    assert targets
    missing = [f"{m}.{p}" for m, p in targets if not resolves(m, p)]
    assert missing == []
