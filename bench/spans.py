"""In-memory spans and call counters, patched around rsfq's public functions.

rsfq modules import each other with ``from .x import y``, so a wrapper is
installed under every name that refers to the original function in any
``rsfq`` module (for example ``verify.scan_gauss_bound`` and
``charsum.matrix_rank`` as well as ``quadform.matrix_rank``).  Methods are
patched on their class.  ``Patch.remove`` puts every original back.

A span's self time is its duration minus the time its child spans cover;
spans nest strictly (one thread), so that is the sum of the direct
children's durations.  Every span is aggregated by name; the first
``KEEP_SPANS`` spans of depth <= 1 are also kept as records for the trace
file, which bounds memory on workloads with millions of calls.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

KEEP_SPANS = 20000

# (module, owner attribute path) of every public entry point that gets a
# span.  The span name is "<module>.<path>", and <module> is the layer its
# self time is charged to.  Field and poly ring operations are called far
# too often for spans; they get counters (COUNTED) instead.
SPANNED = [
    ("poly", "PolyRing.is_irreducible"),
    ("arith", "check_tau_bound"),
    ("arith", "check_tau_second_moment"),
    ("arith", "divisors_monic"),
    ("arith", "FactorTable.factor"),
    ("rudin", "autocorrelation"),
    ("rudin", "rudin_shapiro"),
    ("rudin", "reversal_product_correlations"),
    ("quadform", "qa_matrix"),
    ("quadform", "qa_matrix_entrywise"),
    ("quadform", "bab_matrix"),
    ("quadform", "matrix_rank"),
    ("quadform", "monic_slice_rank"),
    ("quadform", "scan_qa_ranks"),
    ("quadform", "scan_bab_ranks"),
    ("charsum", "scan_gauss_bound"),
    ("charsum", "max_gauss_magnitude"),
    ("charsum", "quad_form_char_sum"),
    ("charsum", "rs_char_sum_over_set"),
    ("charsum", "rs_pair_char_sum"),
    ("vaughan", "VaughanContext.__init__"),
    ("vaughan", "VaughanContext.tabulate"),
    ("vaughan", "VaughanContext.decompose"),
    ("vaughan", "random_weight_values"),
    ("vaughan", "sigma1"),
    ("vaughan", "sigma2"),
    ("dist", "distribution"),
    ("sieve", "count_irreducibles_sieve"),
    ("vecenum", "coeff_digits"),
    ("vecenum", "rows_to_indices"),
]

COUNTED = [
    ("field", "FieldCtx.mul"),
    ("field", "FieldCtx.add"),
    ("field", "FieldCtx.inv"),
    ("poly", "PolyRing.mul"),
    ("poly", "PolyRing.divmod"),
]

# Layers whose self time the traced run reports; "verify" is the cell span
# opened by the benchmark around each run_cell call.
LAYERS = ("verify", "poly", "arith", "rudin", "quadform", "charsum",
          "vaughan", "dist", "sieve", "vecenum")


class Tracer:
    """Span stack, per-name aggregates and the kept span records."""

    def __init__(self):
        self._stack = []          # open spans: [child s, id, parent, start]
        self._next_id = 0
        self.totals = {}          # name -> [calls, seconds, self seconds]
        self.records = []         # (id, parent id, name, start, end)
        self.origin = time.perf_counter()

    def _enter(self):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id, stack[-1][1] if stack else None]
        stack.append(frame)
        frame.append(time.perf_counter())
        return frame

    def _exit(self, name: str, frame):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        child, span_id, parent, start = frame
        duration = end - start
        if stack:
            stack[-1][0] += duration
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if len(stack) <= 1 and len(self.records) < KEEP_SPANS:
            self.records.append((span_id, parent, name,
                                 start - self.origin, end - self.origin))

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame)

        return traced

    def layer_self(self) -> dict:
        """Self seconds per layer (the span name's first component)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.totals.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def check_self(self) -> dict:
        """(duration, self seconds) of the verify cell spans per check."""
        out = {}
        for name, (_, total, self_s) in self.totals.items():
            if name.startswith("verify.cell."):
                out[name[len("verify.cell."):]] = (total, self_s)
        return out

    def dump(self) -> dict:
        return {
            "totals": {name: {"calls": c, "seconds": t, "self_seconds": s}
                       for name, (c, t, s) in sorted(self.totals.items())},
            "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                      for i, p, n, a, b in self.records],
        }


class Counters:
    """Call counts per counted name."""

    def __init__(self):
        self.cells = {}

    def wrap(self, name: str, fn):
        cell = self.cells.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def counts(self) -> dict:
        return {name: cell[0] for name, cell in self.cells.items()}


class Patch:
    """Installs wrappers for (module, path) targets; ``remove`` undoes it."""

    def __init__(self, targets, make_wrapper):
        self._undo = []
        for module, path in targets:
            name = f"{module}.{path}"
            mod = sys.modules[f"rsfq.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, make_wrapper(name, original))
                continue
            original = getattr(mod, path)
            wrapper = make_wrapper(name, original)
            for mod_name, other in list(sys.modules.items()):
                if mod_name != "rsfq" and not mod_name.startswith("rsfq."):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, attr, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
