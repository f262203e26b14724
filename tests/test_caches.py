"""What rsfq keeps per process: bounded caches of read-only values.

A functools cache lives as long as the process and hands the same object
to every caller.  This scans the code of src/rsfq/*.py for functools
caches: each must be an lru_cache with an explicit int maxsize, never
functools.cache or maxsize=None.  Every cached function found must also
be listed in CACHED below, and each array it returns must be read-only,
so that no caller can change what the next one reads.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rsfq import arith, quadform, rudin, sieve, vecenum
from rsfq.field import FieldCtx, basis_key, field_tables, shared_ctx
from rsfq.poly import PolyRing
from rsfq.verify import RunConfig, build_cells, verify_all

SRC = Path(__file__).resolve().parent.parent / "src" / "rsfq"


def _is_lru_cache(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "lru_cache")
            or (isinstance(node, ast.Attribute) and node.attr == "lru_cache"))


def _bounded(call: ast.Call) -> bool:
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    sizes += call.args[:1]
    return (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int)


def scan(source: str) -> tuple[list, list]:
    """(cached function names, (line, text) of every unbounded cache)."""
    tree = ast.parse(source)
    bounded = {id(node.func) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and _is_lru_cache(node.func)
               and _bounded(node)}
    cached, found = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "cache") for alias in node.names
                      if alias.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            found.append((node.lineno, "functools.cache"))
        elif _is_lru_cache(node) and id(node) not in bounded:
            found.append((node.lineno, "lru_cache without an int maxsize"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                if _is_lru_cache(getattr(deco, "func", deco)):
                    cached.append(node.name)
    return cached, sorted(found)


def test_the_scan_finds_each_unbounded_cache():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=4)\ndef a(x): return x\n"
              "@lru_cache(8)\ndef b(x): return x\n"
              "@lru_cache\ndef c(x): return x\n"
              "@lru_cache(maxsize=None)\ndef d(x): return x\n"
              "@functools.lru_cache()\ndef e(x): return x\n"
              "@functools.cache\ndef f(x): return x\n"
              "g = lru_cache(maxsize=2)(len)\n")
    cached, found = scan(source)
    assert cached == ["a", "b", "c", "d", "e"]
    assert found == [(2, "cache"),
                     (7, "lru_cache without an int maxsize"),
                     (9, "lru_cache without an int maxsize"),
                     (11, "lru_cache without an int maxsize"),
                     (13, "functools.cache")]


# Every cached function under src/rsfq, with a call that fills it.
F9 = FieldCtx(3, 2)
F9_BASIS = basis_key(F9.p, F9.basis)
CACHED = {
    "arith._degree_table": lambda: arith._degree_table(*F9_BASIS, 3),
    "field.field_tables": lambda: field_tables(F9.key()),
    "field.shared_ctx": lambda: shared_ctx(3, 2, None),
    "rudin._grid": lambda: (
        rudin._grid(rudin._sum_products, F9_BASIS),
        rudin._grid(rudin._field_products, (3, 2, F9.modulus))),
    "vecenum.digit_add_table": lambda: vecenum.digit_add_table(3, 2),
    "sieve._split": lambda: sieve._split(3, 2, 1, 2),
    "sieve._halves": lambda: sieve._halves(3, 2, 4),
    "sieve._factor_base": lambda: (sieve._factor_base(*F9_BASIS, 1),
                                   sieve._factor_base(*F9_BASIS, 2)),
    "quadform._multiplier_table": lambda: quadform._multiplier_table(F9, 2),
}


def test_every_functools_cache_is_bounded_and_listed():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    cached, found = [], []
    for path in paths:
        names, bad = scan(path.read_text())
        cached += [f"{path.stem}.{name}" for name in names]
        found += [f"{path.name}:{line}: {text}" for line, text in bad]
    assert found == []
    assert sorted(cached) == sorted(CACHED)


def arrays(value, seen=None) -> list:
    """Every numpy array reachable from value through tuples, lists and
    instance attributes."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        items = value
    elif hasattr(value, "__dict__") and not isinstance(value, type):
        items = vars(value).values()
    else:
        return []
    return [a for item in items for a in arrays(item, seen)]


# arith._degree_table replaced two caches, the per-k divisor-sum table
# and the per-(d, m) product table; each is still read, through a kernel,
# and checked under its old name: the table _divisor_sum bincounts and
# the products(d, m) blocks, views into it.
KERNEL_READS = {
    "arith._divisor_table": lambda: arith._degree_table(*F9_BASIS, 4),
    "arith._product_table": lambda: (
        arith.Dirichlet(PolyRing(F9)).products(1, 2),
        arith.Dirichlet(PolyRing(F9)).products(2, 1)),
}


@pytest.mark.parametrize("name", sorted({**CACHED, **KERNEL_READS}))
def test_cached_arrays_are_read_only(name):
    found = arrays({**CACHED, **KERNEL_READS}[name]())
    assert found
    assert [a.flags.writeable for a in found] == [False] * len(found)


def test_fresh_ctx_is_never_the_shared_one():
    assert FieldCtx(3, 2) is not FieldCtx(3, 2)
    assert shared_ctx(3, 2, None) is shared_ctx(3, 2, None)
    assert FieldCtx(3, 2) is not shared_ctx(3, 2, None)
    assert RunConfig(p=3, e=2).ctx() is shared_ctx(3, 2, None)


@pytest.mark.parametrize("p, e", [(3, 2), (5, 2)])
def test_cold_and_warm_caches_give_the_same_output(p, e):
    """verify all twice in one process, first with every per-field cache
    empty: the payloads agree apart from elapsed_seconds."""
    for cached in (field_tables, shared_ctx, rudin._grid,
                   arith._degree_table, sieve._factor_base,
                   quadform._multiplier_table):
        cached.cache_clear()
    cold, warm = (verify_all(RunConfig(p=p, e=e)) for _ in range(2))
    assert rudin._grid.cache_info().hits > 0
    assert arith._degree_table.cache_info().hits > 0
    assert sieve._factor_base.cache_info().hits > 0
    assert quadform._multiplier_table.cache_info().hits > 0
    for payload in (cold, warm):
        del payload["meta"]["elapsed_seconds"]
    assert json.dumps(cold) == json.dumps(warm)


def test_one_multiplier_table_per_degree_in_a_cold_verify_all():
    """The rank-qa, rank-bab and gauss cells of every n read the degree-k
    table of their field: one cold verify all at q = 3 builds it once per
    distinct k those cells scan, and reads it again at every other n."""
    cfg = RunConfig(p=3)
    degrees = {k for cell in build_cells(cfg, ("all",))
               if cell["check"] in ("rank-qa", "rank-bab", "gauss")
               for k in range((cell["n"] - 1) // 2 + 1)}
    assert degrees == {0, 1, 2, 3}
    quadform._multiplier_table.cache_clear()
    verify_all(cfg)
    info = quadform._multiplier_table.cache_info()
    assert info.misses == len(degrees)
    assert info.hits > info.misses


def test_import_starts_no_process_machinery():
    """A serial run never needs a process pool: import rsfq, and the CLI
    module, load neither concurrent.futures nor multiprocessing."""
    code = ("import sys, rsfq, rsfq.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
