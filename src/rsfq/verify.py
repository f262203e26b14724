"""Verification matrix: every identity and bound check as a schedulable cell.

A cell is a small dict of primitives (field key, cap, check name, degree),
so it can cross a process boundary.  run_cell takes the cell's FieldCtx
from field.shared_ctx, built once per process, and rebuilds only the ring
around it, with the cell's cap as the one cap every scan of the cell
charges; it returns a JSON-ready result.  Results are sorted by
(check, n, k) and aggregated into one report whose only nondeterministic
field is meta.elapsed_seconds: every numeric value is derived from exact
integer state, so the parallelism degree never changes a byte of the
payload.

What `verify all` covers is read off the table CHECKS, one row per check
with its runner and degree range (see Check).

Cell pass semantics are the mathematical claims themselves.  A failing cell
is a violated desk-scale instance of a stated bound and turns into exit
code 1 at the CLI; the rank-qa scan is known to contain such instances at
boundary degrees (see the scan reports for the inventory).

The star cell walks the q^(n+1) polynomials a of degree <= n in the
sieve.blocks of their counting indices: rudin.reversal_products gives the
coefficients of reverse(a, n) * a and rudin.lag_sums every
autocorrelation of a, by two routes that share no field arithmetic
(Horner's rule through the modulus against digit sums contracted with the
powers of w).  Each forms the products of two coefficients once on the
subgrid of their values in a piece of the range, not once per
polynomial, and holds about sieve.BLOCK entries at most besides its output.
A product that is not palindromic fails the cell with an error naming a;
a coefficient t^(n-lag) that differs from the lag sum is a failure
{"a", "lag"}, listed by a and then by lag.
verify_all cap-checks every scheduled star cell before any cell runs.
The lin-red cell compares rudin.rs_values of the q^n monics f of degree n
with their lag-1 sums minus f_(n-1), digit-wise mod p, in the sieve.blocks
of about sieve.BLOCK digits, and lists each failing f by ring.to_str in
counting order.
The vaughan cell lists a cutoff pair that breaks its identity, and a sigma
aggregate whose |S|^2 is not 0 or a power of p, as failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import arith, quadform
from .charsum import CharSpec, char_values, scan_gauss_bound
from .dist import distribution
from .errors import ConfigError, ExactIdentityError
from .field import FieldCtx, shared_ctx
from .poly import DEFAULT_CAP, PolyRing, PolySet
from .rudin import _lag1_sums, lag_sums, reversal_products, rs_values
from .sieve import blocks
from .vaughan import (
    VaughanContext,
    _rs_table,
    default_cutoffs,
    random_weight_values,
    sigma1,
    sigma2,
)
from .vecenum import digits


@dataclass
class RunConfig:
    """Resolved run parameters shared by the CLI subcommands."""

    p: int = 3
    e: int = 1
    modulus: tuple | None = None
    fmt: str = "json"
    jobs: int = 1
    cap: int = DEFAULT_CAP
    seed: int = 1
    weights: int = 3
    n_max: int | None = None

    def ctx(self) -> FieldCtx:
        return shared_ctx(self.p, self.e, tuple(self.modulus or ()) or None)

    def ring(self) -> PolyRing:
        return PolyRing(self.ctx(), self.cap)

    def public_dict(self) -> dict:
        # jobs intentionally omitted: it must not influence the payload.
        return {
            "p": self.p,
            "e": self.e,
            "modulus": list(self.modulus) if self.modulus else None,
            "cap": self.cap,
            "seed": self.seed,
            "weights": self.weights,
            "n_max": self.n_max,
        }


def _star_count(ring: PolyRing, cell: dict) -> int:
    """q^(n+1) polynomials of degree <= n, cap-checked as ring.enumerate
    checks them."""
    count = ring.cardinality(PolySet.DEGREE_AT_MOST, cell["n"])
    ring.check_cap(count)
    return count


def _run_star(ring: PolyRing, cell: dict):
    n = cell["n"]
    count = _star_count(ring, cell)
    failures = []
    # Each block holds about BLOCK coefficients and lag sums.
    for start, stop in blocks(count, 3 * n + 2, ring.ctx.q):
        prod = reversal_products(ring, n, start, stop)
        corr = prod[n::-1]                  # t^(n-lag), lag = 0..n
        skew = corr != prod[n:]             # against t^(n+lag)
        if skew.any():
            k, lag = np.argwhere(skew.T)[0]
            a = ring.from_index(PolySet.DEGREE_AT_MOST, n, start + k)
            return False, {"error": f"reversal product of {ring.to_str(a)} "
                                    f"is not palindromic at lag {lag}"}
        for k, lag in np.argwhere((corr != lag_sums(ring, n, start, stop)).T):
            a = ring.from_index(PolySet.DEGREE_AT_MOST, n, start + k)
            failures.append({"a": ring.to_str(a), "lag": int(lag)})
    return not failures, {"checked": count, "failures": failures}


def _run_lin_red(ring: PolyRing, cell: dict):
    n = cell["n"]
    ctx = ring.ctx
    p, q, e = ctx.p, ctx.q, ctx.e
    ring.check_cap(ring.cardinality(PolySet.MONIC, n))
    failures = []
    # Blocks of about BLOCK digits of lag-1 sums.  In degree <= n
    # counting order the monics of degree n follow q^n.
    for start, stop in blocks(q**n, e, q):
        low = np.arange(start, stop)
        lag1 = digits(_lag1_sums(ring, n, q**n + start, q**n + stop), p, e)
        second = digits(low // q ** (n - 1) % q, p, e)     # f_(n-1)
        want = (lag1 - second) % p @ p ** np.arange(e)
        failures += [ring.to_str(ring.from_index(PolySet.MONIC, n, start + k))
                     for k in np.flatnonzero(rs_values(ring, n, low) != want)]
    return not failures, {"checked": q**n, "failures": failures}


def _run_tau(ring: PolyRing, cell: dict):
    report = arith.check_tau_bound(ring, cell["n"])
    return report["pass"], report


def _run_tau_moment(ring: PolyRing, cell: dict):
    report = arith.check_tau_second_moment(ring, cell["n"])
    return report["pass"], report


def _run_gauss(ring: PolyRing, cell: dict):
    reports = scan_gauss_bound(ring, cell["n"])
    failures = [r for r in reports if not r["pass"]]
    worst = max((r["max_magnitude"] / r["bound"] for r in reports), default=0.0)
    return not failures, {
        "forms": len(reports),
        "worst_ratio": worst,
        "failures": failures,
    }


def _run_rank_qa(ring: PolyRing, cell: dict):
    reports = quadform.scan_qa_ranks(ring, cell["n"])
    rank_failures = [r.as_dict() for r in reports if r.rank < r.bound]
    monic_failures = [
        r.as_dict() for r in reports if r.monic_rank < r.bound - 1
    ]
    kernel_hist: dict[str, int] = {}
    for r in reports:
        key = str(r.kernel_dim)
        kernel_hist[key] = kernel_hist.get(key, 0) + 1
    passed = not rank_failures and not monic_failures
    return passed, {
        "forms": len(reports),
        "kernel_dims": dict(sorted(kernel_hist.items())),
        "rank_failures": rank_failures,
        "monic_failures": monic_failures,
    }


def _run_rank_bab(ring: PolyRing, cell: dict):
    n = cell["n"]
    q = ring.ctx.q
    detail = {"levels": [], "rank_failures": []}
    passed = True
    for k in range((n - 1) // 2 + 1):
        if q ** (2 * k) > BAB_LEVEL_BUDGET:
            break
        out = quadform.scan_bab_ranks(ring, n, k)
        fails = [r.as_dict() for r in out["reports"] if r.rank < r.bound]
        detail["rank_failures"].extend(fails)
        detail["levels"].append({
            "k": k,
            "pairs_checked": out["pairs_checked"],
            "pairs_excluded": out["pairs_excluded"],
            "max_coincidence": max(c["size"] for c in out["coincidence_sets"]),
        })
        if fails:
            passed = False
    return passed, detail


def _run_vaughan(ring: PolyRing, cell: dict):
    n = cell["n"]
    q = ring.ctx.q
    vc = VaughanContext(ring, n)
    chi = CharSpec(ring.ctx, ring.ctx.scalar(1))
    # R over the q^n monics, evaluated once for the char-rs weight and both
    # sigma aggregates.
    rs = _rs_table(ring, n)
    char_rs = np.array(char_values(chi))[rs]
    weights = [("unit", np.ones(q**n, dtype=complex)), ("char-rs", char_rs)]
    # Each weight is a complex array once, not converted per (u, v); the
    # list of Python complex values it came from is not kept.
    weights += [(f"random-{j}", np.array(random_weight_values(
        ring, n, cell["seed"] * 1000 + j), dtype=complex))
        for j in range(cell["weights"])]
    worst_residual = 0.0
    unit_error = 0.0
    combos = 0
    failures = []
    results = vc.decompose_all([values for _, values in weights])
    for (u, v), reports in results.items():
        if isinstance(reports, ExactIdentityError):
            failures += [{"u": u, "v": v, "weight": name, "error": str(reports)}
                         for name, _ in weights]
            continue
        for (name, _), rep in zip(weights, reports):
            worst_residual = max(worst_residual, rep.residual)
            if name == "unit":
                total = rep.s1 - rep.s2 + rep.s3
                unit_error = max(unit_error, abs(total - q**n))
            combos += 1
    du, dv = default_cutoffs(n)
    char_rs_report = None
    if not isinstance(results[du, dv], ExactIdentityError):
        char_rs_report = results[du, dv][1].as_dict()   # the char-rs weight
        for name, fn in (("sigma1", sigma1), ("sigma2", sigma2)):
            try:
                s = fn(ring, n, du, dv, chi, rs=rs)
            except ExactIdentityError as err:
                failures.append({"sigma": name, "error": str(err)})
                continue
            char_rs_report |= {name: s["value"],
                               name + "_exact": s["value_exact"],
                               name + "_bound": s["bound"]}
    # Sum of Lambda_n = q^n fixes the unit weight, the identity being exact.
    passed = not failures and int(vc.lambdas.sum()) == q**n
    return passed, {
        "combos": combos,
        "worst_residual": worst_residual,
        "unit_weight_error": unit_error,
        "failures": failures,
        "default_cutoffs": [du, dv],
        "char_rs_report": char_rs_report,
    }


def _run_dist(ring: PolyRing, cell: dict):
    try:
        table = distribution(ring, cell["n"])
    except ExactIdentityError as err:
        return False, {"error": str(err)}
    return True, table.as_dict()


@dataclass(frozen=True)
class Check:
    """One check of the verify schedule: its runner and degree range.

    The check runs n = first .. min(limit(q), n_max).  limit(q) is the
    largest n >= 1 with n <= top and work(q, n) <= budget; a row without
    a top or a work function is not bounded by it.  n = 1 is kept even
    when work(q, 1) exceeds the budget.
    """

    run: Callable
    first: int
    work: Callable[[int, int], int] | None = None
    budget: int | None = None
    top: int | None = None

    def limit(self, q: int) -> int:
        n = 1
        while ((self.top is None or n < self.top)
               and (self.work is None or self.work(q, n + 1) <= self.budget)):
            n += 1
        return n


def _q_n(q: int, n: int) -> int:
    return q**n


def _q_2n2(q: int, n: int) -> int:
    return q ** (2 * (n + 1))


# What `verify all` covers, one row per check, in the order build_cells
# schedules them.
CHECKS = {
    #                    runner          first  work    budget      top
    "star":       Check(_run_star,       0,     _q_n,   20000,      5),
    "lin-red":    Check(_run_lin_red,    2,     _q_n,   1000,       6),
    "tau":        Check(_run_tau,        1,     _q_n,   4000,       5),
    "tau-moment": Check(_run_tau_moment, 1,     _q_n,   1000,       6),
    "gauss":      Check(_run_gauss,      2,     _q_2n2, 25_000_000, None),
    "rank-qa":    Check(_run_rank_qa,    2,     None,   None,       8),
    "rank-bab":   Check(_run_rank_bab,   2,     None,   None,       7),
    "vaughan":    Check(_run_vaughan,    4,     _q_n,   1000,       6),
    "dist":       Check(_run_dist,       2,     _q_n,   2400,       7),
}

# The rank-bab cell scans the levels k with q^(2k) <= BAB_LEVEL_BUDGET.
BAB_LEVEL_BUDGET = 8000

# The selectors: every check but dist, which runs only under "all".
CHECK_CHOICES = (*(name for name in CHECKS if name != "dist"), "all")


def build_cells(cfg: RunConfig, checks) -> list:
    """Expand a selector set into concrete (check, n) cells."""
    q = cfg.p**cfg.e
    base = {
        "p": cfg.p, "e": cfg.e,
        "modulus": list(cfg.modulus) if cfg.modulus else None,
        "cap": cfg.cap, "seed": cfg.seed, "weights": cfg.weights,
    }
    cells = []
    for name, check in CHECKS.items():
        if name in checks or "all" in checks:
            last = check.limit(q)
            if cfg.n_max is not None:
                last = min(last, cfg.n_max)
            cells += [dict(base, check=name, n=n)
                      for n in range(check.first, last + 1)]
    return cells


def run_cell(cell: dict) -> dict:
    modulus = tuple(cell["modulus"] or ()) or None
    ring = PolyRing(shared_ctx(cell["p"], cell["e"], modulus), cell["cap"])
    passed, detail = CHECKS[cell["check"]].run(ring, cell)
    return {
        "check": cell["check"],
        "q": ring.ctx.q,
        "n": cell["n"],
        "pass": passed,
        "detail": detail,
    }


def run_cells(cells: list, jobs: int = 1) -> list:
    if jobs > 1 and len(cells) > 1:
        # Imported here: concurrent.futures.process pulls in
        # multiprocessing and logging, which a serial run never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(cell) for cell in cells]
    results.sort(key=lambda r: (r["check"], r["n"]))
    return results


def verify_all(cfg: RunConfig, checks=("all",)) -> dict:
    for check in checks:
        if check not in CHECK_CHOICES:
            raise ConfigError(f"unknown check {check!r}")
    started = time.time()
    cells = build_cells(cfg, checks)
    ring = cfg.ring()
    for cell in cells:
        if cell["check"] == "star":
            _star_count(ring, cell)
    results = run_cells(cells, cfg.jobs)
    return {
        "config": cfg.public_dict(),
        "checks": sorted(set(checks)),
        "passed": all(r["pass"] for r in results),
        "cells": results,
        "meta": {"elapsed_seconds": time.time() - started},
    }
