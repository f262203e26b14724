"""Per-layer micro-timings: seeded inputs fed to rsfq's public functions.

Each timing is the median of five batches, a batch being long enough
(>= 10 ms) that timer resolution does not matter, divided by the calls in
the batch.  Inputs come from ``random.Random(seed)`` only; ``SIZES`` states
what each timing runs on.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time

BATCHES = 5
TARGET_S = 0.01

SIZES = {
    "field": "all q*q pairs (nonzero elements for inv), seeded order",
    "poly.mul": "50 pairs of random degree-6 polynomials",
    "poly.divmod": "50 random degree-12 polynomials by random monic degree 4",
    "poly.is_irreducible": "50 random monic degree-9 polynomials",
    "arith.factor_all": "cold FactorTable, every monic of degree 7 at q=3",
    "rudin.autocorrelation": "50 random degree-4 polynomials, random lag, n=4",
    "rudin.rs": "50 random monic degree-9 polynomials",
    "quadform.rank.q3": "qa_matrix of 20 random monic a, deg a=2, n=8",
    "quadform.q9": "20 random monic a (and b), deg 2, n=5; rank on bab",
    "charsum.gauss_form.q5": "qa_matrix of 3 random monic a, deg 1, n=4",
    "charsum.gauss_form.q9": "qa_matrix of 2 random monic a, deg 1, n=3",
    "vaughan": "VaughanContext(q=3, n=5); decompose at default cutoffs, "
               "seeded random weights",
    "dist": "distribution at q=3, n=7",
    "sieve": "count_irreducibles_sieve at q=3, n=11 and q=9, n=5",
    "vecenum": "coeff_digits(3^12, 3, 13)",
}


def _batch(fn, args, reps: int) -> float:
    started = time.perf_counter()
    for _ in range(reps):
        for a in args:
            fn(*a)
    return time.perf_counter() - started


def per_call(fn, args) -> float:
    """Median seconds per call of fn(*a) for a in args."""
    reps = 1
    first = _batch(fn, args, reps)
    while first < TARGET_S:
        reps *= 2
        first = _batch(fn, args, reps)
    times = [first] + [_batch(fn, args, reps) for _ in range(BATCHES - 1)]
    return statistics.median(times) / (reps * len(args))


def _poly(rng, ring, deg: int, monic: bool):
    elements = ring.ctx.elements()
    coeffs = [rng.choice(elements) for _ in range(deg)]
    lead = ring.ctx.one() if monic else rng.choice(elements[1:])
    return ring.poly(coeffs + [lead])


def measure(rsfq, rings: dict, seed: int) -> dict:
    """name -> (value, unit) for every micro-timing."""
    rng = random.Random(seed)
    r3, r5, r9 = rings[(3, 1)], rings[(5, 1)], rings[(3, 2)]
    out = {}

    def pairs(ctx, nonzero=False):
        elems = ctx.elements()[1:] if nonzero else ctx.elements()
        ps = list(itertools.product(elems, repeat=2))
        rng.shuffle(ps)
        return ps

    c3, c9 = r3.ctx, r9.ctx
    out["field.mul_ns.q3"] = (per_call(c3.mul, pairs(c3)) * 1e9, "ns")
    out["field.mul_ns.q9"] = (per_call(c9.mul, pairs(c9)) * 1e9, "ns")
    out["field.add_ns.q9"] = (per_call(c9.add, pairs(c9)) * 1e9, "ns")
    inv_args = [(x,) for x, _ in pairs(c9, nonzero=True)]
    out["field.inv_ns.q9"] = (per_call(c9.inv, inv_args) * 1e9, "ns")

    for tag, ring in (("q3", r3), ("q9", r9)):
        args = [(_poly(rng, ring, 6, False), _poly(rng, ring, 6, False))
                for _ in range(50)]
        out[f"poly.mul_us.{tag}"] = (per_call(ring.mul, args) * 1e6, "us")
        args = [(_poly(rng, ring, 12, False), _poly(rng, ring, 4, True))
                for _ in range(50)]
        out[f"poly.divmod_us.{tag}"] = (per_call(ring.divmod, args) * 1e6, "us")
    args = [(_poly(rng, r3, 9, True),) for _ in range(50)]
    out["poly.is_irreducible_us.q3"] = (
        per_call(r3.is_irreducible, args) * 1e6, "us")

    monics7 = list(r3.enumerate(rsfq.PolySet.MONIC, 7))

    def factor_all():
        table = rsfq.FactorTable(r3)
        for f in monics7:
            table.factor(f)

    out["arith.factor_all_s"] = (per_call(factor_all, [()]), "s")

    args = [(r9, _poly(rng, r9, 4, False), rng.randrange(5), 4)
            for _ in range(50)]
    out["rudin.autocorrelation_us.q9"] = (
        per_call(rsfq.autocorrelation, args) * 1e6, "us")
    args = [(r3, _poly(rng, r3, 9, True)) for _ in range(50)]
    out["rudin.rs_us.q3"] = (per_call(rsfq.rudin_shapiro, args) * 1e6, "us")

    mats = [(rsfq.qa_matrix(r3, _poly(rng, r3, 2, True), 8),)
            for _ in range(20)]
    out["quadform.rank_us.q3"] = (per_call(rsfq.matrix_rank, mats) * 1e6, "us")
    qa_args = [(r9, _poly(rng, r9, 2, True), 5) for _ in range(20)]
    bab_args = []
    while len(bab_args) < 20:
        a, b = _poly(rng, r9, 2, True), _poly(rng, r9, 2, True)
        if a != b:
            bab_args.append((r9, a, b, 5))
    mats = [(rsfq.bab_matrix(*a),) for a in bab_args]
    out["quadform.rank_us.q9"] = (per_call(rsfq.matrix_rank, mats) * 1e6, "us")
    out["quadform.qa_matrix_us.q9"] = (
        per_call(rsfq.qa_matrix, qa_args) * 1e6, "us")
    out["quadform.bab_matrix_us.q9"] = (
        per_call(rsfq.bab_matrix, bab_args) * 1e6, "us")

    mats = [(rsfq.qa_matrix(r5, _poly(rng, r5, 1, True), 4),) for _ in range(3)]
    out["charsum.gauss_form_ms.q5"] = (
        per_call(rsfq.max_gauss_magnitude, mats) * 1e3, "ms")
    mats = [(rsfq.qa_matrix(r9, _poly(rng, r9, 1, True), 3),) for _ in range(2)]
    out["charsum.gauss_form_ms.q9"] = (
        per_call(rsfq.max_gauss_magnitude, mats) * 1e3, "ms")

    out["vaughan.context_s"] = (
        per_call(rsfq.VaughanContext, [(r3, 5)]), "s")
    vc = rsfq.VaughanContext(r3, 5)
    u, v = rsfq.default_cutoffs(5)
    weights = rsfq.random_weight_values(r3, 5, rng.randrange(1 << 30))
    out["vaughan.decompose_ms"] = (
        per_call(vc.decompose, [(u, v, weights)]) * 1e3, "ms")

    out["dist.us_per_monic"] = (
        per_call(rsfq.distribution, [(r3, 7)]) / 3**7 * 1e6, "us")
    out["sieve.ns_per_monic.q3"] = (
        per_call(rsfq.count_irreducibles_sieve, [(r3, 11)]) / 3**11 * 1e9, "ns")
    out["sieve.ns_per_monic.q9"] = (
        per_call(rsfq.count_irreducibles_sieve, [(r9, 5)]) / 9**5 * 1e9, "ns")
    out["vecenum.coeff_digits_ms"] = (
        per_call(rsfq.vecenum.coeff_digits, [(3**12, 3, 13)]) * 1e3, "ms")
    return out
