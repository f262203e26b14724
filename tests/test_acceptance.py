"""Acceptance suite: one test per headline criterion, one printed line each.

Run with `pytest -s -v tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines.  Criterion 4a asserts the provable multiplier-form rank
bounds rank >= n-2k and monic-slice rank >= n-2k-1 (the banded-Toeplitz
kernel bound), checks that both are attained in the scanned range, and
keeps the refutation of the stated n-k-1 / n-k-2 bounds on record through
its smallest counterexamples.
"""

import json
import os
import re
import subprocess
import sys
import time

from rsfq import (
    CharSpec,
    FieldCtx,
    PolyRing,
    PolySet,
    VaughanContext,
    autocorrelation,
    character_rs_weight,
    check_tau_bound,
    check_tau_second_moment,
    count_reversal_solutions,
    distribution,
    pnt_bracket_exact,
    random_weight_values,
    reversal_product_correlations,
    rudin_shapiro,
    scan_bab_ranks,
    scan_gauss_bound,
    scan_qa_ranks,
    scan_reversal_counts,
    unit_weight,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_star_coefficient_identity():
    """Product-coefficient identity, exhaustive over F_3 and F_5, n <= 5."""
    started = time.time()
    failures = []
    for p in (3, 5):
        ring = PolyRing(FieldCtx(p))
        for n in range(0, 6):
            for a in ring.enumerate(PolySet.DEGREE_AT_MOST, n):
                corr = reversal_product_correlations(ring, a, n)
                for lag in range(n + 1):
                    if corr[lag] != autocorrelation(ring, a, lag, n):
                        failures.append((p, n, ring.to_str(a), lag))
    elapsed = time.time() - started
    ok = not failures and elapsed <= 10.0
    report(1, "star coefficient identity", ok)
    assert not failures, failures[:10]
    assert elapsed <= 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_linear_reduction():
    """R = lag-1 autocorrelation minus second-highest coefficient, F_3."""
    ring = PolyRing(FieldCtx(3))
    ctx = ring.ctx
    failures = []
    for n in range(2, 7):
        for f in ring.enumerate(PolySet.MONIC, n):
            want = ctx.sub(autocorrelation(ring, f, 1, n), ring.coeff(f, n - 1))
            if rudin_shapiro(ring, f) != want:
                failures.append((n, ring.to_str(f)))
    report(2, "linear reduction", not failures)
    assert not failures, failures[:10]


def test_criterion_3_gauss_bound_scan():
    """|sum psi(Q_a + L)|^2 is 0 or q^(2 dim - rank), decided in integers,
    for q=3, n <= 6, every monic a with deg a < n/2, every linear part,
    every character."""
    started = time.time()
    ring = PolyRing(FieldCtx(3))
    failures = []
    forms = 0
    for n in range(2, 7):
        for rep in scan_gauss_bound(ring, n):
            forms += 1
            if not rep["pass"]:
                failures.append(rep)
    elapsed = time.time() - started
    ok = not failures and elapsed <= 300.0
    report(3, f"gauss bound scan ({forms} forms)", ok)
    assert not failures, failures[:5]
    assert elapsed <= 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_criterion_4a_multiplier_rank_lemma():
    """Rank >= n-2k and monic-slice rank >= n-2k-1, exhaustive for q in
    {3,5}, n <= 8, every monic a of degree k < n/2; both bounds attained.

    The form is the banded symmetric Toeplitz matrix T_m(w), m = n-k+1,
    with P = t^(k+1) w = a a* (t^2+1)/2 of degree >= k+2.  A kernel vector h
    is fixed by the top k+1 coefficients of P h, so the kernel has
    dimension <= k+1; the monic slice is T_(m-1)(w) and the same argument
    applies.  The stated bounds n-k-1 and n-k-2 are refuted, and their
    smallest counterexamples stay asserted here."""
    rank_failures = []
    monic_failures = []
    rank_slack = []
    monic_slack = []
    reports = {}
    for p in (3, 5):
        ring = PolyRing(FieldCtx(p))
        for n in range(2, 9):
            for rep in scan_qa_ranks(ring, n):
                reports[(p, n, rep.a)] = rep
                bound = n - 2 * rep.k
                rank_slack.append(rep.rank - bound)
                monic_slack.append(rep.monic_rank - (bound - 1))
                if rep.rank < bound:
                    rank_failures.append((p, n, rep.k, rep.a, rep.rank, bound))
                if rep.monic_rank < bound - 1:
                    monic_failures.append(
                        (p, n, rep.k, rep.a, rep.monic_rank, bound - 1))
    ok = not rank_failures and not monic_failures
    report(4, f"multiplier-form rank lemma (qa, {len(reports)} forms)", ok)
    assert ok, (
        "rank bound n-2k fails at (q, n, k, a, rank, bound): "
        f"{rank_failures}; monic-slice bound n-2k-1 fails at "
        f"(q, n, k, a, monic_rank, needed): {monic_failures}"
    )
    # tight: raising either bound by one would fail somewhere in range
    assert min(rank_slack) == 0 and min(monic_slack) == 0
    # the stated bounds are refuted: q=3, n=6, a = t^2+t+2 has rank 2 < 3,
    # and q=3, n=5, a = t^2+1 has a zero monic slice, below n-k-2 = 1
    bad = reports[(3, 6, "2,1,1")]
    assert bad.rank == 2 and bad.bound == 6 - 2 - 1 and not bad.passed
    bad_slice = reports[(3, 5, "1,0,1")]
    assert bad_slice.monic_rank == 0 and bad_slice.bound - 1 == 5 - 2 - 2


def test_criterion_4b_difference_rank_lemma():
    """Rank >= n-2k-1 whenever the reversal products differ; q=3, n <= 7."""
    ring = PolyRing(FieldCtx(3))
    failures = []
    pairs = 0
    for n in range(2, 8):
        for k in range((n - 1) // 2 + 1):
            out = scan_bab_ranks(ring, n, k)
            pairs += out["pairs_checked"]
            failures.extend(
                r.as_dict() for r in out["reports"] if r.rank < r.bound
            )
    report(4, f"difference-form rank lemma (bab, {pairs} pairs)", not failures)
    assert not failures, failures[:5]


def test_criterion_5_decomposition_identity():
    """Exact identity for q=3, n in 4..6, all valid cutoffs, unit weight +
    20 seeded random weights + the character weight; unit totals hit q^n."""
    ring = PolyRing(FieldCtx(3))
    chi = CharSpec(ring.ctx, 1)
    worst = 0.0
    combos = 0
    for n in (4, 5, 6):
        vc = VaughanContext(ring, n)
        tables = [vc.tabulate(unit_weight),
                  vc.tabulate(character_rs_weight(ring, chi))]
        tables += [random_weight_values(ring, n, 1000 + j) for j in range(20)]
        for u in range(1, n):
            for v in range(1, n - u):
                for values in tables:
                    rep = vc.decompose(u, v, values)
                    assert rep.residual < 1e-9 * (1 + abs(rep.lhs))
                    worst = max(worst, rep.residual)
                    combos += 1
                unit_rep = vc.decompose(u, v, tables[0])
                total = unit_rep.s1 - unit_rep.s2 + unit_rep.s3
                assert abs(total - 3**n) < 1e-9
    report(5, f"decomposition identity ({combos} combos, "
              f"worst residual {worst:.1e})", True)


def test_criterion_6_divisor_bounds():
    """tau <= 2^deg for deg <= 5 over F_3 and F_5; second moments within
    4 n^3 q^n for q=3 n <= 6 and q=5 n <= 4; exact integers throughout."""
    ok = True
    for p in (3, 5):
        ring = PolyRing(FieldCtx(p))
        assert len(ring.one) == 1   # tau(1) = 1 <= 2^0 trivially
        for n in range(1, 6):
            rep = check_tau_bound(ring, n)
            ok = ok and rep["pass"]
            assert rep["pass"], rep
    for p, n_max in ((3, 6), (5, 4)):
        ring = PolyRing(FieldCtx(p))
        for n in range(1, n_max + 1):
            rep = check_tau_second_moment(ring, n)
            ok = ok and rep["pass"]
            assert rep["pass"], rep
    report(6, "divisor bounds", ok)


def test_criterion_7_distribution_tables():
    """Golden-table equality, exact partition and the bracket, q=3 n=2..7."""
    started = time.time()
    ring = PolyRing(FieldCtx(3))
    for n in range(2, 8):
        table = distribution(ring, n)
        with open(os.path.join(GOLDEN_DIR, f"dist_q3_n{n}.json"),
                  encoding="utf-8") as fh:
            golden = json.load(fh)
        assert table.counts == golden["counts"], n
        assert table.total == golden["total"], n
        assert sum(table.counts.values()) == table.total
        assert pnt_bracket_exact(3, n, table.total)
        if n == 2:
            assert table.counts == {"0": 1, "1": 1, "2": 1}
    elapsed = time.time() - started
    report(7, "distribution golden tables", elapsed <= 120.0)
    assert elapsed <= 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_8_reversal_equation_scan():
    """Exhaustive solution counts at n = 1, 2 over F_3 stay within
    2^n * 2, and the hand case has exactly two solutions."""
    ring = PolyRing(FieldCtx(3))
    for n in (1, 2):
        scan = scan_reversal_counts(ring, n)
        assert scan["observed"] <= 2**n * 2, scan
        for f in ring.enumerate(PolySet.DEGREE_EXACT, 2 * n):
            rep = count_reversal_solutions(ring, f, n)
            assert rep["observed"] <= 2**n * 2, rep
            assert rep["pass"], rep
    hand = count_reversal_solutions(ring, ring.from_ints([0, 1]), 1)
    assert hand["observed"] == 2
    report(8, "reversal-equation counts", True)


def test_criterion_9_determinism_across_jobs():
    """verify all with --jobs 1 and --jobs 8 emits byte-identical JSON
    apart from the timing field."""
    def run(jobs):
        return subprocess.run(
            [sys.executable, "-m", "rsfq", "verify", "all", "--jobs", jobs],
            capture_output=True, text=True,
        )

    one = run("1")
    eight = run("8")
    assert one.returncode == eight.returncode
    assert one.returncode in (0, 1)
    pattern = re.compile(r'"elapsed_seconds": [0-9.eE+-]+')
    stripped_one = pattern.sub('"elapsed_seconds": _', one.stdout)
    stripped_eight = pattern.sub('"elapsed_seconds": _', eight.stdout)
    ok = stripped_one == stripped_eight and len(stripped_one) > 1000
    report(9, "determinism across jobs", ok)
    assert ok
