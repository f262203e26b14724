"""Exhaustive irreducible counting up to q^n ~ 10^7.

The composite-marking sieve enumerates every reducible monic polynomial as
an explicit product, so agreement with the divisibility-formula count and
the prime-polynomial bracket is checked over the full desk-scale range.
"""

from rsfq import (
    FieldCtx,
    PolyRing,
    PolySet,
    count_irreducibles_sieve,
    distribution,
    irreducible_count_formula,
    pnt_bracket_exact,
)

LIMIT = 10**7


def test_sieve_matches_enumeration_small(f3, f5, f9):
    for ring, n_max in ((f3, 7), (f5, 5), (f9, 3)):
        for n in range(1, n_max + 1):
            direct = len(list(ring.enumerate(PolySet.MONIC_IRREDUCIBLE, n)))
            assert count_irreducibles_sieve(ring, n) == direct


def test_sieve_formula_and_bracket_full_range():
    """All (q, n) with q^n <= 10^7 for q in {3, 5, 7, 9}."""
    for p, e in ((3, 1), (5, 1), (7, 1), (3, 2)):
        ring = PolyRing(FieldCtx(p, e))
        q = ring.ctx.q
        n = 2
        while q**n <= LIMIT:
            count = count_irreducibles_sieve(ring, n)
            assert count == irreducible_count_formula(q, n), (q, n)
            assert pnt_bracket_exact(q, n, count), (q, n, count)
            # upper edge is strict integer arithmetic too
            assert n * count <= q**n
            n += 1


def test_sieve_large_q_no_overflow():
    """Digit, product and index-table dtypes are sized from q; q >= 128 once
    wrapped int8/int16 values (q=131) or raised OverflowError (q=169, 243)."""
    for p, e in ((131, 1), (13, 2), (3, 5)):
        ring = PolyRing(FieldCtx(p, e))
        q = ring.ctx.q
        assert count_irreducibles_sieve(ring, 2) == irreducible_count_formula(q, 2), q


def test_distribution_large_q_no_overflow():
    table = distribution(PolyRing(FieldCtx(131)), 2)
    assert table.total == irreducible_count_formula(131, 2)


def test_bracket_rejects_bad_counts():
    assert not pnt_bracket_exact(3, 5, 100)    # too big: 5*100 > 243
    assert not pnt_bracket_exact(3, 5, 30)     # too small
    assert pnt_bracket_exact(3, 5, 48)
