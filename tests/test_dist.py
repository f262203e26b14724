import csv
import io
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from rsfq import (
    DegreeBoundError,
    ExactIdentityError,
    FieldCtx,
    PolyRing,
    PolySet,
    deviation_trend,
    distribution,
    rudin_shapiro,
)
import rsfq.dist
from rsfq.rudin import rs_values

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(q, n):
    path = os.path.join(GOLDEN_DIR, f"dist_q{q}_n{n}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_n2_hand_checkable(f3):
    """Three irreducible quadratics, one per statistic value."""
    table = distribution(f3, 2)
    assert table.counts == {"0": 1, "1": 1, "2": 1}
    assert table.total == 3
    assert table.expected == Fraction(1)


def test_n3_frozen(f3):
    table = distribution(f3, 3)
    assert table.total == 8
    assert table.counts == {"0": 4, "1": 2, "2": 2}
    assert table.max_abs_dev == Fraction(4, 3)


def test_matches_golden_tables(f3, f5):
    f7 = PolyRing(FieldCtx(7))
    for ring, n_max in ((f3, 7), (f5, 5), (f7, 4)):
        for n in range(2, n_max + 1):
            table = distribution(ring, n)
            golden = load_golden(ring.ctx.q, n)
            assert table.counts == golden["counts"]
            assert table.total == golden["total"]


def test_partition_invariant(f3, f5):
    for ring, n_values in ((f3, range(2, 7)), (f5, range(2, 5))):
        for n in n_values:
            table = distribution(ring, n)
            assert sum(table.counts.values()) == table.total
            assert set(table.counts) == {
                ring.ctx.element_str(x) for x in ring.ctx.elements()
            }


def test_degree_too_small(f3):
    with pytest.raises(DegreeBoundError):
        distribution(f3, 1)


def test_matches_trial_division(f3, f5, f9):
    """The sieve-backed tally equals R tallied over trial-division irreducibles."""
    f7 = PolyRing(FieldCtx(7))
    for ring, n_max in ((f3, 7), (f5, 5), (f7, 4), (f9, 3)):
        ctx = ring.ctx
        for n in range(2, n_max + 1):
            counts = {ctx.element_str(x): 0 for x in ctx.elements()}
            for f in ring.enumerate(PolySet.MONIC_IRREDUCIBLE, n):
                counts[ctx.element_str(rudin_shapiro(ring, f))] += 1
            table = distribution(ring, n)
            assert table.counts == counts, (ctx.q, n)
            assert table.total == sum(counts.values())


def test_counts_symmetric_under_negation(f3, f5, f9):
    """count(gamma) == count(-gamma): f(t) -> +-f(-t) preserves monic
    irreducibility and negates every adjacent product f_i f_(i-1)."""
    f7 = PolyRing(FieldCtx(7))
    for ring in (f3, f5, f7, f9):
        ctx = ring.ctx
        n = 2
        while ctx.q**n <= 10**5:
            counts = distribution(ring, n).counts
            for x in ctx.elements():
                neg = ctx.element_str(ctx.neg(x))
                assert counts[ctx.element_str(x)] == counts[neg], (ctx.q, n)
            n += 1


def test_corrupted_mask_raises(f3, dropped_irreducible):
    """One irreducible dropped from the sieve mask stays inside the
    prime-polynomial bracket but breaks the divisor-sum count."""
    with pytest.raises(ExactIdentityError, match="divisor-sum formula"):
        distribution(f3, 5)


def _swap_mask(monkeypatch, drop, add):
    """Make distribution's mask lose, for each value in drop, its first
    irreducible with that R and gain, for each value in add, its first
    reducible with that R: the total and both count checks are unchanged."""
    real_mask = rsfq.dist.composite_mask

    def swapped(ring, n):
        mask = real_mask(ring, n)
        rs = rs_values(ring, n, np.arange(ring.ctx.q**n))
        for value in drop:
            mask[np.flatnonzero(~mask & (rs == value))[0]] = True
        for value in add:
            mask[np.flatnonzero(mask & (rs == value))[0]] = False
        return mask

    monkeypatch.setattr(rsfq.dist, "composite_mask", swapped)


def test_negation_asymmetric_mask_raises(f3, monkeypatch):
    """An irreducible with R = 1 traded for a reducible with R = 0 keeps
    the total but not count(gamma) = count(-gamma)."""
    _swap_mask(monkeypatch, drop=[1], add=[0])
    with pytest.raises(ExactIdentityError, match="at -gamma = 2 for q=3, n=5"):
        distribution(f3, 5)


def test_frobenius_asymmetric_mask_raises(f9, monkeypatch):
    """Over F_9 = F_3(w), w^2 = -1 (element "a+b" is a + b w), trading
    irreducibles with R = 1 + w and its negative 2 + 2w for reducibles with
    R = 1 and 2 keeps the total and count(gamma) = count(-gamma), but
    (1 + w)^3 = 1 + 2w is neither 1 + w nor its negative, so
    count(gamma) = count(gamma^3) fails."""
    ctx = f9.ctx
    gamma = ctx.parse_element("1+1")
    assert ctx.element_str(ctx.power(gamma, 3)) == "1+2"
    _swap_mask(monkeypatch, drop=[gamma, ctx.neg(gamma)], add=[1, 2])
    with pytest.raises(ExactIdentityError,
                       match=r"at gamma = 1\+1 .* at gamma\^p = 1\+2 "):
        distribution(f9, 3)


def test_extension_field_table():
    ring = PolyRing(FieldCtx(3, 2))
    table = distribution(ring, 2)
    assert table.total == sum(table.counts.values())
    assert len(table.counts) == 9
    # P(2) over F_9 has (81 - 9) / 2 = 36 members
    assert table.total == 36


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip(f3):
    table = distribution(f3, 5)
    rows = list(csv.DictReader(io.StringIO(table.to_csv())))
    counts = {row["gamma"]: int(row["count"]) for row in rows}
    assert counts == table.counts
    assert sum(counts.values()) == table.total
    assert {row["expected"] for row in rows} == {str(table.expected)}


def test_csv_header_exact(f3):
    first_line = distribution(f3, 3).to_csv().splitlines()[0]
    assert first_line == "gamma,count,expected,deviation"


# ---------------------------------------------------------------------------
# trend
# ---------------------------------------------------------------------------

def test_trend_rows(f3):
    rows = deviation_trend(f3, 6)
    assert [row["n"] for row in rows] == [2, 3, 4, 5, 6]
    for row in rows:
        assert row["relative_dev"] >= 0
        golden = load_golden(3, row["n"])
        assert row["total"] == golden["total"]
