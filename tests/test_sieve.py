"""Exhaustive irreducible counting up to q^n ~ 10^7.

The composite-marking sieve enumerates every reducible monic polynomial as
an explicit product, so agreement with the divisibility-formula count and
the prime-polynomial bracket is checked over the full desk-scale range.
"""

import json
import random

import numpy as np
import pytest

from rsfq import (
    FieldCtx,
    PolyRing,
    PolySet,
    count_irreducibles_sieve,
    distribution,
    irreducible_count_formula,
    pnt_bracket_exact,
)
from rsfq import CharSpec, arith, field, qa_matrix, sieve
from rsfq.arith import Dirichlet
from rsfq.charsum import gauss_counts
from rsfq.errors import EnumerationCapError
from rsfq.rudin import rs_values
from rsfq.sieve import TABLE_BYTES, DigitAdd, composite_mask, product_indices
from rsfq.vaughan import sigma2
from rsfq.vecenum import digit_add_table, digits, index_tables, wide_places
from rsfq.verify import RunConfig, verify_all

LIMIT = 10**7


@pytest.fixture
def fresh_factor_bases():
    """An empty factor-base cache, emptied again after the test, so that
    maps built under patched module constants reach no other test."""
    cached = sieve._factor_base
    cached.cache_clear()
    yield
    cached.cache_clear()


@pytest.mark.parametrize("block, count, cost, align", [
    (sieve.BLOCK, 3**12, 1, 1),      # R over the monics at q = 3, n = 12
    (sieve.BLOCK, 3**13, 38, 3),     # the star cell at q = 3, n = 12
    (100, 1000, 7, 1),
    (100, 1000, 7, 3),               # 14 indices, cut to 9
    (100, 999, 1, 9),                # 100 indices, cut to 81
    (100, 50, 3, 5),                 # 33 indices, cut to 25; the last is short
    (100, 7, 1, 200),                # no power of align above 1 fits
    (100, 0, 1, 3),
    (100, 17, 101, 3),               # cost > BLOCK
    (100, 5, 100, 1),
])
def test_blocks_cut_the_range_in_order(monkeypatch, block, count, cost,
                                       align):
    """sieve.blocks covers [0, count) in order without gaps, each range
    holding at most max(1, BLOCK // cost) indices, and with align = q
    every full block is a multiple of the largest power of q that fits."""
    monkeypatch.setattr(sieve, "BLOCK", block)
    ranges = list(sieve.blocks(count, cost, align))
    edges = [0] + [stop for _, stop in ranges]
    assert ranges == list(zip(edges, edges[1:])) and edges[-1] == count
    per = max(1, block // cost)
    power = max(align**j for j in range(per.bit_length() + 1)
                if align**j <= per) if align > 1 else 1
    sizes = {stop - start for start, stop in ranges[:-1]}
    assert len(sizes) <= 1
    for size in sizes:
        assert size % power == 0 and per - power < size <= per
    assert all(0 < stop - start <= per for start, stop in ranges)


def test_blocks_at_the_edges():
    """Nothing for an empty range, blocks of 1 when one index costs more
    than BLOCK, and three blocks for R over the 3^12 monics."""
    assert list(sieve.blocks(0)) == []
    assert list(sieve.blocks(3, sieve.BLOCK + 1, 3)) == [(0, 1), (1, 2), (2, 3)]
    assert list(sieve.blocks(3**12)) == [(0, 2**18), (2**18, 2**19),
                                         (2**19, 3**12)]


@pytest.mark.parametrize("p, e, n_max", [(3, 1, 5), (5, 1, 4), (3, 2, 3)])
def test_verify_payload_is_the_same_in_small_blocks(monkeypatch,
                                                    fresh_factor_bases, p, e,
                                                    n_max):
    """With sieve.BLOCK shrunk to 64 and to 7, every scan that sieve.blocks
    cuts crosses block edges (form_ranks, the Gauss batches, R over the
    monics, star and lin-red, and the sieve's gathers and compare slabs),
    and the verify_all payload, meta dropped, is byte-identical to the
    default's.  The degree tables and the factor bases are
    emptied before each run, so that every run walks the sieve's blocks."""
    cfg = RunConfig(p=p, e=e, n_max=n_max)

    def payload():
        for cached in (arith._degree_table, sieve._factor_base):
            cached.cache_clear()
        report = verify_all(cfg)
        del report["meta"]
        return json.dumps(report)

    want = payload()
    for block in (64, 7):
        monkeypatch.setattr(sieve, "BLOCK", block)
        assert payload() == want, block


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


def test_mask_matches_trial_division():
    """The mask's irreducibles are those of PolySet.MONIC_IRREDUCIBLE for
    e = 1..5.  Where the full enumeration takes too long (q = 81 and 243,
    and q = 9 at n = 4, the smallest extension-field case with degree-2
    factor candidates)
    a seeded sample of monics is trial-divided instead."""
    for p, e, n_max in ((3, 1, 6), (5, 1, 4), (3, 2, 3), (5, 2, 2), (3, 3, 2)):
        ring = PolyRing(FieldCtx(p, e))
        q = ring.ctx.q
        for n in range(1, n_max + 1):
            want = {ring.index_of(f) - q**n
                    for f in ring.enumerate(PolySet.MONIC_IRREDUCIBLE, n)}
            got = np.flatnonzero(~composite_mask(ring, n))
            assert set(got.tolist()) == want, (q, n)
    rng = random.Random(20261018)
    for p, e, n in ((3, 4, 2), (3, 5, 2), (3, 2, 4)):
        ring = PolyRing(FieldCtx(p, e))
        q = ring.ctx.q
        mask = composite_mask(ring, n)
        for idx in rng.sample(range(q**n), 120):
            f = next(ring.monic_range(n, idx, idx + 1))
            assert mask[idx] == (not ring.is_irreducible(f)), (q, n, idx)


def test_mask_matches_sympy():
    """Prime fields against sympy's irreducibility test, every monic up to
    5^5 of them and a seeded sample of 1500 above that."""
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def irreducible(idx, p, n):
        coeffs = []
        for _ in range(n):
            idx, c = divmod(idx, p)
            coeffs.append(c)
        return galoistools.gf_irreducible_p([1, *reversed(coeffs)], p, ZZ)

    rng = random.Random(3)
    for p in (3, 5, 7):
        ring = PolyRing(FieldCtx(p))
        for n in range(1, 7):
            mask = composite_mask(ring, n)
            indices = range(p**n)
            if p**n > 5**5:
                indices = rng.sample(indices, 1500)
            for idx in indices:
                assert mask[idx] == (not irreducible(idx, p, n)), (p, n, idx)


def _digit_add_reference(x, y, p, width):
    out, place = 0, 1
    for _ in range(width):
        out += (x // place % p + y // place % p) % p * place
        place *= p
    return out


def test_digit_add_bounded_and_exact():
    """Chunked carry-free addition keeps its table within TABLE_BYTES (the
    15-digit window at p=3 takes two 8-digit chunks, 5^8 int16 entries; one
    chunk would need 5^15) and falls back to plain digit arithmetic when
    not even 2p - 1 entries fit.  Summands are in the wide encoding, their
    base-p digits at base 2p - 1 place values."""
    rng = np.random.default_rng(11)
    for p, width, s in ((3, 15, 8), (3, 12, 6), (3, 8, 8), (4093, 2, 1),
                        (5, 3, 3), (1031, 2, 1), (1000003, 2, 0)):
        digit_add = DigitAdd(p, width)
        assert digit_add.s == s
        if s:
            assert digit_add.table.shape == ((2 * p - 1) ** s,)
            assert digit_add.table.nbytes <= TABLE_BYTES
        else:
            assert digit_add.table is None
        x = rng.integers(0, p**width, 40)
        y = rng.integers(0, p**width, 50)
        wide = wide_places(p, width)
        got = digit_add((digits(x, p, width) @ wide)[:, None],
                        (digits(y, p, width) @ wide)[None, :], width)
        assert got.shape == (40, 50)
        want = [[_digit_add_reference(int(a), int(b), p, width) for b in y]
                for a in x]
        assert got.tolist() == want, (p, width)


@pytest.mark.parametrize("p, e, n, d, sample", [
    (3, 1, 2, 1, None),     # a = 0: no low half, the window is g's digits
    (5, 1, 2, 1, None),
    (3, 1, 7, 3, None),     # digits outside the window on both sides
    (3, 1, 9, 2, None),
    (3, 2, 4, 1, None),     # e = 2, odd m: the split is inside a coefficient
    (3, 2, 5, 2, None),
    (3, 3, 3, 1, None),     # e = 3
    (3, 3, 2, 1, None),
    (5, 2, 3, 1, None),
    (1031, 1, 2, 1, 3),     # p^2 entries overflow the table: s = 0
    (4093, 1, 3, 1, 2),     # p^3 > 2^31: int64 indices, first blocks only
    (4093, 1, 3, 2, 2),
])
def test_product_indices_match_polynomial_products(p, e, n, d, sample):
    """Every index product_indices yields is that of ring.mul(g, h), read
    off its coefficients with no digit arithmetic, and each (g, h) is
    yielded once.  sample limits a case to its first blocks and checks a
    sample of their entries."""
    ring = PolyRing(FieldCtx(p, e))
    q, m = ring.ctx.q, n - d
    rng = np.random.default_rng(p + e + n + d)
    factors = np.arange(q**d) if sample is None else rng.choice(q**d, 3)
    dtype = np.int32 if p ** (n * e) < 2**31 else np.int64
    seen = np.zeros((len(factors), q**m), dtype=np.int64)
    blocks = product_indices(factors, d, m, p, ring.ctx.basis)
    for _, (gs, hs, idx) in zip(range(sample or len(seen) * q**m), blocks):
        assert idx.dtype == dtype
        assert idx.shape == (gs.stop - gs.start, hs.stop - hs.start)
        cells = np.argwhere(np.ones(idx.shape, dtype=bool))
        if sample:
            cells = cells[rng.choice(len(cells), 300)]
        for i, j in cells.tolist():
            k = gs.start + i
            h_idx = hs.start + j
            seen[k, h_idx] += 1
            g = next(ring.monic_range(d, int(factors[k]), int(factors[k]) + 1))
            h = next(ring.monic_range(m, h_idx, h_idx + 1))
            want = ring.index_of(ring.mul(g, h)[:-1])    # drop the leading 1
            assert idx[i, j] == want, (k, h_idx)
    if sample is None:
        assert (seen == 1).all()


@pytest.mark.parametrize("p, e, n, join_max, block", [
    (3, 1, 2, 27, None),     # n = 2 and 3: degree 1 only, g = t included
    (3, 1, 3, 27, None),
    (3, 1, 7, 27, None),     # q = 3 up to d = 3, the default crossover
    (3, 1, 8, 81, None),     # d = 4 joined, past the crossover
    (3, 1, 12, 27, None),    # 729 high halves in slabs of 25 rows
    (3, 1, 7, 27, 1000),     # slabs of 2 rows over 81 high halves
    (5, 1, 5, 27, None),     # q = 5 at d = 2
    (5, 1, 6, 125, 5000),    # d = 3 joined, past the crossover
    (3, 2, 4, 27, None),     # e = 2: q = 9 at d = 1, d = 2 marked
    (3, 2, 5, 81, None),     # e = 2, d = 2 joined
    (3, 3, 2, 27, None),     # e = 3: q = 27 at d = 1
    (3, 3, 3, 27, None),
])
def test_residue_join_matches_marking(monkeypatch, fresh_factor_bases, p, e,
                                     n, join_max, block):
    """The mask that joins every degree d with q^d <= join_max equals the
    mask marked by product_indices alone, with the multiples of t (index
    0 mod q) marked; block, when given, shrinks the compare slabs so that
    the last one is partial.  Each route starts from an empty factor-base
    cache, so neither reads the other's sub-degree masks or join maps."""
    ring = PolyRing(FieldCtx(p, e))
    monkeypatch.setattr(sieve, "JOIN_MAX", 0)
    marked = composite_mask(ring, n)
    monkeypatch.setattr(sieve, "JOIN_MAX", join_max)
    if block:
        monkeypatch.setattr(sieve, "BLOCK", block)
    sieve._factor_base.cache_clear()
    joined = composite_mask(ring, n)
    assert (joined == marked).all()
    assert joined[::ring.ctx.q].all()
    q = ring.ctx.q
    assert q**n - np.count_nonzero(joined) == irreducible_count_formula(q, n)


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (3, 2), (5, 2)])
def test_factor_bases_match_trial_division(fresh_factor_bases, p, e):
    """Every factor base with q^d <= 729 lists the monic irreducibles of
    degree d that PolyRing.is_irreducible finds, and row r of each join
    map at t^k holds the digits of w^r t^k mod g, g divided out by
    PolyRing.mod, for every k up to the top degree SIEVE_CAP admits."""
    ring = PolyRing(FieldCtx(p, e))
    q = ring.ctx.q
    d = 1
    while q**d <= 729:
        factors, maps = sieve._factor_base(p, e, ring.ctx.basis.tobytes(), d)
        want = [i for i, f in enumerate(ring.monic_range(d, 0, q**d))
                if ring.is_irreducible(f)]
        assert factors.tolist() == want, (q, d)
        assert (maps is None) == (q**d > sieve.JOIN_MAX)
        if maps is not None:
            top = maps.shape[1] - 1
            assert q**top <= sieve.SIEVE_CAP < q ** (top + 1)
            for g_idx, g_maps in zip(factors.tolist(), maps):
                g = next(ring.monic_range(d, g_idx, g_idx + 1))
                want = [[ring.index_of(ring.mod((0,) * k + (p**r,), g))
                         for r in range(e)] for k in range(top + 1)]
                assert (g_maps == digits(want, p, d * e)).all(), (q, d, g)
        d += 1


@pytest.mark.parametrize("p, e, n", [(3, 1, 2), (3, 1, 7), (3, 1, 8),
                                     (3, 2, 4), (5, 1, 5)])
def test_the_top_degree_is_never_cached(monkeypatch, fresh_factor_bases,
                                        p, e, n):
    """distribution(ring, n) reads the factor bases of d <= n/2 and keeps
    nothing of degree n: the top mask is marked anew in every call."""
    ring = PolyRing(FieldCtx(p, e))
    cached, asked = sieve._factor_base, set()

    def recorded(*key):
        asked.add(key[-1])
        return cached(*key)

    monkeypatch.setattr(sieve, "_factor_base", recorded)
    first = distribution(ring, n)
    assert asked == set(range(1, n // 2 + 1))
    assert cached.cache_info().currsize == n // 2
    masks = composite_mask(ring, n), composite_mask(ring, n)
    assert masks[0] is not masks[1] and masks[0].flags.writeable
    assert distribution(ring, n) == first
    assert cached.cache_info().currsize == n // 2


def test_join_maps_never_come_up_short(monkeypatch, fresh_factor_bases, f3):
    """A join needs the maps of t^k up to k = n.  Maps built under a smaller
    SIEVE_CAP, or none built under a smaller JOIN_MAX, raise rather than
    mark with a short slice."""
    monkeypatch.setattr(sieve, "SIEVE_CAP", 3**4)
    composite_mask(f3, 4)
    monkeypatch.setattr(sieve, "SIEVE_CAP", 3**6)
    with pytest.raises(EnumerationCapError, match=r"degree-1 .* t\^6"):
        composite_mask(f3, 6)
    sieve._factor_base.cache_clear()
    monkeypatch.setattr(sieve, "JOIN_MAX", 0)
    composite_mask(f3, 4)
    monkeypatch.setattr(sieve, "JOIN_MAX", 27)
    with pytest.raises(EnumerationCapError, match=r"degree-1 .* t\^4"):
        composite_mask(f3, 4)
    sieve._factor_base.cache_clear()
    assert count_irreducibles_sieve(f3, 6) == irreducible_count_formula(3, 6)


def test_factor_bases_are_keyed_by_the_basis(fresh_factor_bases):
    """F_9 under two moduli has other irreducible indices with the same
    totals, so a factor base keyed on (p, e, d) alone would mark the wrong
    multiples.  Distributions of both fields, interleaved in one process,
    equal those each computes with an empty cache."""
    rings = [PolyRing(FieldCtx(3, 2)), PolyRing(FieldCtx(3, 2, (2, 1, 1)))]
    bases = [ring.ctx.basis.tobytes() for ring in rings]
    assert bases[0] != bases[1]
    fresh = {}
    for n in range(2, 6):
        for i, ring in enumerate(rings):
            sieve._factor_base.cache_clear()
            fresh[i, n] = distribution(ring, n).as_dict()
    sieve._factor_base.cache_clear()
    for n in range(2, 6):
        for i, ring in enumerate(rings):
            assert distribution(ring, n).as_dict() == fresh[i, n], (i, n)
    assert sieve._factor_base.cache_info().currsize == 4
    assert (sieve._factor_base(3, 2, bases[0], 2)[0]
            != sieve._factor_base(3, 2, bases[1], 2)[0]).any()


@pytest.mark.parametrize("p, e", [(131, 1), (4093, 1)])
def test_large_q_stays_on_the_marking_path(monkeypatch, p, e):
    """Above the crossover even degree 1 is marked by product_indices."""
    def no_join(*args):
        raise AssertionError("the residue join ran")

    monkeypatch.setattr(sieve, "_join", no_join)
    ring = PolyRing(FieldCtx(p, e))
    assert count_irreducibles_sieve(ring, 2) == irreducible_count_formula(p, 2)


def test_digit_add_table_is_built_once_and_read_only(f9):
    """Every DigitAdd of one (p, s) shares one read-only table, and masks
    and convolutions through the shared table equal those built fresh."""
    rng = np.random.default_rng(4)
    x, y = rng.integers(-3, 4, 9), rng.integers(-3, 4, 81)
    digit_add_table.cache_clear()
    arith._degree_table.cache_clear()       # so (1, 2) builds its table
    fresh_mask = composite_mask(f9, 4)
    fresh_conv = Dirichlet(f9).convolve(x, 1, y, 2)
    table = digit_add_table(3, 4)
    assert DigitAdd(3, 4).table is table and digit_add_table(3, 4) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert (composite_mask(f9, 4) == fresh_mask).all()
    assert (Dirichlet(f9).convolve(x, 1, y, 2) == fresh_conv).all()
    info = digit_add_table.cache_info()
    # A window of 4 digits for the mask's (d, m) = (2, 2), degree 1 going
    # through the residue join: (3, 4); of 2 digits for the convolution's
    # (1, 2) table: (3, 2).
    assert info.misses == 2 and info.maxsize == 16


def test_index_tables_are_built_once_per_field(monkeypatch, f9):
    """field_tables builds one read-only pair per field key: contexts of one
    field and gauss_counts share it, and rs_values and sigma2 read no field
    table, so they build none.  Building F_9 may also build its prime field
    F_3, once, if no earlier test kept it."""
    calls = []

    def counted(p, basis):
        calls.append((p, basis.tobytes()))
        return index_tables(p, basis)

    monkeypatch.setattr(field, "index_tables", counted)
    field.field_tables.cache_clear()
    ring = PolyRing(FieldCtx(3, 2))
    assert FieldCtx(3, 2).mul_table == f9.ctx.mul_table
    for n in (2, 3, 4):
        rs_values(ring, n, np.arange(9**n))
    gauss_counts(qa_matrix(ring, ring.one, 2))
    sigma2(ring, 4, 1, 2, CharSpec(ring.ctx, 1))
    assert calls.count((3, ring.ctx.basis.tobytes())) == 1
    assert len(set(calls)) == len(calls)
    add, mul = field.field_tables(ring.ctx.key())
    assert not add.flags.writeable and not mul.flags.writeable


def test_index_tables_match_field_ops():
    """The vectorised tables against the per-element digit path, pair by pair.

    FieldCtx reads its add/mul/neg/inv tables off index_tables, so the
    reference is digit_add/digit_mul/digit_neg, the formulas the fields
    above TABLE_Q compute with.
    """
    for p, e in ((3, 1), (3, 2), (5, 2), (3, 3), (131, 1), (3, 5)):
        ctx = FieldCtx(p, e)
        add, mul = index_tables(ctx.p, ctx.basis)
        assert ctx.add_table == add.tolist()
        assert ctx.mul_table == mul.tolist()
        elements = range(ctx.q)
        for x in elements:
            assert add[x].tolist() == [ctx.digit_add(x, y) for y in elements]
            assert mul[x].tolist() == [ctx.digit_mul(x, y) for y in elements]
            assert ctx.neg_table[x] == ctx.digit_neg(x)
            if x:
                assert ctx.digit_mul(x, ctx.inv_table[x]) == 1
