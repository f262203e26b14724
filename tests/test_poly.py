import pytest

from rsfq import (
    ConfigError,
    DegreeBoundError,
    EnumerationCapError,
    FieldCtx,
    PolyDivisionError,
    PolyRing,
    PolySet,
    ZeroPolynomialError,
    irreducible_count_formula,
)


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------

def test_mul_and_divmod_frozen(f3):
    a = f3.from_ints([1, 1])            # t + 1
    b = f3.from_ints([2, 1])            # t + 2
    assert f3.mul(a, b) == f3.from_ints([2, 0, 1])      # t^2 + 2
    quot, rem = f3.divmod(f3.from_ints([0, 0, 0, 1]), a)
    assert quot == f3.from_ints([1, 2, 1])              # t^2 + 2t + 1
    assert rem == f3.from_ints([2])


def test_divmod_contract(f3):
    polys = list(f3.enumerate(PolySet.DEGREE_AT_MOST, 3))
    for f in polys:
        for g in polys:
            if not g:
                with pytest.raises(PolyDivisionError):
                    f3.divmod(f, g)
                continue
            quot, rem = f3.divmod(f, g)
            assert f3.add(f3.mul(quot, g), rem) == f
            if rem:
                assert len(rem) < len(g)


def test_gcd_frozen_and_properties(f3):
    assert f3.gcd(f3.from_ints([2, 0, 1]), f3.from_ints([2, 1])) == \
        f3.from_ints([2, 1])
    assert f3.gcd((), ()) == ()
    for f in f3.enumerate(PolySet.DEGREE_AT_MOST, 2):
        for g in f3.enumerate(PolySet.DEGREE_AT_MOST, 2):
            d = f3.gcd(f, g)
            if d:
                assert f3.is_monic(d)
                assert not f3.mod(f, d)
                assert not f3.mod(g, d)


def test_zero_polynomial_sentinels(f3):
    assert f3.degree(()) is None
    with pytest.raises(ZeroPolynomialError):
        f3.monic(())


# ---------------------------------------------------------------------------
# reversal
# ---------------------------------------------------------------------------

def test_reverse_frozen_cases(f3):
    assert f3.reverse(f3.from_ints([2, 1]), 1) == f3.from_ints([1, 2])
    # constant-term zero drops the top reversed coefficient
    assert f3.reverse(f3.from_ints([0, 1]), 1) == f3.from_ints([1])
    pal = f3.from_ints([1, 1, 1])
    assert f3.reverse(pal, 2) == pal
    with pytest.raises(DegreeBoundError):
        f3.reverse(f3.from_ints([1, 1, 1]), 1)


def test_reverse_multiplicative_exhaustive():
    """reverse(ab) = reverse(a) reverse(b) with matching degree bounds."""
    for p in (3, 5):
        ring = PolyRing(FieldCtx(p))
        polys = list(ring.enumerate(PolySet.DEGREE_AT_MOST, 3))
        rev = {f: ring.reverse(f, 3) for f in polys}
        for a in polys:
            for b in polys:
                left = ring.reverse(ring.mul(a, b), 6)
                right = ring.mul(rev[a], rev[b])
                assert left == right


def test_double_reverse_identity(f3, f5):
    for ring in (f3, f5):
        for n in range(4):
            for a in ring.enumerate(PolySet.DEGREE_AT_MOST, n):
                if a and a[0] != ring.ctx.zero():
                    assert ring.reverse(ring.reverse(a, n), n) == a


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_cardinalities():
    for p in (3, 5):
        ring = PolyRing(FieldCtx(p))
        q = p
        for n in range(4):
            assert len(list(ring.enumerate(PolySet.MONIC, n))) == q**n
            exact = list(ring.enumerate(PolySet.DEGREE_EXACT, n))
            assert len(exact) == (q - 1) * q**n
            assert all(len(f) == n + 1 for f in exact)
            at_most = list(ring.enumerate(PolySet.DEGREE_AT_MOST, n))
            assert len(at_most) == q ** (n + 1)
            assert len(set(at_most)) == len(at_most)


def test_monic_linear_order(f3):
    assert [f3.to_str(f) for f in f3.enumerate(PolySet.MONIC, 1)] == \
        ["0,1", "1,1", "2,1"]


def test_degree_exact_and_at_most_orders(f3):
    """DEGREE_EXACT runs one leading coefficient after another, the rest in
    monic order; DEGREE_AT_MOST is every vector of n + 1 digits, constant
    first, trailing zeros dropped."""
    def names(kind, n):
        return [f3.to_str(f) for f in f3.enumerate(kind, n)]

    low1 = ["0,1", "1,1", "2,1", "0,2", "1,2", "2,2"]
    low2 = ["0,0,1", "1,0,1", "2,0,1", "0,1,1", "1,1,1", "2,1,1", "0,2,1",
            "1,2,1", "2,2,1"]
    high2 = [name[:-1] + "2" for name in low2]
    assert names(PolySet.DEGREE_EXACT, 0) == ["1", "2"]
    assert names(PolySet.DEGREE_EXACT, 1) == low1
    assert names(PolySet.DEGREE_EXACT, 2) == low2 + high2
    assert names(PolySet.DEGREE_AT_MOST, 0) == ["0", "1", "2"]
    assert names(PolySet.DEGREE_AT_MOST, 1) == ["0", "1", "2"] + low1
    assert names(PolySet.DEGREE_AT_MOST, 2) == (["0", "1", "2"] + low1 + low2
                                               + high2)
    for n in range(3):
        assert all(not f or f[-1] for f in
                   f3.enumerate(PolySet.DEGREE_AT_MOST, n))


@pytest.mark.parametrize("ring", ["f3", "f9"])
def test_from_index_inverts_index_of(ring, request):
    ring = request.getfixturevalue(ring)
    q = ring.ctx.q
    for n in range(3):
        for i in range(q ** (n + 1)):
            f = ring.from_index(PolySet.DEGREE_AT_MOST, n, i)
            assert ring.index_of(f) == i
            if i < q**n:
                monic = ring.from_index(PolySet.MONIC, n, i)
                assert ring.index_of(monic) == i + q**n


def test_from_index_refuses_indices_outside_the_set(f3):
    for kind, n, index in ((PolySet.MONIC, 2, 9), (PolySet.MONIC, 1, -1),
                           (PolySet.DEGREE_EXACT, 1, 6),
                           (PolySet.DEGREE_AT_MOST, 1, 9),
                           (PolySet.MONIC_IRREDUCIBLE, 2, 0)):
        with pytest.raises(ConfigError):
            f3.from_index(kind, n, index)
    assert f3.from_index(PolySet.DEGREE_EXACT, 1, 5) == (2, 2)


def test_monic_range_partition(f3):
    n = 3
    full = list(f3.enumerate(PolySet.MONIC, n))
    pieces = []
    for lo, hi in ((0, 7), (7, 13), (13, 27)):
        pieces.extend(f3.monic_range(n, lo, hi))
    assert pieces == full


def test_irreducible_enumeration_frozen(f3):
    irr2 = [f3.to_str(f) for f in f3.enumerate(PolySet.MONIC_IRREDUCIBLE, 2)]
    assert irr2 == ["1,0,1", "2,1,1", "2,2,1"]
    assert len(list(f3.enumerate(PolySet.MONIC_IRREDUCIBLE, 3))) == 8


def test_is_irreducible_frozen(f3):
    assert f3.is_irreducible(f3.from_ints([1, 0, 1]))          # t^2 + 1
    assert not f3.is_irreducible(f3.from_ints([2, 0, 1]))      # (t+1)(t+2)
    assert f3.is_irreducible(f3.from_ints([0, 1]))             # t
    with pytest.raises(DegreeBoundError):
        f3.is_irreducible(f3.from_ints([2]))


def test_is_irreducible_against_gcd_oracle(f3):
    """Independent route: f of degree d is reducible iff some monic of
    degree <= d/2 shares a nonconstant gcd with it."""
    for n in (2, 3, 4):
        for f in f3.enumerate(PolySet.MONIC, n):
            has_factor = False
            for d in range(1, n // 2 + 1):
                for g in f3.enumerate(PolySet.MONIC, d):
                    common = f3.gcd(f, g)
                    if common and len(common) > 1:
                        has_factor = True
            assert f3.is_irreducible(f) == (not has_factor)


def test_counts_match_formula(f3, f5, f9):
    for ring, n_max in ((f3, 7), (f5, 5), (f9, 3)):
        q = ring.ctx.q
        for n in range(1, n_max + 1):
            count = len(list(ring.enumerate(PolySet.MONIC_IRREDUCIBLE, n)))
            assert count == irreducible_count_formula(q, n)


def test_enumeration_cap():
    ring = PolyRing(FieldCtx(3), cap=10)
    with pytest.raises(EnumerationCapError):
        list(ring.enumerate(PolySet.MONIC, 3))
    ring = PolyRing(FieldCtx(3), cap=27)
    assert len(list(ring.enumerate(PolySet.MONIC, 3))) == 27


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

def test_str_round_trip(f3, f9):
    for ring in (f3, f9):
        for f in ring.enumerate(PolySet.DEGREE_AT_MOST, 2):
            assert ring.parse(ring.to_str(f)) == f
