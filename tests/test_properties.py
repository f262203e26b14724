"""Property tests for field arithmetic, polynomial division, R, the
autocorrelations read off counting indices and the batched rank kernel.

Fields: F_9 and F_125 are table-backed, F_257 and F_(3^6) compute every
entry from base-p digits (q > TABLE_Q).  Examples are drawn by hypothesis
under the derandomized profile registered in conftest.py.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from rsfq import (
    FieldCtx,
    PolyRing,
    autocorrelation,
    reversal_product_correlations,
    matrix_rank,
    monic_slice_rank,
    rudin_shapiro,
    sym_matrix,
)
from rsfq.field import TABLE_Q
from rsfq.quadform import form_ranks
from rsfq.rudin import lag_sums, reversal_products, rs_values
from rsfq.vecenum import digits

TABLE_FIELD = FieldCtx(5, 3)
VIEW_FIELD = FieldCtx(3, 6)
RINGS = [PolyRing(FieldCtx(3, 2)), PolyRing(TABLE_FIELD),
         PolyRing(FieldCtx(257))]


def field_triples(ctx):
    element = st.integers(0, ctx.q - 1)
    return st.tuples(element, element, element)


def check_axioms(ctx, x, y, z):
    add, mul = ctx.add, ctx.mul
    assert add(x, y) == add(y, x)
    assert mul(x, y) == mul(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, 0) == x and mul(x, 1) == x
    assert add(x, ctx.neg(x)) == 0
    assert add(ctx.sub(x, y), y) == x
    if x:
        assert mul(x, ctx.inv(x)) == 1


@given(field_triples(TABLE_FIELD))
def test_field_axioms_table_backed(xyz):
    assert TABLE_FIELD.q <= TABLE_Q
    check_axioms(TABLE_FIELD, *xyz)


@given(field_triples(VIEW_FIELD))
def test_field_axioms_above_table_q(xyz):
    assert VIEW_FIELD.q > TABLE_Q
    check_axioms(VIEW_FIELD, *xyz)


def draw_poly(data, ring, max_len=8, const=0):
    """A polynomial with < max_len coefficients; its constant term is drawn
    from [const, q), so const=1 makes it nonzero."""
    element = st.integers(0, ring.ctx.q - 1)
    c0 = data.draw(st.integers(const, ring.ctx.q - 1))
    return ring.poly([c0] + data.draw(st.lists(element, max_size=max_len - 1)))


@given(st.sampled_from(RINGS), st.data())
def test_divmod_identity(ring, data):
    f = draw_poly(data, ring)
    g = ring.poly([*draw_poly(data, ring, max_len=5),
                   data.draw(st.integers(1, ring.ctx.q - 1))])
    quot, rem = ring.divmod(f, g)
    assert ring.add(ring.mul(quot, g), rem) == f
    assert not rem or len(rem) < len(g)


@given(st.sampled_from(RINGS), st.data())
def test_gcd_is_monic_common_divisor(ring, data):
    h = draw_poly(data, ring, max_len=4)
    f = ring.mul(draw_poly(data, ring), h)
    g = ring.mul(draw_poly(data, ring), h)
    d = ring.gcd(f, g)
    if not f and not g:
        assert d == ()
        return
    assert ring.is_monic(d)
    assert ring.divides(d, f) and ring.divides(d, g)
    assert ring.divides(ring.monic(h), d)


@given(st.sampled_from(RINGS), st.data(), st.integers(0, 4))
def test_reverse_is_an_involution(ring, data, extra):
    f = draw_poly(data, ring, const=1)
    n = len(f) - 1 + extra
    assert ring.reverse(ring.reverse(f, n), n) == f


@given(st.sampled_from(RINGS), st.integers(2, 6), st.data())
def test_rs_values_matches_rudin_shapiro(ring, n, data):
    """R read off counting indices equals the per-polynomial value."""
    element = st.integers(0, ring.ctx.q - 1)
    lows = data.draw(st.lists(st.tuples(*[element] * n), min_size=1,
                              max_size=8))
    idx = np.array([ring.index_of(low) for low in lows])
    assert rs_values(ring, n, idx).tolist() == [
        rudin_shapiro(ring, low + (1,)) for low in lows]


@given(st.sampled_from(RINGS + [PolyRing(VIEW_FIELD)]), st.integers(0, 5),
       st.data())
def test_bulk_correlations_match_oracles(ring, n, data):
    """Every lag sum and both halves of the reversal product over a random
    counting range equal the per-polynomial values."""
    q = ring.ctx.q
    start = data.draw(st.integers(0, q ** (n + 1) - 1))
    stop = data.draw(st.integers(start, min(q ** (n + 1), start + 30)))
    polys = [ring.poly(digits(k, q, n + 1).tolist())
             for k in range(start, stop)]
    corr = [reversal_product_correlations(ring, a, n) for a in polys]
    assert lag_sums(ring, n, start, stop).T.tolist() == [
        [autocorrelation(ring, a, lag, n) for lag in range(n + 1)]
        for a in polys]
    prod = reversal_products(ring, n, start, stop)
    assert prod[n::-1].T.tolist() == corr
    assert prod[n:].T.tolist() == corr


@st.composite
def symmetric_forms(draw, ctx):
    """A block of symmetric m x m forms sum_t d_t x_t x_t^T plus an
    optional random symmetric part, so every rank from 0 to m occurs."""
    m = draw(st.integers(1, 5))
    element = st.integers(0, ctx.q - 1)
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        rows = [[0] * m for _ in range(m)]
        for _ in range(draw(st.integers(0, m))):
            d = draw(element)
            x = draw(st.lists(element, min_size=m, max_size=m))
            for i in range(m):
                for j in range(m):
                    term = ctx.mul(d, ctx.mul(x[i], x[j]))
                    rows[i][j] = ctx.add(rows[i][j], term)
        if draw(st.booleans()):
            for i in range(m):
                for j in range(i, m):
                    rows[i][j] = rows[j][i] = ctx.add(rows[i][j], draw(element))
        forms.append(rows)
    return forms


@given(st.data())
def test_form_ranks_match_elimination_table_backed(data):
    forms = data.draw(symmetric_forms(TABLE_FIELD))
    check_form_ranks(TABLE_FIELD, forms)


@given(st.data())
def test_form_ranks_match_elimination_above_table_q(data):
    forms = data.draw(symmetric_forms(VIEW_FIELD))
    check_form_ranks(VIEW_FIELD, forms)


def check_form_ranks(ctx, forms):
    """The kernel's rank and monic-slice rank of each form equal the
    per-form Gaussian elimination over F_q."""
    ranks, monic_ranks = form_ranks(ctx, np.array(forms))
    mats = [sym_matrix(ctx, rows) for rows in forms]
    assert ranks.tolist() == [matrix_rank(mat) for mat in mats]
    assert monic_ranks.tolist() == [monic_slice_rank(mat) for mat in mats]
