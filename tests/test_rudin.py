import json
import re
import tracemalloc

import numpy as np
import pytest

from rsfq import (
    DegreeBoundError,
    EnumerationCapError,
    FieldCtx,
    NotMonicError,
    PolyRing,
    PolySet,
    autocorrelation,
    reversal_product_correlations,
    rudin_shapiro,
)
from rsfq import field, rudin, sieve, verify
from rsfq.cli import main
from rsfq.rudin import _lag1_sums, lag_sums, reversal_products, rs_values
from rsfq.vecenum import digits


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

def test_autocorrelation_linear_cases(f3):
    for c in range(3):
        f = f3.from_ints([c, 1])
        assert autocorrelation(f3, f, 1, 1) == c
        assert autocorrelation(f3, f, 0, 1) == (1 + c * c) % 3


def test_autocorrelation_beyond_degree_is_zero(f3):
    f = f3.from_ints([1, 2, 1])
    for lag in (3, 4, 7):
        assert autocorrelation(f3, f, lag, 2) == 0


def test_autocorrelation_degree_bound(f3):
    with pytest.raises(DegreeBoundError):
        autocorrelation(f3, f3.from_ints([1, 1, 1]), 1, 1)


# ---------------------------------------------------------------------------
# the statistic itself
# ---------------------------------------------------------------------------

def test_rudin_shapiro_frozen_cases(f3):
    assert rudin_shapiro(f3, f3.from_ints([1, 1, 1, 1])) == 2
    for n in (2, 3, 4, 5):
        mono = f3.from_ints([0] * n + [1])
        assert rudin_shapiro(f3, mono) == 0
    for a in range(3):
        for b in range(3):
            f = f3.from_ints([b, a, 1])
            assert rudin_shapiro(f3, f) == (a * b) % 3


def test_rudin_shapiro_preconditions(f3):
    with pytest.raises(NotMonicError):
        rudin_shapiro(f3, f3.from_ints([1, 2]))
    with pytest.raises(DegreeBoundError):
        rudin_shapiro(f3, f3.from_ints([1, 1]))


def test_linear_reduction_exhaustive(f3):
    """R(f) = S(f) - f_(n-1) for all monic f of degree 2..6."""
    ctx = f3.ctx
    for n in range(2, 7):
        for f in f3.enumerate(PolySet.MONIC, n):
            want = ctx.sub(autocorrelation(f3, f, 1, n), f3.coeff(f, n - 1))
            assert rudin_shapiro(f3, f) == want


def test_value_partition_is_exact(f3):
    """Per-value counts over all monic f of degree n partition q^n."""
    for n in range(2, 6):
        counts = {}
        for f in f3.enumerate(PolySet.MONIC, n):
            val = rudin_shapiro(f3, f)
            counts[val] = counts.get(val, 0) + 1
        assert sum(counts.values()) == 3**n


# ---------------------------------------------------------------------------
# rs_values: R at counting indices, against the per-polynomial oracle
# ---------------------------------------------------------------------------

RS_CASES = [(p, e, n) for p, e in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]
            for n in (2, 3, 4) if p ** (e * n) <= 20000]


@pytest.mark.parametrize("p, e, n", RS_CASES)
def test_rs_values_matches_rudin_shapiro_on_every_monic(p, e, n):
    ring = PolyRing(FieldCtx(p, e))
    idx = np.arange(ring.ctx.q**n)
    got = rs_values(ring, n, idx)
    assert got.tolist() == [rudin_shapiro(ring, f)
                            for f in ring.enumerate(PolySet.MONIC, n)]
    assert idx.tolist() == list(range(ring.ctx.q**n))      # left untouched


def test_rs_values_large_prime_field_sample():
    """q = 4093 takes the integer-sum path, with no q x q table."""
    ring = PolyRing(FieldCtx(4093))
    q = ring.ctx.q
    idx = np.random.default_rng(8).integers(0, q**2, size=500)
    want = [rudin_shapiro(ring, next(ring.monic_range(2, int(k), int(k) + 1)))
            for k in idx]
    assert rs_values(ring, 2, idx).tolist() == want


def test_rs_values_above_table_q_reads_digits_not_tables(monkeypatch):
    """At q = 3^6 > TABLE_Q, R comes from the Horner products of the
    coefficients' digits: a seeded sample matches rudin_shapiro with
    field_tables raising, and the index shape is kept."""
    def forbidden(key):
        raise AssertionError("field_tables was called")

    monkeypatch.setattr(field, "field_tables", forbidden)
    ring = PolyRing(FieldCtx(3, 6))
    q = ring.ctx.q
    rng = np.random.default_rng(36)
    for n in (2, 3):
        idx = rng.integers(0, q**n, size=(40, 5))
        want = [rudin_shapiro(ring, next(ring.monic_range(n, k, k + 1)))
                for k in idx.ravel().tolist()]
        got = rs_values(ring, n, idx)
        assert got.shape == idx.shape
        assert got.ravel().tolist() == want


@pytest.mark.parametrize("p, e, n", [(3, 2, 2), (3, 2, 4), (5, 2, 3),
                                     (3, 3, 3)])
def test_per_piece_products_match_the_grid_on_every_monic(monkeypatch, p, e,
                                                          n):
    """With BLOCK below q^2, _subgrids forms each f_k f_(k-1) on its piece
    instead of reading the whole grid (_grid raises), in many sieve.blocks:
    rs_values agrees with rudin_shapiro and with the grid side on every
    monic of degree n, in the grid side's dtype."""
    ring = PolyRing(FieldCtx(p, e))
    q = ring.ctx.q
    idx = np.arange(q**n)
    want = rs_values(ring, n, idx)

    def forbidden(route, field):
        raise AssertionError("the whole grid was read")

    for module in (rudin, sieve):
        monkeypatch.setattr(module, "BLOCK", q**2 - 1)
    monkeypatch.setattr(rudin, "_grid", forbidden)
    got = rs_values(ring, n, idx)
    assert got.dtype == want.dtype
    assert (got == want).all()
    assert got.tolist() == [rudin_shapiro(ring, f)
                            for f in ring.enumerate(PolySet.MONIC, n)]


def test_rs_values_above_table_q_memory_is_bounded():
    """At q = 5^5 two q x q int64 tables would take 156 MB; R of 10^5
    monics stays under a fixed traced peak."""
    ring = PolyRing(FieldCtx(5, 5))
    idx = np.arange(0, ring.ctx.q**2, ring.ctx.q**2 // 10**5)
    tracemalloc.start()
    try:
        rs_values(ring, 2, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_rs_values_keeps_the_index_shape(f9):
    idx = np.arange(81).reshape(3, 9, 3)
    got = rs_values(f9, 2, idx)
    assert got.shape == idx.shape
    assert got.ravel().tolist() == rs_values(f9, 2, idx.ravel()).tolist()


# ---------------------------------------------------------------------------
# reversal-product correlations
# ---------------------------------------------------------------------------

def test_reversal_product_linear(f3):
    for c in range(3):
        a = f3.from_ints([c, 1])
        corr = reversal_product_correlations(f3, a, 1)
        assert corr[0] == (1 + c * c) % 3
        assert corr[1] == c


def test_reversal_product_monomial(f3):
    for n in (1, 2, 4):
        a = f3.from_ints([0] * n + [1])
        corr = reversal_product_correlations(f3, a, n)
        assert corr[0] == 1
        assert all(v == 0 for v in corr[1:])


def test_reversal_product_frozen_quadratic(f3):
    corr = reversal_product_correlations(f3, f3.from_ints([1, 1, 1]), 2)
    assert corr == [0, 2, 1]


def test_correlations_match_direct_exhaustive():
    """Coefficient of t^(n-lag) in reverse(a) * a equals the direct
    autocorrelation, for every a up to degree bound 5 over F_3 and F_5."""
    from rsfq import FieldCtx, PolyRing
    for p in (3, 5):
        ring = PolyRing(FieldCtx(p))
        for n in range(0, 6):
            for a in ring.enumerate(PolySet.DEGREE_AT_MOST, n):
                corr = reversal_product_correlations(ring, a, n)
                for lag in range(n + 1):
                    assert corr[lag] == autocorrelation(ring, a, lag, n)


def test_reconstruction_from_correlations(f3):
    """The product reverse(a) * a is recovered from its correlation profile:
    lag-0 term once at t^n, every positive lag mirrored at t^(n +/- lag)."""
    for n in range(0, 4):
        for a in f3.enumerate(PolySet.DEGREE_AT_MOST, n):
            corr = reversal_product_correlations(f3, a, n)
            coeffs = [f3.ctx.zero()] * (2 * n + 1)
            coeffs[n] = corr[0]
            for lag in range(1, n + 1):
                coeffs[n - lag] = corr[lag]
                coeffs[n + lag] = corr[lag]
            assert f3.poly(coeffs) == f3.mul(f3.reverse(a, n), a)


# ---------------------------------------------------------------------------
# lag_sums and reversal_products: every correlation at counting indices,
# against the per-polynomial oracles
# ---------------------------------------------------------------------------

def check_bulk_correlations(ring, n, start, stop):
    """lag_sums and both halves of reversal_products over the counting
    range [start, stop) against the oracles."""
    lags = lag_sums(ring, n, start, stop)
    prod = reversal_products(ring, n, start, stop)
    assert lags.shape == (n + 1, stop - start)
    assert prod.shape == (2 * n + 1, stop - start)
    polys = [ring.poly(digits(k, ring.ctx.q, n + 1).tolist())
             for k in range(start, stop)]
    want_lags = [[autocorrelation(ring, a, lag, n) for a in polys]
                 for lag in range(n + 1)]
    want_corr = np.array([reversal_product_correlations(ring, a, n)
                          for a in polys]).reshape(-1, n + 1).T
    assert lags.tolist() == want_lags
    if n:
        assert _lag1_sums(ring, n, start, stop).tolist() == want_lags[1]
    assert (prod[n::-1] == want_corr).all()      # t^(n-lag)
    assert (prod[n:] == want_corr).all()         # t^(n+lag)


STAR_CASES = [(p, e, n) for p, e in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]
              for n in range(9) if p ** (e * (n + 1)) <= 20000]


@pytest.mark.parametrize("p, e, n", STAR_CASES)
def test_bulk_correlations_match_oracles_on_every_polynomial(p, e, n):
    ring = PolyRing(FieldCtx(p, e))
    count = ring.ctx.q ** (n + 1)
    assert [ring.poly(digits(k, ring.ctx.q, n + 1).tolist())
            for k in range(count)] == list(
        ring.enumerate(PolySet.DEGREE_AT_MOST, n))
    check_bulk_correlations(ring, n, 0, count)


def ranges_across_rows(q, n, rng, count=3, width=60):
    """Random ranges of at most width counting indices, plus one across
    the edge of two values of a_1 (of a_0 at n = 0), mid-coordinate."""
    total = q ** (n + 1)
    edge = q if n else q // 2
    out = [(max(0, edge - width // 2), min(total, edge + width // 2))]
    for start in rng.integers(0, total, size=count):
        out.append((int(start), int(min(total, start + rng.integers(1, width)))))
    return out


@pytest.mark.parametrize("p, e", [(257, 1), (3, 6), (4093, 1)])
def test_bulk_correlations_match_oracles_above_table_q(p, e):
    """q > TABLE_Q: the oracles compute every entry from base-p digits."""
    ring = PolyRing(FieldCtx(p, e))
    rng = np.random.default_rng(9)
    for n in (0, 1, 2):
        for start, stop in ranges_across_rows(ring.ctx.q, n, rng):
            check_bulk_correlations(ring, n, start, stop)


@pytest.mark.parametrize("p, e, block", [
    (257, 1, 40), (3, 6, 40), (4093, 1, 40),   # pieces of a few a_0
    (3, 1, 40), (5, 1, 150), (3, 2, 40), (3, 2, 600), (3, 3, 150),
])
def test_bulk_correlations_on_pieces_inside_one_coefficient(
        monkeypatch, p, e, block):
    """With BLOCK shrunk, a piece spans part of the values of one
    coefficient, and ranges start and stop mid-coefficient; over F_9 a
    BLOCK of 600 keeps the product grid whole and 40 makes it rows."""
    monkeypatch.setattr(rudin, "BLOCK", block)
    ring = PolyRing(FieldCtx(p, e))
    q = ring.ctx.q
    rng = np.random.default_rng(15)
    for n in range(4 if q < 100 else 3):
        if q ** (n + 1) <= 5000:
            check_bulk_correlations(ring, n, 0, q ** (n + 1))
            check_bulk_correlations(ring, n, q // 2, q ** (n + 1) - q // 2)
        for start, stop in ranges_across_rows(q, n, rng, width=90):
            check_bulk_correlations(ring, n, start, stop)
    check_bulk_correlations(ring, 1, 5, 5)                 # empty range


def test_bulk_kernels_never_read_the_field_tables(monkeypatch):
    """lag_sums, reversal_products and rs_values run on the digits of the
    elements alone: with field_tables and every FieldCtx table raising,
    they still match the oracles over F_9 and F_27."""
    rings = [PolyRing(FieldCtx(3, 2)), PolyRing(FieldCtx(3, 3))]
    cases = [(ring, n, start, stop) for ring in rings
             for n, start, stop in ((1, 0, ring.ctx.q ** 2), (2, 40, 700),
                                    (3, 100, 5000))]
    want = [(lag_sums(*case), reversal_products(*case)) for case in cases]
    rs_cases = [(ring, n) for ring in rings for n in (2, 3)]
    want_rs = [[rudin_shapiro(ring, f) for f in ring.enumerate(PolySet.MONIC, n)]
               for ring, n in rs_cases]

    class Forbidden:
        def __getitem__(self, key):
            raise AssertionError("a field table was read")

    def forbidden(key):
        raise AssertionError("field_tables was called")

    monkeypatch.setattr(field, "field_tables", forbidden)
    for ring in rings:
        for name in ("add_table", "mul_table", "neg_table", "inv_table"):
            monkeypatch.setattr(ring.ctx, name, Forbidden())
    for case, (lags, prod) in zip(cases, want):
        assert (lag_sums(*case) == lags).all()
        assert (reversal_products(*case) == prod).all()
    for (ring, n), values in zip(rs_cases, want_rs):
        assert rs_values(ring, n, np.arange(ring.ctx.q**n)).tolist() == values


# ---------------------------------------------------------------------------
# the star cell
# ---------------------------------------------------------------------------

def star_cell(p, e, n, cap=10**8):
    return {"p": p, "e": e, "modulus": None, "cap": cap, "seed": 1,
            "weights": 3, "check": "star", "n": n}


def per_polynomial_failures(ring, n, bad):
    """The failure list of the per-polynomial loop when the lag sum of the
    k-th polynomial at lag is wrong for exactly the (k, lag) in bad."""
    return [{"a": ring.to_str(a), "lag": lag}
            for k, a in enumerate(ring.enumerate(PolySet.DEGREE_AT_MOST, n))
            for lag in range(n + 1) if (k, lag) in bad]


def corrupt(route, bad, row_of=lambda lag, n: lag):
    """route with the entry of counting index k at row_of(lag) shifted by 1."""
    def wrapped(ring, n, start, stop):
        out = route(ring, n, start, stop).copy()
        for k, lag in bad:
            if start <= k < stop:
                row = row_of(lag, n)
                out[row, k - start] = (out[row, k - start] + 1) % ring.ctx.q
        return out
    return wrapped


@pytest.mark.parametrize("p, e, n, bad", [
    (3, 1, 0, {(2, 0)}),
    (3, 2, 2, {(400, 1)}),
    (5, 1, 3, {(7, 2), (7, 0), (3, 3), (600, 1), (13, 0), (14, 2), (624, 3)}),
])
def test_star_reports_each_corrupted_lag_in_order(monkeypatch, p, e, n, bad):
    """Corrupted lag sums surface as exactly the (a, lag) failures of the
    per-polynomial loop, by a and then by lag, also across block edges."""
    ring = PolyRing(FieldCtx(p, e))
    monkeypatch.setattr(sieve, "BLOCK", 7 * (n + 1) ** 2 * e)   # 3-10 per block
    monkeypatch.setattr(verify, "lag_sums", corrupt(lag_sums, bad))
    result = verify.run_cell(star_cell(p, e, n))
    assert not result["pass"]
    assert result["detail"]["checked"] == ring.ctx.q ** (n + 1)
    assert result["detail"]["failures"] == per_polynomial_failures(ring, n, bad)


@pytest.mark.parametrize("part", ["basis", "modulus"])
def test_star_routes_share_no_field_arithmetic(part):
    """Over F_9 = F_3[w]/(w^2 + 1), a w^2 of 1 in ctx.basis (read only by
    lag_sums) or in the modulus (read only by reversal_products) makes the
    n = 0 cell fail at exactly the squares that see w^2: a = c_0 + c_1 w
    with c_1 != 0, counting indices 3..8."""
    ring = PolyRing(FieldCtx(3, 2))
    ctx = ring.ctx
    assert ctx.modulus == (1, 0, 1)
    if part == "basis":
        ctx.basis = ctx.basis.copy()
        ctx.basis[1, 1] = [1, 0]                  # digits of w^2
    else:
        ctx.modulus = (2, 0, 1)                   # w^2 = -2 = 1
    passed, detail = verify._run_star(ring, star_cell(3, 2, 0))
    assert not passed
    assert detail["failures"] == [{"a": ring.to_str(ring.poly([x])), "lag": 0}
                                  for x in range(3, 9)]


@pytest.mark.parametrize("part", ["basis", "modulus"])
def test_warm_grid_caches_see_a_corrupted_field(part):
    """Each star route keeps its F_9 product grid per process, keyed by
    what the route reads: after a clean F_9 star cell has filled both
    caches, a fresh ctx with a corrupted basis or modulus still fails at
    exactly the six squares, counting indices 3..8."""
    assert verify.run_cell(star_cell(3, 2, 1))["pass"]
    test_star_routes_share_no_field_arithmetic(part)


def test_star_raises_on_a_product_that_is_not_palindromic(monkeypatch, capsys,
                                                          f9):
    """The t^(n+lag) coefficient of one product is wrong: the cell fails
    with an error naming that polynomial, even under python -O, and the
    CLI prints the report and exits 1."""
    n, k = 2, 500
    a = f9.poly(digits(k, 9, n + 1).tolist())
    monkeypatch.setattr(verify, "reversal_products", corrupt(
        reversal_products, {(k, 1)}, row_of=lambda lag, n: n + lag))
    error = f"reversal product of {f9.to_str(a)} is not palindromic at lag 1"
    result = verify.run_cell(star_cell(3, 2, n))
    assert (result["pass"], result["detail"]) == (False, {"error": error})
    assert main(["--p", "3", "--e", "2", "--n-max", "2", "verify", "star"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    cells = json.loads(out.out)["cells"]
    assert [(c["n"], c["pass"]) for c in cells] == [(0, True), (1, True),
                                                    (2, False)]
    assert cells[2]["detail"]["error"] == error


def test_star_cell_keeps_the_enumeration_cap():
    with pytest.raises(EnumerationCapError,
                       match="enumeration of 81 elements exceeds the cap 80"):
        verify.run_cell(star_cell(3, 1, 3, cap=80))
    assert verify.run_cell(star_cell(3, 1, 3, cap=81))["pass"]


def test_star_caps_are_checked_before_any_cell_runs(monkeypatch):
    """At q = 3^12 the n = 1 cell is over the cap: the run stops before the
    n = 0 cell walks its 531441 constants."""
    def no_cells(cells, jobs=1):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(verify, "run_cells", no_cells)
    with pytest.raises(EnumerationCapError, match=re.escape(
            "enumeration of 282429536481 elements exceeds the cap 100000000")):
        verify.verify_all(verify.RunConfig(p=3, e=12), ("star",))


def test_star_cell_memory_is_bounded():
    """Above TABLE_Q the cell walks blocks of counting indices: q = 3^6,
    n = 1 (531441 polynomials) and q = 3^12, n = 0, where one q x q table
    would take 282 GB, stay under a fixed traced peak."""
    for e, n in ((6, 1), (12, 0)):
        tracemalloc.start()
        try:
            result = verify.run_cell(star_cell(3, e, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result["pass"] and result["detail"]["checked"] == 3**(e * (n + 1))
        assert peak < 64 * 2**20, (e, n, peak)


# ---------------------------------------------------------------------------
# the lin-red cell
# ---------------------------------------------------------------------------

def lin_red_cell(p, e, n, cap=10**8):
    return dict(star_cell(p, e, n, cap), check="lin-red")


@pytest.mark.parametrize("p, e, n", [(3, 1, 2), (3, 1, 6), (5, 1, 4),
                                     (3, 2, 3), (3, 3, 2), (257, 1, 2)])
def test_lin_red_cell_passes(p, e, n):
    result = verify.run_cell(lin_red_cell(p, e, n))
    assert result["pass"]
    assert result["detail"] == {"checked": (p**e) ** n, "failures": []}


@pytest.mark.parametrize("p, e, n, bad", [
    (3, 1, 3, {26, 0, 5, 13}),
    (3, 2, 2, {80, 9, 40}),
])
def test_lin_red_reports_each_corrupted_monic_in_order(monkeypatch, p, e, n,
                                                       bad):
    """A wrong lag-1 sum for the monics at positions bad (counting indices
    q^n + k in degree <= n order) fails exactly those f, named by
    ring.to_str, in counting order, also across block edges."""
    ring = PolyRing(FieldCtx(p, e))
    q = ring.ctx.q
    monkeypatch.setattr(sieve, "BLOCK", 5 * e)   # blocks of 3 (q=3), 5 (q=9)
    row = corrupt(lambda *case: _lag1_sums(*case)[None],
                  {(q**n + k, 0) for k in bad})
    monkeypatch.setattr(verify, "_lag1_sums", lambda *case: row(*case)[0])
    result = verify.run_cell(lin_red_cell(p, e, n))
    assert not result["pass"]
    assert result["detail"]["checked"] == q**n
    assert result["detail"]["failures"] == [
        ring.to_str(f) for k, f in enumerate(ring.enumerate(PolySet.MONIC, n))
        if k in bad]


@pytest.mark.parametrize("p", [3, 17])
def test_lin_red_cell_sees_a_wrong_digit_product(monkeypatch, p):
    """With _sum_products, the lag sums' product, wrong on w * w alone, the
    lin-red cell over F_(p^2), n = 2 (q = 9 and q = 289 > TABLE_Q) fails
    exactly at f = t^2 + w t + w: R never reads that product."""
    real = rudin._sum_products

    def wrong(field, x, y):
        out = real(field, x, y)
        w_w = (x[0] == 0) & (x[1] == 1) & (y[0] == 0) & (y[1] == 1)
        out[0] = (out[0] + w_w) % field[0]
        return out

    monkeypatch.setattr(rudin, "_sum_products", wrong)
    ring = PolyRing(FieldCtx(p, 2))
    result = verify.run_cell(lin_red_cell(p, 2, 2))
    assert not result["pass"]
    assert result["detail"] == {"checked": p**4,
                                "failures": [ring.to_str([p, p, 1])]}


def test_lin_red_cell_memory_is_bounded():
    """The cell walks the q^n = 531441 monics of F_3, n = 12, and of F_9,
    n = 6, in blocks: lag sums, digits and R values of one block at a
    time stay under a fixed traced peak (about 10 MB)."""
    for e, n in ((1, 12), (2, 6)):
        tracemalloc.start()
        try:
            result = verify.run_cell(lin_red_cell(3, e, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result["detail"] == {"checked": 3**12, "failures": []}
        assert peak < 16 * 2**20, (e, n, peak)


def test_lin_red_cell_keeps_the_enumeration_cap():
    with pytest.raises(EnumerationCapError,
                       match="enumeration of 27 elements exceeds the cap 26"):
        verify.run_cell(lin_red_cell(3, 1, 3, cap=26))
    assert verify.run_cell(lin_red_cell(3, 1, 3, cap=27))["pass"]
