import cmath
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rsfq import (
    CharSpec,
    Dirichlet,
    EnumerationCapError,
    ExactIdentityError,
    FieldCtx,
    InvalidCutoffsError,
    PolyRing,
    PolySet,
    TrivialCharacterError,
    VaughanContext,
    character_rs_weight,
    default_cutoffs,
    divisors_monic,
    max_gauss_magnitude,
    quad_form_char_sum,
    random_weight_values,
    rs_char_sum_over_set,
    rs_pair_char_sum,
    rudin_shapiro,
    scan_gauss_bound,
    sigma1,
    sigma2,
    sym_matrix,
    unit_weight,
    vaughan_decompose,
)
from rsfq import arith, charsum, sieve, vaughan, verify
from rsfq.arith import FactorTable
from rsfq.vaughan import _rs_table


def blocks_of(vc) -> dict:
    """The blocks (mu_da * Lambda_db) * 1 back from vc's prefix sums:
    prefix[s][a] is column s - a summed down to row a."""
    prefix = vc.prefix
    return {(a, s - a): prefix[s][a] - (prefix[s - 1][a - 1] if a else 0)
            for s in range(1, vc.n + 1) for a in range(s)}


def definitions(ring, n) -> tuple:
    """c1's terms (n - da) mu_da * 1_(n-da) and every block
    (mu_da * Lambda_db) * 1_(n-da-db), straight from their definitions on
    a kernel that reads no table."""
    kernel = Dirichlet(ring, tables=False)
    mu, lam = kernel.mobius(n), kernel.von_mangoldt(n)
    c1 = [(n - da) * kernel.convolve(mu[da], da, kernel.ones(n - da), n - da)
          for da in range(n)]
    blocks = {(da, db): kernel.convolve(
        kernel.convolve(mu[da], da, lam[db], db), da + db,
        kernel.ones(n - da - db), n - da - db)
        for da in range(n) for db in range(1, n - da + 1)}
    return c1, blocks


def summed(c1, blocks, u, v) -> tuple:
    """c1, c2 and c3 at cutoffs u, v summed term by term."""
    zero = np.zeros_like(c1[0])
    return (sum(c1[:u + 1], zero),
            sum((b for (da, db), b in blocks.items() if da <= u and db <= v),
                zero),
            sum((b for (da, db), b in blocks.items() if da > u and db > v),
                zero))


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

def test_default_cutoffs_frozen():
    assert default_cutoffs(14) == (3, 10)
    assert default_cutoffs(28) == (6, 20)
    assert default_cutoffs(5) == (1, 3)
    with pytest.raises(InvalidCutoffsError):
        default_cutoffs(2)


def test_cutoff_validation(f3):
    with pytest.raises(InvalidCutoffsError):
        vaughan_decompose(f3, 5, 3, 2, unit_weight)
    with pytest.raises(InvalidCutoffsError):
        vaughan_decompose(f3, 5, 0, 2, unit_weight)


# ---------------------------------------------------------------------------
# the identity
# ---------------------------------------------------------------------------

def test_unit_weight_frozen_case(f3):
    rep = vaughan_decompose(f3, 5, 2, 2, unit_weight)
    assert abs(rep.lhs - 243) < 1e-9
    assert abs((rep.s1 - rep.s2 + rep.s3) - 243) < 1e-9
    assert rep.residual < 1e-9


def test_zero_weight(f3):
    rep = vaughan_decompose(f3, 5, 2, 2, lambda f: 0j)
    assert rep.lhs == 0 and rep.s1 == 0 and rep.s2 == 0 and rep.s3 == 0


def test_character_weight_small_case(f3):
    chi = CharSpec(f3.ctx, 1)
    rep = vaughan_decompose(f3, 4, 1, 1, character_rs_weight(f3, chi))
    assert rep.residual < 1e-9 * (1 + abs(rep.lhs))


def test_identity_all_cutoffs_all_weights(f3):
    """Residual stays below tolerance for unit, character and 20 seeded
    random unit-bounded weights across every valid cutoff pair, n = 4..6."""
    chi = CharSpec(f3.ctx, 1)
    for n in (4, 5, 6):
        vc = VaughanContext(f3, n)
        tables = [vc.tabulate(unit_weight),
                  vc.tabulate(character_rs_weight(f3, chi))]
        tables += [random_weight_values(f3, n, 1000 + j) for j in range(20)]
        for values in tables:
            assert all(abs(v) <= 1 + 1e-12 for v in values)
        for u in range(1, n):
            for v in range(1, n - u):
                for values in tables:
                    rep = vc.decompose(u, v, values)
                    assert rep.residual < 1e-9 * (1 + abs(rep.lhs))
                unit_rep = vc.decompose(u, v, tables[0])
                total = unit_rep.s1 - unit_rep.s2 + unit_rep.s3
                assert abs(total - 3**n) < 1e-9


def test_s2_routes_agree(f3):
    for n in (4, 5):
        vc = VaughanContext(f3, n)
        values = random_weight_values(f3, n, 42)
        for u in range(1, n):
            for v in range(1, n - u):
                grouped = vc.s2_grouped(u, v, values)
                triple = vc.s2_triple(u, v, values)
                assert abs(grouped - triple) < 1e-9


def test_triple_regions_partition(f3):
    """The S2 and S3 index regions are disjoint; with the mixed regions they
    cover every monic triple with degree sum n."""
    n = 5
    vc = VaughanContext(f3, n)
    table = FactorTable(f3)
    all_triples = 0
    for da in range(n + 1):
        for db in range(n - da + 1):
            dc = n - da - db
            all_triples += 3**da * 3**db * 3**dc
    for u, v in ((1, 2), (2, 2), (1, 3)):
        s2_region = s3_region = mixed = 0
        for da in range(n + 1):
            for db in range(n - da + 1):
                count = 3 ** da * 3 ** db * 3 ** (n - da - db)
                in_s2 = da <= u and db <= v
                in_s3 = da > u and db > v
                assert not (in_s2 and in_s3)
                if in_s2:
                    s2_region += count
                elif in_s3:
                    s3_region += count
                else:
                    mixed += count
        assert s2_region + s3_region + mixed == all_triples
    # the (deg a, deg b) blocks cover the triple regions and sum to Lambda_n
    total = 0
    for (da, db), block in blocks_of(vc).items():
        assert 0 <= da and 1 <= db and da + db <= n
        total = total + block
    assert (total == vc.lambdas).all()


def test_weight_tabulation_order(f3):
    """Weights are tabulated in monic counting order."""
    n = 4
    vc = VaughanContext(f3, n)
    chi = CharSpec(f3.ctx, 1)
    values = vc.tabulate(character_rs_weight(f3, chi))
    for i, f in enumerate(f3.enumerate(PolySet.MONIC, n)):
        expected = cmath.exp(2j * cmath.pi * int(rudin_shapiro(f3, f)) / 3)
        assert abs(values[i] - expected) < 1e-12


def test_random_weights_deterministic(f3):
    assert random_weight_values(f3, 5, 99) == random_weight_values(f3, 5, 99)
    assert random_weight_values(f3, 5, 99) != random_weight_values(f3, 5, 98)


# ---------------------------------------------------------------------------
# sigma aggregates
# ---------------------------------------------------------------------------

def test_sigma_rejects_trivial_character(f3):
    chi0 = CharSpec(f3.ctx, 0)
    with pytest.raises(TrivialCharacterError):
        sigma1(f3, 5, 1, 2, chi0)
    with pytest.raises(TrivialCharacterError):
        sigma2(f3, 5, 1, 2, chi0)


def test_sigma1_against_direct_loop(f3):
    """Independent double loop over (g, h) reproduces sigma1 to 1e-9."""
    chi = CharSpec(f3.ctx, 1)
    n, u, v = 5, 1, 2
    report = sigma1(f3, n, u, v, chi)
    roots = [cmath.exp(2j * cmath.pi * r / 3) for r in range(3)]
    total = 0.0
    for dg in range(u + v + 1):
        for g in f3.enumerate(PolySet.MONIC, dg):
            inner = 0j
            for h in f3.enumerate(PolySet.MONIC, n - dg):
                inner += roots[int(rudin_shapiro(f3, f3.mul(g, h)))]
            total += abs(inner)
    assert abs(total - report["value"]) < 1e-9


def test_sigma2_against_direct_loop(f3):
    chi = CharSpec(f3.ctx, 1)
    n, u, v = 5, 1, 2
    report = sigma2(f3, n, u, v, chi)
    roots = [cmath.exp(2j * cmath.pi * r / 3) for r in range(3)]
    best = -1.0
    for i in range(v, n - u + 1):
        monics = list(f3.enumerate(PolySet.MONIC, n - i))
        for g1 in monics:
            total = 0.0
            for g2 in monics:
                inner = 0j
                for h in f3.enumerate(PolySet.MONIC, i):
                    r1 = int(rudin_shapiro(f3, f3.mul(h, g1)))
                    r2 = int(rudin_shapiro(f3, f3.mul(h, g2)))
                    inner += roots[r1] * roots[r2].conjugate()
                total += abs(inner)
            best = max(best, total)
    assert abs(best - report["value"]) < 1e-9


def exact_abs(s: complex, p: int) -> tuple:
    """(A, B) with |s| = A + B sqrt(p), after asserting that round(|s|^2)
    is 0 or a power of p, as it is for every quadratic Gauss sum."""
    sq = round(abs(s) ** 2)
    if sq == 0:
        return 0, 0
    k = round(math.log(sq, p))
    assert p**k == sq, f"|S|^2 = {sq} is not a power of {p}"
    return (p ** (k // 2), 0) if k % 2 == 0 else (0, p ** (k // 2))


def add_exact(x: tuple, y: tuple) -> tuple:
    return x[0] + y[0], x[1] + y[1]


def as_decimal(x: tuple, p: int) -> Decimal:
    """A + B sqrt(p) to 60 digits: two distinct values below 10^12 differ
    by more than 10^-13, so comparing these decides exactly."""
    with localcontext() as ctx:
        ctx.prec = 60
        return x[0] + x[1] * Decimal(p).sqrt()


SIGMA_GRID = [
    (3, 1, 5, 1, 1), (3, 1, 5, 1, 2), (3, 1, 5, 2, 2), (3, 1, 5, 3, 1),
    (5, 1, 4, 1, 2), (5, 1, 4, 2, 1), (3, 2, 3, 1, 1),
]
# Each case of the grid on the kept table and on the streamed route.
SIGMA_ROUTES = [
    pytest.param(*case, streamed, id="-".join(map(str, case))
                 + ("-streamed" if streamed else ""))
    for streamed in (False, True) for case in SIGMA_GRID]


def stream_sigma(monkeypatch, q, n):
    """Keep no degree-n table (arith.BLOCK below q^n), cut the h of one g
    into several product_indices blocks (sieve.BLOCK at 7) and make
    Dirichlet.products raise; return the list of the blocks' first h."""
    def refuse(*args, **kwargs):
        raise AssertionError("a streamed sum read a product table")

    starts = []
    real = arith.product_indices

    def recorded(*args):
        for gs, hs, idx in real(*args):
            starts.append(hs.start)
            yield gs, hs, idx

    monkeypatch.setattr(arith, "BLOCK", q**n - 1)
    monkeypatch.setattr(sieve, "BLOCK", 7)
    monkeypatch.setattr(Dirichlet, "products", refuse)
    monkeypatch.setattr(arith, "product_indices", recorded)
    return starts


@pytest.mark.parametrize("p, e, n, u, v, streamed", SIGMA_ROUTES)
def test_sigma2_equals_sum_of_pair_oracles(monkeypatch, p, e, n, u, v,
                                           streamed):
    """Every rs_pair_char_sum oracle has |S|^2 equal to 0 or a power of p,
    and their exact row sums [A, B] and first exact maximum in (i, g1)
    counting order are sigma2's value_exact and argmax, on the kept
    table and on the streamed blocks."""
    ring = PolyRing(FieldCtx(p, e))
    chi = CharSpec(ring.ctx, 1)
    best, best_i, best_g1 = None, None, None
    for i in range(v, n - u + 1):
        monics = list(ring.enumerate(PolySet.MONIC, n - i))
        for g1 in monics:
            total = (0, 0)
            for g2 in monics:
                total = add_exact(total, exact_abs(
                    rs_pair_char_sum(ring, i, g1, g2, chi), p))
            if best is None or as_decimal(total, p) > as_decimal(best, p):
                best, best_i, best_g1 = total, i, ring.to_str(g1)
    if streamed:
        starts = stream_sigma(monkeypatch, ring.ctx.q, n)
    report = sigma2(ring, n, u, v, chi)
    if streamed:
        assert max(starts) > 0      # some block starts past the first h
    assert (report["value_exact"], report["argmax_i"], report["argmax_g1"]) == (
        list(best), best_i, best_g1)
    assert report["value"] == best[0] + best[1] * math.sqrt(p)


@pytest.mark.parametrize("p, e, n, u, v, block", [
    (3, 1, 5, 1, 1, 7), (3, 1, 5, 1, 2, 100), (5, 1, 4, 1, 1, 2000),
    (3, 2, 3, 1, 1, 30),
])
def test_sigma2_rows_in_small_blocks_equal_pair_oracles(
        monkeypatch, p, e, n, u, v, block):
    """With blocks of a few g1 rows, so that pairs (g1, g2) with g2 past
    the block add their |S| to row g2 too, every row's exact sum equals
    the sum of its rs_pair_char_sum oracles over all g2.  sigma2 hands
    every row after the first to pair_exceeds, in (i, g1) order."""
    ring = PolyRing(FieldCtx(p, e))
    chi = CharSpec(ring.ctx, 1)
    want = []
    for i in range(v, n - u + 1):
        monics = list(ring.enumerate(PolySet.MONIC, n - i))
        for g1 in monics:
            total = (0, 0)
            for g2 in monics:
                total = add_exact(total, exact_abs(
                    rs_pair_char_sum(ring, i, g1, g2, chi), p))
            want.append(list(total))
    seen = []
    real_exceeds = vaughan.pair_exceeds

    def recorded(x, y, p):
        seen.append(x)
        return real_exceeds(x, y, p)

    monkeypatch.setattr(sieve, "BLOCK", block)
    monkeypatch.setattr(vaughan, "pair_exceeds", recorded)
    sigma2(ring, n, u, v, chi)
    assert seen == want[1:]


@pytest.mark.parametrize("p, e, n, u, v, streamed", SIGMA_ROUTES)
def test_sigma1_equals_sum_of_set_oracles(monkeypatch, p, e, n, u, v,
                                          streamed):
    """Every rs_char_sum_over_set oracle, one per multiplier g, has |S|^2
    equal to 0 or a power of p, and their exact sums per degree and in
    total are sigma1's by_degree_exact and value_exact, on the kept table
    and on the streamed blocks."""
    ring = PolyRing(FieldCtx(p, e))
    chi = CharSpec(ring.ctx, 1)
    total, by_degree = (0, 0), []
    for dg in range(u + v + 1):
        deg_total = (0, 0)
        for g in ring.enumerate(PolySet.MONIC, dg):
            deg_total = add_exact(deg_total, exact_abs(rs_char_sum_over_set(
                ring, PolySet.MONIC, n - dg, g, chi, "R"), p))
        by_degree.append(list(deg_total))
        total = add_exact(total, deg_total)
    if streamed:
        starts = stream_sigma(monkeypatch, ring.ctx.q, n)
    report = sigma1(ring, n, u, v, chi)
    if streamed:
        assert max(starts) > 0      # some block starts past the first h
    assert (report["value_exact"], report["by_degree_exact"]) == (
        list(total), by_degree)
    assert report["value"] == total[0] + total[1] * math.sqrt(p)
    assert report["by_degree"] == [a + b * math.sqrt(p) for a, b in by_degree]


@pytest.mark.parametrize("p, e, d, m", [
    (3, 1, 0, 2), (3, 1, 0, 5), (3, 1, 1, 1), (3, 1, 2, 3), (3, 1, 4, 2),
    (5, 1, 0, 3), (5, 1, 2, 2), (7, 1, 1, 3), (3, 2, 0, 2), (3, 2, 1, 2),
    (3, 2, 2, 1), (5, 2, 1, 1), (3, 3, 1, 2),
])
def test_rs_products_matches_polynomial_products(p, e, d, m):
    """Row g, column h of the R(g h) matrix, R over monic degree d + m
    read through the product indices, is rudin_shapiro(g * h), with g and
    h in counting order; d = 0 is the single row g = 1."""
    ring = PolyRing(FieldCtx(p, e))
    want = [[rudin_shapiro(ring, ring.mul(g, h))
             for h in ring.enumerate(PolySet.MONIC, m)]
            for g in ring.enumerate(PolySet.MONIC, d)]
    table = _rs_table(ring, d + m)
    got = table[Dirichlet(ring).products(d, m)] if d else table[None, :]
    assert got.shape == (ring.ctx.q**d, ring.ctx.q**m)
    assert got.tolist() == want


def test_rs_products_checks_both_degrees_against_the_cap(f3):
    """sigma2 checks q^deg g1 and q^i of every i against the cap, then the
    q^n monics whose R it evaluates; sigma1's largest set is the q^n
    monics of g = 1."""
    chi = CharSpec(f3.ctx, 1)

    def capped(cap):
        return PolyRing(f3.ctx, cap=cap)

    with pytest.raises(EnumerationCapError, match="enumeration of 9 elements"):
        sigma2(capped(8), 3, 1, 1, chi)
    with pytest.raises(EnumerationCapError, match="enumeration of 27 elements"):
        sigma2(capped(26), 4, 1, 1, chi)
    # i in [2, 3]: only q^i = 27 at i = 3 exceeds the cap, deg g1 being 1.
    with pytest.raises(EnumerationCapError, match="enumeration of 27 elements"):
        sigma2(capped(26), 4, 1, 2, chi)
    # Every degree's set fits under 50, but R is tabulated over all 81.
    with pytest.raises(EnumerationCapError, match="enumeration of 81 elements"):
        sigma2(capped(50), 4, 1, 1, chi)
    with pytest.raises(EnumerationCapError, match="enumeration of 81 elements"):
        sigma1(capped(80), 4, 1, 2, chi)
    # g = t shifts h up one coefficient: t h has counting index 3 * idx(h).
    assert np.array_equal(Dirichlet(f3).products(1, 3)[0], 3 * np.arange(27))


def test_context_builds_each_product_table_once(f3, monkeypatch):
    """From an empty cache, mu, Lambda, c1 and every block of one context
    form the products of each unordered pair of degrees {d, m},
    d + m <= n, once: the kept degree tables."""
    calls = []
    real = arith.product_indices

    def counted(factors, d, m, *rest):
        calls.append((d, m))
        return real(factors, d, m, *rest)

    monkeypatch.setattr(arith, "product_indices", counted)
    arith._degree_table.cache_clear()
    VaughanContext(f3, 5)
    pairs = sorted(tuple(sorted(c)) for c in calls)
    assert pairs == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]


@pytest.mark.parametrize("p, e, n", [(3, 1, 6), (5, 1, 4), (3, 2, 4)])
def test_sigma_through_the_shared_kernel(p, e, n, monkeypatch):
    """sigma1 and sigma2 read R(g h) off the per-process tables a context
    already built, and equal a call made before it and the per-multiplier
    oracles."""
    ring = PolyRing(FieldCtx(p, e))
    chi = CharSpec(ring.ctx, 1)
    u, v = default_cutoffs(n)
    fresh1, fresh2 = sigma1(ring, n, u, v, chi), sigma2(ring, n, u, v, chi)
    VaughanContext(ring, n)
    monkeypatch.setattr(arith, "product_indices", None)   # no table is built
    assert sigma1(ring, n, u, v, chi) == fresh1
    assert sigma2(ring, n, u, v, chi) == fresh2
    by_degree = []
    for dg in range(u + v + 1):
        deg_total = (0, 0)
        for g in ring.enumerate(PolySet.MONIC, dg):
            deg_total = add_exact(deg_total, exact_abs(rs_char_sum_over_set(
                ring, PolySet.MONIC, n - dg, g, chi), p))
        by_degree.append(list(deg_total))
    assert fresh1["by_degree_exact"] == by_degree
    # The pair oracles on the argmax row give the reported maximum.
    i, g1 = fresh2["argmax_i"], ring.parse(fresh2["argmax_g1"])
    row = (0, 0)
    for g2 in ring.enumerate(PolySet.MONIC, n - i):
        row = add_exact(row, exact_abs(rs_pair_char_sum(ring, i, g1, g2, chi),
                                       p))
    assert fresh2["value_exact"] == list(row)


@pytest.mark.parametrize("p, e, n", [(3, 1, 5), (5, 1, 4), (3, 2, 4)])
def test_vaughan_cell_evaluates_r_once(p, e, n, monkeypatch):
    """One verify vaughan cell evaluates R over its q^n monics once, for
    the char-rs weight and both sigma aggregates, and reports the sigma
    values of calls that evaluate R themselves."""
    ring = PolyRing(FieldCtx(p, e))
    chi = CharSpec(ring.ctx, ring.ctx.scalar(1))
    u, v = default_cutoffs(n)
    want1, want2 = sigma1(ring, n, u, v, chi), sigma2(ring, n, u, v, chi)
    calls = []
    real = vaughan.rs_values

    def counted(ring, deg, idx):
        calls.append((deg, len(idx)))
        return real(ring, deg, idx)

    monkeypatch.setattr(verify, "rs_values", counted)
    monkeypatch.setattr(vaughan, "rs_values", counted)
    cell = {"p": p, "e": e, "modulus": None, "cap": 10**8, "seed": 1,
            "weights": 1, "check": "vaughan", "n": n}
    report = verify.run_cell(cell)["detail"]["char_rs_report"]
    assert calls == [(n, ring.ctx.q**n)]
    assert report["sigma1_exact"] == want1["value_exact"]
    assert report["sigma2_exact"] == want2["value_exact"]
    assert report["sigma1"] == want1["value"]
    assert report["sigma2"] == want2["value"]


def test_independent_routes_never_read_a_product_table(f3, monkeypatch):
    """The cross-check routes share no product table with the kernel."""
    vc = VaughanContext(f3, 5)
    grouped = vc.coefficients(1, 2)[1]

    def refuse(*args, **kwargs):
        raise AssertionError("an independent route read a product table")

    monkeypatch.setattr(Dirichlet, "products", refuse)
    assert (vc.triple_coefficients(1, 2) == grouped).all()
    f = f3.from_ints([1, 0, 2, 1])
    assert len(divisors_monic(f3, f)) == FactorTable(f3).tau(f)
    chi = CharSpec(f3.ctx, 1)
    g = f3.from_ints([1, 1])
    # Nor do the floating-point oracles take |S|^2 from the exact route.
    monkeypatch.setattr(charsum, "energy_abs_sq", refuse)
    monkeypatch.setattr(charsum, "decode_abs", refuse)
    rs_char_sum_over_set(f3, PolySet.MONIC, 3, g, chi)
    rs_pair_char_sum(f3, 2, g, f3.from_ints([2, 1]), chi)
    mat = sym_matrix(f3.ctx, [[1, 0], [0, 2]])
    quad_form_char_sum(mat, (0, 1), chi)
    max_gauss_magnitude(mat)


def test_exact_routes_never_read_character_values(monkeypatch):
    """sigma1, sigma2 and scan_gauss_bound take every |S|^2 from integer
    histograms: no character value and no hist_to_sum enters."""
    def refuse(*args, **kwargs):
        raise AssertionError("an exact route read a character value")

    for module in (charsum, vaughan):
        for name in ("hist_to_sum", "char_values"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for p, e, n in ((3, 1, 5), (3, 2, 3)):
        ring = PolyRing(FieldCtx(p, e))
        chi = CharSpec(ring.ctx, 1)
        u, v = default_cutoffs(n)
        sigma1(ring, n, u, v, chi)
        sigma2(ring, n, u, v, chi)
        assert all(rep["pass"] for rep in scan_gauss_bound(ring, n))


def test_sigma1_is_exact_where_the_float_sum_drifted():
    """by_degree[0] at q=3, n=10, u=2, v=7 is 243 = 3^5 exactly; a float
    sum of |S| per row gave 242.99999999999454."""
    ring = PolyRing(FieldCtx(3))
    report = sigma1(ring, 10, 2, 7, CharSpec(ring.ctx, 1))
    assert report["by_degree"][0] == 243.0
    assert report["by_degree_exact"][0] == [243, 0]


@pytest.mark.parametrize("p, e, n, u, v", [(5, 1, 4, 1, 2), (3, 2, 3, 1, 1)])
def test_sigma_is_the_same_for_every_nonzero_beta(p, e, n, u, v):
    """|S|^2 depends only on the rank and the linear part of the quadratic
    form, not on beta != 0, so every non-trivial character gives the same
    exact sigma1 and sigma2."""
    ring = PolyRing(FieldCtx(p, e))
    reports = [(sigma1(ring, n, u, v, chi)["value_exact"],
                sigma2(ring, n, u, v, chi)["value_exact"])
               for chi in (CharSpec(ring.ctx, beta) for beta in range(1, p**e))]
    assert reports == [reports[0]] * (p**e - 1)


def test_energy_flags_a_histogram_that_is_not_flat():
    """Over F_5, c = (1, 1, 0, 0, 0) has A_1 = A_4 = 1 but A_2 = A_3 = 0,
    so no single |S|^2 serves every non-trivial character."""
    r = np.arange(5)
    add = (r[:, None] + r) % 5
    hist = np.array([[1, 1, 0, 0, 0], [3, 1, 1, 1, 1], [7, 0, 0, 0, 0]])
    abs_sq, flat = charsum.energy_abs_sq(hist, add)
    assert abs_sq.tolist() == [1, 4, 49]
    assert flat.tolist() == [False, True, True]


def test_sigma_rejects_a_magnitude_that_is_not_a_power_of_p(f3, monkeypatch):
    """With R replaced by (1, 1, 1, 1, 0, ...) over the monics of degree n,
    the row g = 1 has |S|^2 = H^2 - 12 H + 48 for its H = 3^n values of h,
    453 at n = 3: not a power of 3, and sigma2 meets such a pair too."""
    def corrupted(ring, n):
        out = np.zeros(ring.ctx.q**n, dtype=np.int8)
        out[:4] = 1
        return out

    monkeypatch.setattr(vaughan, "_rs_table", corrupted)
    chi = CharSpec(f3.ctx, 1)
    with pytest.raises(ExactIdentityError, match=r"\|S\|\^2 = 453 .* at g = 1$"):
        sigma1(f3, 3, 1, 1, chi)
    with pytest.raises(ExactIdentityError, match="is not 0 or a power of 3"
                       " at i = 2, g1 = 0,0,1$"):
        sigma2(f3, 4, 1, 2, chi)


def test_sigma_rejects_uneven_energies(f5, monkeypatch):
    """Over F_5, R replaced by (1, 1, 1, 1, 0, ...) gives the row g = 1 the
    histogram (121, 4, 0, 0, 0) at n = 3: A_1 = 484 but A_2 = 0, so no
    single |S|^2 serves every non-trivial character."""
    def corrupted(ring, n):
        out = np.zeros(ring.ctx.q**n, dtype=np.int8)
        out[:4] = 1
        return out

    monkeypatch.setattr(vaughan, "_rs_table", corrupted)
    with pytest.raises(ExactIdentityError, match="^A_d is not the same for "
                       "every d != 0 at g = 1$"):
        sigma1(f5, 3, 1, 1, CharSpec(f5.ctx, 1))


def test_sigma1_monotone_in_cutoff_window(f3):
    chi = CharSpec(f3.ctx, 1)
    small = sigma1(f3, 6, 1, 1, chi)["value"]
    large = sigma1(f3, 6, 1, 4, chi)["value"]
    assert large >= small - 1e-12


def test_sigma2_diagonal_lower_bound(f3):
    chi = CharSpec(f3.ctx, 1)
    for n, u, v in ((5, 1, 2), (6, 1, 2)):
        report = sigma2(f3, n, u, v, chi)
        assert report["value"] >= 3**v - 1e-9


def test_decompose_guards_against_inconsistent_state(f3):
    """The residual check trips if the precomputed structure is corrupted."""
    n = 4
    vc = VaughanContext(f3, n)
    values = vc.tabulate(unit_weight)
    vc.lambdas = list(vc.lambdas)
    vc.lambdas[0] += 1      # breaks lhs but not the component sums
    with pytest.raises(ExactIdentityError):
        vc.decompose(1, 1, values)


# ---------------------------------------------------------------------------
# the identity as integer vectors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, e, top", [(3, 1, 7), (5, 1, 5), (3, 2, 4)])
def test_integer_identity_every_cutoff(p, e, top):
    """c1 - c2 + c3 == Lambda_n exactly, the blocks sum to Lambda_n, and
    the grouped and triple S2 orders agree in integers, at every (u, v)."""
    ring = PolyRing(FieldCtx(p, e))
    for n in range(3, top + 1):
        vc = VaughanContext(ring, n)
        assert int(vc.lambdas.sum()) == ring.ctx.q**n
        assert (sum(blocks_of(vc).values()) == vc.lambdas).all()
        for u in range(1, n):
            for v in range(1, n - u):
                c1, c2, c3 = vc.coefficients(u, v)
                assert (c1 - c2 + c3 == vc.lambdas).all(), (n, u, v)
                assert (c2 == vc.triple_coefficients(u, v)).all(), (n, u, v)


def test_corrupted_mobius_entry_raises(f3, monkeypatch):
    """One wrong mu entry makes the integer identity fail by name."""
    mobius = Dirichlet.mobius

    def corrupted(self, n):
        mu = mobius(self, n)
        if n >= 1:
            mu[1][0] = 0        # mu(t) = -1 in truth
        return mu

    monkeypatch.setattr(Dirichlet, "mobius", corrupted)
    vc = VaughanContext(f3, 4)
    with pytest.raises(ExactIdentityError, match="Lambda at f = "):
        vc.decompose(1, 1, unit_weight)


# ---------------------------------------------------------------------------
# the prefix sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, e, top", [(3, 1, 6), (5, 1, 6), (3, 2, 5)])
def test_prefix_sums_equal_the_definitions(p, e, top):
    """Every block read back from the prefix sums, and c1, c2 and c3 at
    every (u, v), equal their definitions summed from a kernel that reads
    no table, for n = 3 .. top."""
    ring = PolyRing(FieldCtx(p, e))
    for n in range(3, top + 1):
        vc = VaughanContext(ring, n)
        c1, blocks = definitions(ring, n)
        got = blocks_of(vc)
        assert sorted(got) == sorted(blocks)
        for key, block in blocks.items():
            assert (got[key] == block).all(), (n, key)
        for u in range(1, n - 1):
            for v in range(1, n - u):
                for a, b in zip(vc.coefficients(u, v), summed(c1, blocks, u, v)):
                    assert a.dtype == np.int64 and (a == b).all(), (n, u, v)


@pytest.mark.parametrize("p, e, n", [(3, 1, 6), (5, 1, 4), (3, 2, 4)])
def test_every_sum_is_the_dot_of_its_integer_vector(p, e, n):
    """decompose_all's lhs, s1, s2 and s3 for each (u, v) and weight are
    np.dot of the defined integer vector with the weight, bit for bit, and
    decompose gives the same report."""
    ring = PolyRing(FieldCtx(p, e))
    q = ring.ctx.q
    chi = CharSpec(ring.ctx, ring.ctx.scalar(1))
    weights = [np.ones(q**n, dtype=complex),
               np.array(charsum.char_values(chi))[_rs_table(ring, n)]]
    weights += [np.array(random_weight_values(ring, n, seed), dtype=complex)
                for seed in (7, 8)]
    vc = VaughanContext(ring, n)
    c1, blocks = definitions(ring, n)
    results = vc.decompose_all(weights)
    assert list(results) == [(u, v) for u in range(1, n - 1)
                             for v in range(1, n - u)]
    for (u, v), reports in results.items():
        vectors = (vc.lambdas, *summed(c1, blocks, u, v))
        for w, rep in zip(weights, reports, strict=True):
            dots = [complex(np.dot(c, w)) for c in vectors]
            assert [rep.lhs, rep.s1, rep.s2, rep.s3] == dots, (u, v)
            assert rep.residual == abs(dots[0] - (dots[1] - dots[2] + dots[3]))
            assert rep.as_dict() == vc.decompose(u, v, w).as_dict()


@pytest.mark.parametrize("da, db", [(0, 1), (1, 2), (2, 1), (2, 3), (3, 3),
                                    (1, 5), (4, 2)])
def test_one_corrupted_block_fails_exactly_its_cutoffs(f3, da, db):
    """A block entry off by one fails exactly the (u, v) whose c2 region
    (da <= u, db <= v) or c3 region (da > u, db > v) holds the block,
    naming its f; every other pair still passes."""
    n, i = 6, 100
    vc = VaughanContext(f3, n)
    for a in range(da, n - db + 1):       # column db from row da down
        vc.prefix[a + db][a][i] += 1
    f = f3.to_str(next(f3.monic_range(n, i, i + 1)))
    results = vc.decompose_all([np.ones(3**n, dtype=complex)])
    failed = {key: str(res) for key, res in results.items()
              if isinstance(res, ExactIdentityError)}
    assert sorted(failed) == [(u, v) for u in range(1, n - 1)
                              for v in range(1, n - u)
                              if (da <= u and db <= v) or (da > u and db > v)]
    for (u, v), message in failed.items():
        assert message == (f"c1 - c2 + c3 != Lambda at f = {f} for n={n}, "
                           f"u={u}, v={v}")
        with pytest.raises(ExactIdentityError, match=f"u={u}, v={v}"):
            vc.decompose(u, v, unit_weight)


def vaughan_cell(n, weights=1):
    return {"p": 3, "e": 1, "modulus": None, "cap": 10**8, "seed": 1,
            "weights": weights, "check": "vaughan", "n": n}


def test_failing_identity_fails_the_cell(f3, monkeypatch):
    """With mu(t) wrong every (u, v) fails, the default pair among them:
    run_cell reports each failing pair once per weight, in the order of a
    decompose per (u, v, weight), with no char_rs_report, and raises
    nothing."""
    n = 5
    mobius = Dirichlet.mobius

    def corrupted(self, k):
        mu = mobius(self, k)
        if k >= 1:
            mu[1][0] = 0        # mu(t) = -1 in truth
        return mu

    monkeypatch.setattr(Dirichlet, "mobius", corrupted)
    vc = VaughanContext(f3, n)
    names = ["unit", "char-rs", "random-0"]
    want = []
    for u in range(1, n - 1):
        for v in range(1, n - u):
            for name in names:
                try:
                    vc.decompose(u, v, np.ones(3**n))
                except ExactIdentityError as err:
                    want.append({"u": u, "v": v, "weight": name,
                                 "error": str(err)})
    assert len(want) == 6 * len(names)
    result = verify.run_cell(vaughan_cell(n))
    assert result["pass"] is False
    assert result["detail"]["failures"] == want
    assert result["detail"]["char_rs_report"] is None
    assert result["detail"]["combos"] == 0


def test_a_failure_off_the_default_cutoffs_keeps_the_report(monkeypatch):
    """A corrupted block (3, 1) at n = 5 fails only (u, v) = (3, 1): the
    cell fails, and the default pair (1, 3) still reports as when nothing
    is corrupted."""
    n = 5
    clean = verify.run_cell(vaughan_cell(n))
    build = VaughanContext.__init__

    def corrupted(self, ring, n):
        build(self, ring, n)
        self.prefix[4][3][10] += 1      # block (3, 1), the end of column 1

    monkeypatch.setattr(VaughanContext, "__init__", corrupted)
    result = verify.run_cell(vaughan_cell(n))
    detail = result["detail"]
    assert result["pass"] is False and clean["pass"] is True
    assert [(f["u"], f["v"]) for f in detail["failures"]] == [(3, 1)] * 3
    assert detail["combos"] == clean["detail"]["combos"] - 3
    assert detail["char_rs_report"] == clean["detail"]["char_rs_report"]


def test_a_second_context_builds_no_table(f3):
    """The per-process cache holds every table a context at q = 3, n = 10
    reads, one per degree 2 .. 10, so a second one, and a second mu and
    Lambda solve, miss none."""
    arith._degree_table.cache_clear()
    VaughanContext(f3, 10)
    info = arith._degree_table.cache_info()
    assert info.misses == 9
    VaughanContext(f3, 10)
    Dirichlet(f3).mobius(9)
    assert arith._degree_table.cache_info().misses == info.misses


@pytest.mark.parametrize("p, e, n", [(3, 1, 5), (5, 1, 4), (3, 2, 4)])
def test_char_rs_report_is_the_default_cutoff_decomposition(p, e, n):
    """The cell's char_rs_report is decompose at the default cutoffs with
    the char-rs weight, float for float, plus the sigma fields."""
    ring = PolyRing(FieldCtx(p, e))
    chi = CharSpec(ring.ctx, ring.ctx.scalar(1))
    values = np.array(charsum.char_values(chi))[_rs_table(ring, n)]
    want = VaughanContext(ring, n).decompose(*default_cutoffs(n), values)
    cell = dict(vaughan_cell(n, weights=2), p=p, e=e)
    got = verify.run_cell(cell)["detail"]["char_rs_report"]
    assert {key: got[key] for key in want.as_dict()
            if not key.startswith("sigma")} == {
        key: value for key, value in want.as_dict().items()
        if not key.startswith("sigma")}
    assert got["sigma1_exact"] is not None and got["sigma2_exact"] is not None
