import math

import numpy as np
import pytest

from rsfq import (
    Dirichlet,
    EnumerationCapError,
    FactorTable,
    FieldCtx,
    PolyRing,
    PolySet,
    ZeroPolynomialError,
    check_tau_bound,
    check_tau_second_moment,
    count_reversal_solutions,
    divisors_monic,
    mobius,
    scan_reversal_counts,
    tau,
    von_mangoldt,
)
from rsfq import arith, sieve
from rsfq.arith import FactorTable as _FT
from rsfq.sieve import product_indices
from rsfq.vaughan import VaughanContext


# ---------------------------------------------------------------------------
# divisors, tau, mobius, von Mangoldt
# ---------------------------------------------------------------------------

def test_divisor_examples(f3):
    t2 = f3.from_ints([0, 0, 1])
    divs = divisors_monic(f3, t2)
    assert [f3.to_str(d) for d in divs] == ["1", "0,1", "0,0,1"]
    assert tau(f3, t2) == 3
    assert tau(f3, f3.from_ints([1, 0, 1])) == 2          # irreducible
    assert tau(f3, f3.from_ints([0, 1, 1])) == 4          # t(t+1)


def test_zero_polynomial_rejected(f3):
    with pytest.raises(ZeroPolynomialError):
        divisors_monic(f3, ())
    with pytest.raises(ZeroPolynomialError):
        FactorTable(f3).factor(())


def test_mobius_examples(f3):
    assert mobius(f3, f3.one) == 1
    assert mobius(f3, f3.from_ints([0, 1])) == -1
    assert mobius(f3, f3.from_ints([0, 0, 1])) == 0
    assert mobius(f3, f3.from_ints([0, 1, 1])) == 1       # two primes


def test_von_mangoldt_examples(f3):
    assert von_mangoldt(f3, f3.from_ints([0, 0, 1])) == 1   # t^2
    assert von_mangoldt(f3, f3.from_ints([1, 0, 1])) == 2   # irreducible
    assert von_mangoldt(f3, f3.from_ints([0, 1, 1])) == 0   # t(t+1)
    assert von_mangoldt(f3, f3.one) == 0


def test_table_divisors_match_trial_division(f3):
    table = _FT(f3)
    for n in (1, 2, 3, 4):
        for f in f3.enumerate(PolySet.MONIC, n):
            fast = table.divisors(f)
            slow = divisors_monic(f3, f)
            assert fast == slow
            assert table.tau(f) == len(slow)


def test_non_monic_inputs_normalized(f3):
    table = _FT(f3)
    f = f3.from_ints([2, 0, 2])     # 2(t^2 + 1)
    assert table.tau(f) == 2
    assert table.mobius(f) == -1
    assert table.von_mangoldt(f) == 2


# ---------------------------------------------------------------------------
# summatory identities
# ---------------------------------------------------------------------------

def test_mobius_sum_identity(f3):
    """Sum of mu over monic divisors is the unit indicator."""
    table = _FT(f3)
    for n in range(0, 5):
        for f in f3.enumerate(PolySet.MONIC, n):
            total = sum(table.mobius(d) for d in table.divisors(f))
            assert total == (1 if f == f3.one else 0)


def test_von_mangoldt_sum_is_degree(f3):
    table = _FT(f3)
    for n in range(0, 5):
        for f in f3.enumerate(PolySet.MONIC, n):
            total = sum(table.von_mangoldt(d) for d in table.divisors(f))
            assert total == n


def test_von_mangoldt_mobius_convolution(f3):
    """Lambda(f) = sum over divisors a of mu(a) deg(f/a)."""
    table = _FT(f3)
    for n in range(1, 5):
        for f in f3.enumerate(PolySet.MONIC, n):
            total = 0
            for a in table.divisors(f):
                quot, rem = f3.divmod(f, a)
                assert not rem
                total += table.mobius(a) * (len(quot) - 1)
            assert total == table.von_mangoldt(f)


def test_prime_power_sum_is_qn(f3):
    table = _FT(f3)
    for n in range(1, 7):
        total = sum(table.von_mangoldt(f)
                    for f in f3.enumerate(PolySet.MONIC, n))
        assert total == 3**n


# ---------------------------------------------------------------------------
# tau bounds
# ---------------------------------------------------------------------------

def test_tau_bound_reports(f3, f5):
    rep = check_tau_bound(f3, 1)
    assert rep["observed"] == 2 and rep["bound"] == 2 and rep["pass"]
    rep = check_tau_bound(f3, 4)
    assert rep["pass"]
    assert rep["observed"] == 12        # t^2 (t+1)(t+2) and permutations
    assert rep["detail"]["soft_branch"] is not None
    assert check_tau_bound(f5, 3)["pass"]


def test_tau_bound_all_small_degrees(f3, f5):
    for ring in (f3, f5):
        for n in range(1, 6):
            assert check_tau_bound(ring, n)["pass"]


def test_tau_second_moment(f3, f5):
    rep = check_tau_second_moment(f3, 1)
    assert rep["observed"] == 12 and rep["bound"] == 12 and rep["pass"]
    for n in range(1, 7):
        assert check_tau_second_moment(f3, n)["pass"]
    for n in range(1, 5):
        assert check_tau_second_moment(f5, n)["pass"]


# ---------------------------------------------------------------------------
# reversal-equation counts
# ---------------------------------------------------------------------------

def test_reversal_count_frozen_cases(f3):
    rep = count_reversal_solutions(f3, f3.from_ints([0, 1]), 1)
    assert rep["observed"] == 2
    assert rep["detail"]["solutions"] == ["0,1", "0,2"]
    assert rep["detail"]["classes"] == 1
    rep = count_reversal_solutions(f3, f3.from_ints([1, 2, 1]), 1)
    assert rep["observed"] == 2         # t+1 and 2t+2
    rep = count_reversal_solutions(f3, f3.from_ints([1, 1, 1]), 1)
    assert rep["observed"] == 0


def test_reversal_scan_matches_per_f(f3):
    scan = scan_reversal_counts(f3, 1)
    assert scan["observed"] == 2 and scan["pass"]
    assert scan["detail"]["histogram"] == {"0": 16, "2": 2}
    for f in f3.enumerate(PolySet.DEGREE_EXACT, 2):
        rep = count_reversal_solutions(f3, f, 1)
        assert rep["pass"]


def test_reversal_scan_n2(f3):
    scan = scan_reversal_counts(f3, 2)
    assert scan["observed"] == 4 and scan["pass"]
    # the maximal case hits both the 2^n and the doubled divisor bound
    rep = count_reversal_solutions(f3, f3.from_ints([2, 0, 0, 0, 2]), 2)
    assert rep["observed"] == 4
    assert rep["detail"]["tau_bound"] == 4
    assert rep["detail"]["classes"] == 2


def full_enumeration_scan(ring, n):
    """scan_reversal_counts' histogram, argmax and inventory, read off a walk
    over every f of degree exactly 2n."""
    products = {}
    for a in ring.enumerate(PolySet.DEGREE_EXACT, n):
        products.setdefault(ring.mul(ring.reverse(a, n), a), []).append(a)
    max_count, max_f, hist, over = 0, None, {}, []
    for f in ring.enumerate(PolySet.DEGREE_EXACT, 2 * n):
        cnt = len(products.get(f, ()))
        hist[cnt] = hist.get(cnt, 0) + 1
        if cnt > 2**n:
            over.append((ring.to_str(f), cnt))
        if cnt > max_count:
            max_count, max_f = cnt, f
    return {"observed": max_count, "argmax": ring.to_str(max_f),
            "histogram": {str(k): v for k, v in sorted(hist.items())},
            "represented": sum(v for k, v in hist.items() if k),
            "counterexamples": over}


@pytest.mark.parametrize("p, e, n", [
    (3, 1, 0), (3, 1, 1), (3, 1, 2), (3, 1, 3), (5, 1, 1), (5, 1, 2),
    (5, 1, 3), (7, 1, 2), (3, 2, 1), (3, 2, 2), (11, 1, 2),
])
def test_reversal_scan_matches_full_enumeration(p, e, n):
    ring = PolyRing(FieldCtx(p, e))
    scan = scan_reversal_counts(ring, n)
    detail = scan["detail"]
    assert full_enumeration_scan(ring, n) == {
        "observed": scan["observed"], "argmax": detail["argmax"],
        "histogram": detail["histogram"], "represented": detail["represented"],
        "counterexamples": [(c["f"], c["count"])
                            for c in detail["counterexamples"]]}


def test_reversal_scan_keeps_both_cap_checks(f3):
    with pytest.raises(EnumerationCapError, match="enumeration of 18 elements"):
        scan_reversal_counts(PolyRing(f3.ctx, cap=17), 2)
    with pytest.raises(EnumerationCapError, match="enumeration of 162 elements"):
        scan_reversal_counts(PolyRing(f3.ctx, cap=161), 2)


# ---------------------------------------------------------------------------
# the Dirichlet convolution kernel against independent routes
# ---------------------------------------------------------------------------

KERNEL_CASES = [(3, 1, 5), (5, 1, 3), (7, 1, 3), (3, 2, 3), (5, 2, 2),
                (3, 3, 2)]


@pytest.mark.parametrize("p, e, n", KERNEL_CASES)
def test_kernel_matches_factor_table(p, e, n):
    """mu, Lambda and tau vectors equal FactorTable's for every monic of
    degree <= n at q in {3, 5, 7, 9, 25, 27}."""
    ring = PolyRing(FieldCtx(p, e))
    table = _FT(ring)
    kernel = Dirichlet(ring)
    mu, lam = kernel.mobius(n), kernel.von_mangoldt(n)
    for k in range(n + 1):
        monics = list(ring.enumerate(PolySet.MONIC, k))
        assert mu[k].tolist() == [table.mobius(f) for f in monics], k
        assert lam[k].tolist() == [table.von_mangoldt(f) for f in monics], k
        if k:
            assert kernel.tau(k).tolist() == [table.tau(f) for f in monics], k


@pytest.mark.parametrize("p, e, n", [(3, 1, 4), (5, 1, 2), (3, 2, 2)])
def test_kernel_tau_matches_trial_division(p, e, n):
    ring = PolyRing(FieldCtx(p, e))
    taus = Dirichlet(ring).tau(n)
    assert taus.tolist() == [len(divisors_monic(ring, f))
                             for f in ring.enumerate(PolySet.MONIC, n)]


@pytest.mark.parametrize("p, n", [(3, 6), (5, 4), (7, 3)])
def test_kernel_matches_sympy_factorization(p, n):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    zz = pytest.importorskip("sympy").ZZ
    ring = PolyRing(FieldCtx(p))
    kernel = Dirichlet(ring)
    mu, lam = kernel.mobius(n)[n], kernel.von_mangoldt(n)[n]
    taus = kernel.tau(n)
    for i, f in enumerate(ring.enumerate(PolySet.MONIC, n)):
        _, factors = galoistools.gf_factor(list(reversed(f)), p, zz)
        exps = [exp for _, exp in factors]
        assert taus[i] == math.prod(exp + 1 for exp in exps)
        assert mu[i] == (0 if any(exp > 1 for exp in exps)
                         else (-1) ** len(exps))
        assert lam[i] == (len(factors[0][0]) - 1 if len(factors) == 1 else 0)


@pytest.mark.parametrize("p, e, n", [(3, 1, 8), (5, 1, 5), (3, 2, 4),
                                     (5, 2, 3)])
def test_kernel_exact_sums(p, e, n):
    """Sum of Lambda over degree k is q^k; sum of mu is -q at k = 1 and 0
    above."""
    ring = PolyRing(FieldCtx(p, e))
    q = ring.ctx.q
    kernel = Dirichlet(ring)
    mu, lam = kernel.mobius(n), kernel.von_mangoldt(n)
    for k in range(1, n + 1):
        assert int(lam[k].sum()) == q**k
        assert int(mu[k].sum()) == (-q if k == 1 else 0)


def test_kernel_convolution_is_bilinear_product(f3):
    """convolve places x[a] * y[b] at the counting index of a*b."""
    kernel = Dirichlet(f3)
    rng = np.random.default_rng(5)
    x, y = rng.integers(-4, 5, 3**2), rng.integers(-4, 5, 3**3)
    want = np.zeros(3**5, dtype=np.int64)
    for i, a in enumerate(f3.enumerate(PolySet.MONIC, 2)):
        for j, b in enumerate(f3.enumerate(PolySet.MONIC, 3)):
            want[f3.index_of(f3.mul(a, b)[:-1])] += x[i] * y[j]
    assert (kernel.convolve(x, 2, y, 3) == want).all()
    assert (kernel.convolve(y, 3, x, 2) == want).all()


def test_kernel_refuses_vectors_above_the_cap(f3):
    kernel = Dirichlet(f3)
    with pytest.raises(EnumerationCapError):
        kernel.convolve(kernel.ones(1), 1, kernel.ones(1), 15)


def cache_state():
    return arith._degree_table.cache_info()


def test_fresh_kernel_keeps_no_tables(f3, monkeypatch):
    """A new kernel builds and reads no table."""
    before = cache_state()
    monkeypatch.setattr(arith, "product_indices", None)
    Dirichlet(f3)
    assert cache_state() == before


@pytest.mark.parametrize("p, e, d, m", [(3, 1, 2, 1), (3, 1, 1, 3),
                                        (5, 1, 2, 2), (3, 2, 1, 2)])
def test_product_table_is_the_counting_index_of_each_product(p, e, d, m):
    """products(d, m)[g, h] is the index of g*h; one table per degree
    d + m is kept per process, (m, d) is the transpose and another block
    of that table, every kernel of the field reads the same table, and a
    kept table cannot be written."""
    ring = PolyRing(FieldCtx(p, e))
    kernel = Dirichlet(ring)
    arith._degree_table.cache_clear()
    table = kernel.products(d, m)
    want = [[ring.index_of(ring.mul(g, h)[:-1])
             for h in ring.enumerate(PolySet.MONIC, m)]
            for g in ring.enumerate(PolySet.MONIC, d)]
    assert table.tolist() == want
    assert arith._degree_table.cache_info().currsize == 1
    swapped = kernel.products(m, d)
    assert (swapped == table.T).all() and swapped.base is table.base
    assert np.shares_memory(Dirichlet(ring).products(d, m), table)
    assert arith._degree_table.cache_info().currsize == 1
    assert not table.flags.writeable


def test_convolution_above_block_keeps_no_table(f3):
    """q^(1+11) = 531441 > BLOCK: both argument orders stream product
    blocks, keep nothing, and agree."""
    kernel = Dirichlet(f3)
    rng = np.random.default_rng(11)
    x, y = rng.integers(-4, 5, 3), rng.integers(-4, 5, 3**11)
    size = cache_state().currsize
    z = kernel.convolve(x, 1, y, 11)
    assert (z == kernel.convolve(y, 11, x, 1)).all()
    assert cache_state().currsize == size
    assert int(z.sum()) == int(x.sum()) * int(y.sum())


def test_streaming_kernel_matches_the_kept_tables(f3, monkeypatch):
    """A kernel without tables streams every convolution and gives the same
    mu, Lambda and tau, without ever reading a product table."""
    arith._degree_table.cache_clear()
    kept = Dirichlet(f3)
    kept_values = kept.mobius(5) + kept.von_mangoldt(5) + [kept.tau(5)]
    assert arith._degree_table.cache_info().currsize
    forbid_the_tables(monkeypatch)
    stream = Dirichlet(f3, tables=False)
    stream.products = None      # any call to the accessor fails
    for a, b in zip(kept_values,
                    stream.mobius(5) + stream.von_mangoldt(5) + [stream.tau(5)]):
        assert (a == b).all()


@pytest.mark.parametrize("p, e, n", [(3, 1, 5), (3, 2, 3)])
def test_streamed_blocks_across_h_match_the_kept_kernel(monkeypatch, p, e, n):
    """With sieve.BLOCK at 7 and at 64, product_indices cuts the h of a
    convolution into several blocks, and a kernel without tables still
    gives the kept kernel's mu, Lambda, tau and a two-row stack."""
    ring = PolyRing(FieldCtx(p, e))

    def values(kernel):
        mu, lam = kernel.mobius(n), kernel.von_mangoldt(n)
        stack = kernel.convolve_rows(
            [(np.stack([mu[2], lam[2]]), 2, kernel.ones(n - 2))], n)
        return mu + lam + [kernel.tau(k) for k in range(n + 1)] + [stack]

    want = values(Dirichlet(ring))
    real = arith.product_indices
    starts = []

    def recorded(*args):
        for gs, hs, idx in real(*args):
            starts.append(hs.start)
            yield gs, hs, idx

    monkeypatch.setattr(arith, "product_indices", recorded)
    for block in (7, 64):
        monkeypatch.setattr(sieve, "BLOCK", block)
        starts.clear()
        got = values(Dirichlet(ring, tables=False))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a == b).all()
        assert max(starts) > 0      # some block starts past the first h


def forbid_the_tables(monkeypatch):
    """Make every read of the per-process table cache fail."""
    def refuse(*args):
        raise AssertionError("a per-process index table was read")

    monkeypatch.setattr(arith, "_degree_table", refuse)


@pytest.mark.parametrize("p, e, n", [(3, 1, 5), (3, 2, 3)])
def test_independent_routes_never_read_the_table_caches(monkeypatch, p, e, n):
    """With the cache refusing, the streaming kernel still gives the
    kept kernel's mu, Lambda and tau, and s2_triple's coefficients still
    equal the grouped c2, at q in {3, 9}."""
    ring = PolyRing(FieldCtx(p, e))
    kept = Dirichlet(ring)
    want = kept.mobius(n) + kept.von_mangoldt(n) + [kept.tau(k)
                                                    for k in range(n + 1)]
    vc = VaughanContext(ring, n)
    grouped = {(u, v): vc.coefficients(u, v)[1]
               for u in range(1, n) for v in range(1, n - u)}
    forbid_the_tables(monkeypatch)
    with pytest.raises(AssertionError, match="index table was read"):
        Dirichlet(ring).tau(2)
    stream = Dirichlet(ring, tables=False)
    got = stream.mobius(n) + stream.von_mangoldt(n) + [stream.tau(k)
                                                        for k in range(n + 1)]
    assert len(got) == len(want)
    for a, b in zip(want, got):
        assert (a == b).all()
    for (u, v), c2 in grouped.items():
        assert (vc.triple_coefficients(u, v) == c2).all()


@pytest.mark.parametrize("route", ["divisor table", "convolution"])
def test_float_sums_raise_before_they_could_lose_exactness(f3, route):
    """bincount sums in float64: a divisor sum whose absolute weights
    total 2^53 raises OverflowError on both routes, one just below is
    exact."""
    kernel = Dirichlet(f3, tables=route == "divisor table")
    for a, fits in ((2**53 // 3 + 1, False), ((2**53 - 1) // 3, True)):
        f = [np.ones(1, dtype=np.int64), np.array([a, 0, 0])]
        if not fits:
            with pytest.raises(OverflowError, match="exact float range"):
                kernel._divisor_sum(f, 2)
            continue
        got = kernel._divisor_sum(f, 2)
        # Row 0 of the degree-(1, 1) products is t * h: indices 0, 3, 6.
        assert got.tolist() == [a, 0, 0, a, 0, 0, a, 0, 0]


def test_degree_zero_values(f3):
    """mu_0 = 1, Lambda_0 = 0 and tau_0 = 1: one int64 entry each."""
    kernel = Dirichlet(f3)
    tau0, (mu0,), (lam0,) = (kernel.tau(0), kernel.mobius(0),
                             kernel.von_mangoldt(0))
    for value, want in ((tau0, 1), (mu0, 1), (lam0, 0)):
        assert value.dtype == np.int64 and value.tolist() == [want]


def direct_table(ctx, d, m) -> np.ndarray:
    """(q^d, q^m) indices of g*h assembled entry by entry from the blocks
    of product_indices over ctx.basis."""
    q = ctx.q
    out = np.full((q**d, q**m), -1, dtype=np.int64)
    for gs, hs, idx in product_indices(np.arange(q**d), d, m, ctx.p,
                                       ctx.basis):
        g, h = np.arange(q**d)[gs], np.arange(q**m)[hs]
        out[g[:, None], h[None]] = idx
    assert (out >= 0).all()
    return out


def test_warm_table_caches_see_a_corrupted_basis():
    """After a clean F_9 kernel has filled the cache, a fresh ctx whose
    basis says w^2 = 1 gets tables of its own: its products and its mu,
    Lambda and tau to degree 3 are those of product_indices over that
    basis, not the clean ones."""
    clean = Dirichlet(PolyRing(FieldCtx(3, 2)))
    clean_values = (clean.mobius(3) + clean.von_mangoldt(3)
                    + [clean.tau(k) for k in range(4)])
    clean_tables = [clean.products(1, 1), clean.products(1, 2)]
    assert arith._degree_table.cache_info().currsize
    ctx = FieldCtx(3, 2)
    ctx.basis = ctx.basis.copy()
    ctx.basis[1, 1] = [1, 0]                  # digits of w^2
    ring = PolyRing(ctx)
    kernel = Dirichlet(ring)
    for (d, m), clean_table in zip([(1, 1), (1, 2)], clean_tables):
        table = kernel.products(d, m)
        assert (table == direct_table(ctx, d, m)).all()
        assert (table != clean_table).any()
    values = (kernel.mobius(3) + kernel.von_mangoldt(3)
              + [kernel.tau(k) for k in range(4)])
    stream = Dirichlet(ring, tables=False)
    want = (stream.mobius(3) + stream.von_mangoldt(3)
            + [stream.tau(k) for k in range(4)])
    for a, b in zip(values, want):
        assert (a == b).all()
    assert any((a != b).any() for a, b in zip(values, clean_values))


# ---------------------------------------------------------------------------
# the provable reversal-count bound N(f) <= 2 d_n(f)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)])
def test_reversal_divisor_bound_holds_and_is_attained(p, n):
    """N(f) <= 2 d_n(f), with d_n from FactorTable.divisors, holds for every
    f, some f attains it, and the scan lists exactly the f above 2^n."""
    ring = PolyRing(FieldCtx(p))
    table = _FT(ring)
    counts: dict = {}
    for a in ring.enumerate(PolySet.DEGREE_EXACT, n):
        f = ring.mul(ring.reverse(a, n), a)
        counts[f] = counts.get(f, 0) + 1
    attained = False
    above = []
    for f in sorted(counts, key=ring.index_of):
        bound = 2 * sum(1 for d in table.divisors(f) if len(d) - 1 == n)
        assert counts[f] <= bound, ring.to_str(f)
        attained = attained or counts[f] == bound
        if counts[f] > 2**n:
            above.append({"f": ring.to_str(f), "count": counts[f],
                          "divisor_bound": bound})
    assert attained
    scan = scan_reversal_counts(ring, n)
    detail = scan["detail"]
    assert detail["divisor_bound_holds"] and detail["divisor_bound_attained"]
    assert detail["counterexamples"] == above
    assert scan["pass"] == (not above)


def test_reversal_inventory_q5_contains_square_of_t2_plus_1(f5):
    scan = scan_reversal_counts(f5, 2)
    assert not scan["pass"] and scan["observed"] == 6
    inventory = {c["f"]: c for c in scan["detail"]["counterexamples"]}
    assert inventory["1,0,2,0,1"] == {"f": "1,0,2,0,1", "count": 6,
                                      "divisor_bound": 6}
    rep = count_reversal_solutions(f5, f5.from_ints([1, 0, 2, 0, 1]), 2)
    assert rep["observed"] == 6 and rep["detail"]["divisor_bound"] == 6
    assert not rep["pass"]


def test_reversal_count_divisor_bound_small_cases(f3):
    rep = count_reversal_solutions(f3, f3.from_ints([0, 1]), 1)
    assert rep["detail"]["divisor_bound"] == 2       # t itself
    rep = count_reversal_solutions(f3, f3.from_ints([1, 1, 1]), 1)
    assert rep["detail"]["divisor_bound"] == 2       # (t + 2)^2
    rep = count_reversal_solutions(f3, f3.from_ints([2]), 1)
    assert rep["detail"]["divisor_bound"] == 0 and rep["observed"] == 0
