import cmath
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from itertools import product as iproduct

import numpy as np
import pytest

from rsfq import (
    CharSpec,
    EnumerationCapError,
    FieldCtx,
    PolyRing,
    PolySet,
    TrivialCharacterError,
    char_eval,
    char_values,
    bab_matrix,
    matrix_rank,
    max_gauss_magnitude,
    monic_slice_rank,
    qa_matrix,
    qa_matrix_entrywise,
    quad_form_char_sum,
    rs_char_sum_over_set,
    rs_pair_char_sum,
    scan_gauss_bound,
    sym_matrix,
)
from rsfq import charsum, quadform
from rsfq.charsum import gauss_counts, roots_of_unity
from rsfq.quadform import bilinear_eval, quad_eval
from rsfq.vecenum import coeff_digits

ALL_Q = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
         (3, 2), (5, 2), (3, 3)]


def nontrivial_chars(ctx):
    return [CharSpec(ctx, b) for b in ctx.elements() if b != ctx.zero()]


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_trivial_character_is_one(f3):
    chi0 = CharSpec(f3.ctx, 0)
    assert chi0.is_trivial()
    for x in f3.ctx.elements():
        assert char_eval(chi0, x) == 1


def test_prime_field_character_frozen(f3):
    chi = CharSpec(f3.ctx, 1)
    assert abs(char_eval(chi, 1) - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_orthogonality_all_small_fields():
    """Sum of a non-trivial character over the field vanishes, q <= 27."""
    for p, e in ALL_Q:
        ctx = FieldCtx(p, e)
        for chi in nontrivial_chars(ctx):
            total = sum(char_values(chi))
            assert abs(total) < 1e-10, (p, e, chi.beta)


def test_multiplicative_over_addition():
    for p, e in ((3, 1), (5, 1), (3, 2)):
        ctx = FieldCtx(p, e)
        for chi in nontrivial_chars(ctx):
            for x in ctx.elements():
                for y in ctx.elements():
                    lhs = char_eval(chi, ctx.add(x, y))
                    rhs = char_eval(chi, x) * char_eval(chi, y)
                    assert abs(lhs - rhs) < 1e-12


def test_unit_modulus():
    ctx = FieldCtx(3, 2)
    for chi in nontrivial_chars(ctx):
        for x in ctx.elements():
            assert abs(abs(char_eval(chi, x)) - 1) < 1e-12


# ---------------------------------------------------------------------------
# quadratic form sums
# ---------------------------------------------------------------------------

def test_quad_sum_frozen_cases(f3):
    ctx = f3.ctx
    chi = CharSpec(ctx, 1)
    zero = ctx.zero()
    flat = sym_matrix(ctx, [[zero, zero], [zero, zero]])
    assert abs(quad_form_char_sum(flat, (zero, zero), chi) - 9) < 1e-12
    square = sym_matrix(ctx, [[1]])
    val = quad_form_char_sum(square, (zero,), chi)
    assert abs(abs(val) - math.sqrt(3)) < 1e-12
    assert abs(quad_form_char_sum(flat, (1, zero), chi)) < 1e-12


def test_quad_sum_preconditions(f3):
    ctx = f3.ctx
    flat = sym_matrix(ctx, [[ctx.zero()]])
    with pytest.raises(TrivialCharacterError):
        quad_form_char_sum(flat, (ctx.zero(),), CharSpec(ctx, 0))
    with pytest.raises(EnumerationCapError):
        quad_form_char_sum(flat, (ctx.zero(),), CharSpec(ctx, 1), cap=2)


def test_squaring_identity_random_instances():
    """|sum psi(Q+L)|^2 equals sum_h psi(Q(h)+L(h)) sum_x psi(2 B_h(x))."""
    rng = random.Random(7)
    for p in (3, 5):
        ctx = FieldCtx(p)
        ring = PolyRing(ctx)
        chi = CharSpec(ctx, 1)
        for _ in range(4):
            m = rng.choice((2, 3))
            rows = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    rows[i][j] = rows[j][i] = rng.randrange(p)
            mat = sym_matrix(ctx, rows)
            linear = tuple(rng.randrange(p) for _ in range(m))
            direct = quad_form_char_sum(mat, linear, chi)
            total = 0j
            from itertools import product as iproduct
            for h in iproduct(ctx.elements(), repeat=m):
                qh = sum(h[i] * sum(rows[i][j] * h[j] for j in range(m))
                         for i in range(m)) % p
                lh = sum(h[i] * linear[i] for i in range(m)) % p
                inner = 0j
                for x in iproduct(ctx.elements(), repeat=m):
                    bh = bilinear_eval(mat, h, x)
                    inner += char_eval(chi, ctx.mul(ctx.scalar(2), bh))
                total += char_eval(chi, ctx.scalar(qh + lh)) * inner
            assert abs(abs(direct) ** 2 - total.real) < 1e-6
            assert abs(total.imag) < 1e-6


# ---------------------------------------------------------------------------
# weighted polynomial sums
# ---------------------------------------------------------------------------

def test_rs_sum_orthogonality_collapse(f3):
    chi = CharSpec(f3.ctx, 1)
    val = rs_char_sum_over_set(f3, PolySet.MONIC, 2, f3.one, chi, "R")
    assert abs(val - 3) < 1e-12


def test_pair_sum_self_is_cardinality(f3):
    chi = CharSpec(f3.ctx, 1)
    g = f3.from_ints([1, 1])
    for i in (2, 3, 4):
        val = rs_pair_char_sum(f3, i, g, g, chi)
        assert abs(val - 3**i) < 1e-12


def test_rs_sum_lag1_weight_obeys_rank_bound(f3):
    """Autocorrelation-weighted sums over the full h-space meet the bound
    coming from the multiplier form's rank."""
    chi = CharSpec(f3.ctx, 1)
    g = f3.from_ints([0, 1])
    for n in (2, 3):
        val = rs_char_sum_over_set(f3, PolySet.DEGREE_AT_MOST, n, g, chi, "S")
        mat = qa_matrix(f3, g, n + 1)
        bound = 3.0 ** (mat.dim - matrix_rank(mat) / 2)
        assert abs(val) <= bound + 1e-6


def test_rs_sum_rejects_trivial_character(f3):
    with pytest.raises(TrivialCharacterError):
        rs_char_sum_over_set(f3, PolySet.MONIC, 2, f3.one,
                             CharSpec(f3.ctx, 0), "R")


# ---------------------------------------------------------------------------
# the bound scan
# ---------------------------------------------------------------------------

def test_gauss_scan_small_all_pass(f3):
    for n in (2, 3, 4):
        reports = scan_gauss_bound(f3, n)
        assert reports and all(r["pass"] for r in reports)


def test_gauss_scan_charges_the_counts_per_form(f3):
    """A form of dimension m has q^(m+1) Gauss counts; at q = 3, n = 8 the
    largest, m = 9 at k = 0, fits the default cap."""
    reports = scan_gauss_bound(f3, 8)
    assert len(reports) == 40 and all(r["pass"] for r in reports)
    with pytest.raises(EnumerationCapError,
                       match="enumeration of 59049 elements"):
        scan_gauss_bound(PolyRing(f3.ctx, cap=3**10 - 1), 8)
    mat = qa_matrix(f3, f3.one, 3)
    assert mat.dim == 4
    with pytest.raises(EnumerationCapError, match="q\\^5 = 243 exceeds"):
        max_gauss_magnitude(mat, cap=3**5 - 1)
    assert max_gauss_magnitude(mat, cap=3**5) == max_gauss_magnitude(mat)


def test_gauss_scan_agrees_with_direct_sums(f3):
    """Vectorized worst-case magnitudes are reproduced by the plain
    per-form enumeration on a small instance."""
    ctx = f3.ctx
    n = 3
    reports = scan_gauss_bound(f3, n)
    by_a = {r["a"]: r for r in reports if r["k"] == 1}
    from itertools import product as iproduct
    for a_str, rep in by_a.items():
        mat = qa_matrix(f3, f3.parse(a_str), n)
        worst = 0.0
        for beta in (1, 2):
            chi = CharSpec(ctx, beta)
            for linear in iproduct(ctx.elements(), repeat=mat.dim):
                worst = max(worst, abs(quad_form_char_sum(mat, linear, chi)))
        assert abs(worst - rep["max_magnitude"]) < 1e-9


def test_gauss_scan_extension_field(f9):
    reports = scan_gauss_bound(f9, 2)
    assert reports and all(r["pass"] for r in reports)


@pytest.mark.parametrize("p, e, n", [
    (3, 1, 4), (5, 1, 4), (7, 1, 3), (3, 2, 3), (5, 2, 1), (3, 3, 1),
])
def test_gauss_scan_is_exact(p, e, n):
    """Every form passes the integer dichotomy.  The zero linear part is
    orthogonal to every radical, so the largest |S|^2 is exactly
    q^(2 dim - rank), and the floating-point oracle agrees with it."""
    ring = PolyRing(FieldCtx(p, e))
    q = ring.ctx.q
    reports = scan_gauss_bound(ring, n)
    assert reports and all(r["pass"] for r in reports)
    for rep in reports:
        assert rep["max_abs_sq"] == q ** (2 * rep["dim"] - rep["rank"])
        assert rep["max_magnitude"] == math.sqrt(rep["max_abs_sq"])
        mat = qa_matrix(ring, ring.parse(rep["a"]), n)
        assert matrix_rank(mat) == rep["rank"]
        assert abs(max_gauss_magnitude(mat) - rep["max_magnitude"]) < 1e-9


def test_gauss_scan_fails_on_a_wrong_count(monkeypatch, f3):
    """Moving one x to another value in one histogram breaks the integer
    check: every form of the scan fails."""
    real_counts = charsum.gauss_counts

    def moved(forms, ctx):
        counts = real_counts(forms, ctx).copy()
        each = np.arange(len(counts))
        v = counts[:, :, 0].argmax(axis=1)
        counts[each, v, 0] -= 1
        counts[each, (v + 1) % 3, 0] += 1
        return counts

    monkeypatch.setattr(charsum, "gauss_counts", moved)
    reports = scan_gauss_bound(f3, 3)
    assert reports and not any(r["pass"] for r in reports)


def test_decode_abs_flags_and_pairs():
    """Over F_3, c = (1, 0, 0), (2, 1, 0), (3, 0, 0) give |S|^2 = 1, 3, 9,
    so |S| = 1, sqrt(3), 3; (1, 1, 1) gives 0 and (2, 0, 0) gives 4, no
    power of 3.  Over F_5, (1, 1, 0, 0, 0) has uneven A_d."""
    r3, r5 = np.arange(3), np.arange(5)
    abs_sq, k, exact = charsum.decode_abs(np.array([
        [1, 0, 0], [2, 1, 0], [3, 0, 0], [1, 1, 1], [2, 0, 0]]),
        (r3[:, None] + r3) % 3, 3)
    assert abs_sq.tolist() == [1, 3, 9, 0, 4]
    assert k.tolist() == [0, 1, 2, charsum.ZERO, charsum.NOT_POWER]
    assert exact.tolist() == [[1, 0], [0, 1], [3, 0], [0, 0], [0, 0]]
    k = charsum.decode_abs(np.array([[1, 1, 0, 0, 0], [2, 1, 1, 1, 1]]),
                           (r5[:, None] + r5) % 5, 5)[1]
    assert k.tolist() == [charsum.UNEVEN, 0]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pair_exceeds_agrees_with_decimals(p):
    """pair_exceeds(x, y, p) says x[0] + x[1] sqrt(p) > y[0] + y[1] sqrt(p)
    for every pair of pairs with entries in [-12, 12], ties included, as
    40-digit decimals do: a nonzero a + b sqrt(p) with |a|, |b| <= 24 is
    |a^2 - p b^2| / |a - b sqrt(p)| > 1/100 in size."""
    pairs = [(a, b) for a in range(-12, 13) for b in range(-12, 13)]
    with localcontext() as ctx:
        ctx.prec = 40
        root = Decimal(p).sqrt()
        values = [a + b * root for a, b in pairs]
    got = [charsum.pair_exceeds(x, y, p) for x in pairs for y in pairs]
    assert got == [vx > vy for vx in values for vy in values]


def test_oracles_never_call_the_kernel(monkeypatch, f9):
    """The per-form builders, ranks and character sums stay independent of
    the bulk forms and the batched rank kernel."""
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle called the bulk path")

    for module in (quadform, charsum):
        for name in ("form_ranks", "qa_forms", "bab_forms", "_eliminate"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    a, b = f9.parse("1+1,1+0"), f9.parse("0+1,1+0")
    for mat in (qa_matrix(f9, a, 3), qa_matrix_entrywise(f9, a, 3),
                bab_matrix(f9, a, b, 3)):
        assert matrix_rank(mat) >= monic_slice_rank(mat)
    mat = qa_matrix(f9, a, 2)
    assert max_gauss_magnitude(mat) > 0
    assert abs(quad_form_char_sum(mat, (0, 0), CharSpec(f9.ctx, 1))) > 0


def _worst_magnitude_all_pairs(ctx, mat):
    """Prime-field brute force: X @ X.T pairs every x with every linear part
    L, one integer histogram per L, then the worst sum over all characters."""
    p, m = ctx.p, mat.dim
    x = coeff_digits(p**m, p, m).astype(np.int64)
    m_np = np.array(mat.rows, dtype=np.int64)
    quad_vals = ((x @ m_np) * x).sum(axis=1) % p
    phases = (quad_vals[:, None] + x @ x.T) % p
    counts = np.stack([(phases == r).sum(axis=0) for r in range(p)])
    roots = np.array(roots_of_unity(p), dtype=np.complex128)
    worst = 0.0
    for beta in range(1, p):
        omega = roots[(beta * np.arange(p)) % p]
        worst = max(worst, float(np.abs((counts.T * omega).sum(axis=1)).max()))
    return worst


def test_gauss_scan_paths_agree(f3, f5):
    """The staged transform reproduces the all-pairs X @ X.T histogram
    route bit for bit on prime fields."""
    for ring, n_max in ((f3, 4), (f5, 3)):
        for n in range(2, n_max + 1):
            for k in range((n - 1) // 2 + 1):
                for a in ring.enumerate(PolySet.MONIC, k):
                    mat = qa_matrix(ring, a, n)
                    fast = max_gauss_magnitude(mat)
                    slow = _worst_magnitude_all_pairs(ring.ctx, mat)
                    assert fast == slow


def _random_symmetric(ctx, rng, m):
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = rng.randrange(ctx.q)
    return sym_matrix(ctx, rows)


def _full_rank_symmetric(ctx, rng, m):
    while True:
        mat = _random_symmetric(ctx, rng, m)
        if matrix_rank(mat) == m:
            return mat


@pytest.mark.parametrize("p, e, dims", [
    (3, 1, (1, 2, 3)), (5, 1, (1, 2)), (7, 1, (1, 2)), (3, 2, (1, 2)),
    (5, 2, (1, 2)), (3, 3, (1, 2)),
])
def test_gauss_counts_match_direct_enumeration(p, e, dims):
    """Every entry of counts[v, L] equals the number of x with
    Q(x) + L.x = v, enumerated per linear part L with field operations."""
    ctx = FieldCtx(p, e)
    rng = random.Random(1000 * p + e)
    for m in dims:
        zero = sym_matrix(ctx, [[0] * m for _ in range(m)])
        for mat in (zero, _full_rank_symmetric(ctx, rng, m),
                    _random_symmetric(ctx, rng, m)):
            counts = gauss_counts(mat)
            assert counts.shape == (ctx.q, ctx.q**m)
            assert counts.dtype == np.int64
            xs = list(iproduct(range(ctx.q), repeat=m))
            quads = [quad_eval(mat, x[::-1]) for x in xs]
            for col, linear in enumerate(iproduct(range(ctx.q), repeat=m)):
                linear = linear[::-1]
                hist = [0] * ctx.q
                for x, val in zip(xs, quads):
                    for li, xi in zip(linear, x[::-1]):
                        val = ctx.add(val, ctx.mul(li, xi))
                    hist[val] += 1
                assert counts[:, col].tolist() == hist, (p, e, m, col)


def test_gauss_scan_memory_stays_small(f5):
    """At q=5, m=5 the scan holds O(q^(m+1)) entries, not a q^m x q^m
    matrix (176 MB traced for the all-pairs route)."""
    mat = qa_matrix(f5, (1,), 4)
    assert mat.dim == 5
    tracemalloc.start()
    try:
        max_gauss_magnitude(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_gauss_bound_on_difference_forms(f3):
    """The rank bound also holds over every difference form with every
    linear part, using the exact computed ranks."""
    from rsfq import bab_matrix
    for n, k in ((4, 1), (5, 1), (5, 2)):
        monics = list(f3.enumerate(PolySet.MONIC, k))
        for a in monics:
            for b in monics:
                mat = bab_matrix(f3, a, b, n)
                rank = matrix_rank(mat)
                bound = 3.0 ** (mat.dim - rank / 2)
                assert max_gauss_magnitude(mat) <= bound + 1e-6
