import random

import numpy as np
import pytest

from rsfq import (
    DegreeBoundError,
    EnumerationCapError,
    FieldCtx,
    NotMonicError,
    PolyRing,
    PolySet,
    adjacent_pair_matrix,
    autocorrelation,
    bab_matrix,
    matrix_rank,
    monic_slice_rank,
    qa_matrix,
    qa_matrix_entrywise,
    quad_eval,
    scan_bab_ranks,
    scan_qa_ranks,
    sym_matrix,
)
from rsfq import charsum, quadform
from rsfq.cli import main
from rsfq.quadform import bab_forms, form_ranks, multipliers, qa_forms
from rsfq.verify import BAB_LEVEL_BUDGET


# ---------------------------------------------------------------------------
# base form and rank
# ---------------------------------------------------------------------------

def test_base_matrix_frozen(f3):
    ctx = f3.ctx
    m2 = adjacent_pair_matrix(ctx, 2)
    assert m2.rows == ((0, 2), (2, 0))      # 1/2 = 2 in F_3
    assert adjacent_pair_matrix(ctx, 1).rows == ((0,),)


def test_base_matrix_evaluates_lag1(f3):
    ctx = f3.ctx
    for n in range(1, 5):
        base = adjacent_pair_matrix(ctx, n + 1)
        for f in f3.enumerate(PolySet.DEGREE_AT_MOST, n):
            x = tuple(f3.coeff(f, i) for i in range(n + 1))
            assert quad_eval(base, x) == autocorrelation(f3, f, 1, n)


def test_matrix_rank_frozen(f3):
    ctx = f3.ctx
    zero = ctx.zero()
    one = ctx.one()
    assert matrix_rank(sym_matrix(ctx, [[zero] * 3] * 3)) == 0
    ident = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert matrix_rank(sym_matrix(ctx, ident)) == 3
    assert matrix_rank(sym_matrix(ctx, [[0, 2], [2, 0]])) == 2


def test_sym_matrix_rejects_asymmetric(f3):
    with pytest.raises(ValueError):
        sym_matrix(f3.ctx, [[0, 1], [2, 0]])


def test_rank_plus_kernel_is_dim(f3):
    for n in range(2, 6):
        for k in range((n - 1) // 2 + 1):
            for a in f3.enumerate(PolySet.MONIC, k):
                mat = qa_matrix(f3, a, n)
                assert matrix_rank(mat) <= mat.dim


# ---------------------------------------------------------------------------
# multiplier forms
# ---------------------------------------------------------------------------

def test_qa_frozen_cases(f3):
    mat = qa_matrix(f3, f3.from_ints([0, 1]), 4)
    assert mat.rows == (
        (0, 2, 0, 0), (2, 0, 2, 0), (0, 2, 0, 2), (0, 0, 2, 0),
    )
    assert matrix_rank(mat) == 4
    base3 = qa_matrix(f3, f3.one, 2)
    assert matrix_rank(base3) == 2      # tridiagonal zero-diag 3x3 is singular


def test_qa_preconditions(f3):
    with pytest.raises(NotMonicError):
        qa_matrix(f3, f3.from_ints([1, 2]), 4)
    with pytest.raises(DegreeBoundError):
        qa_matrix(f3, f3.from_ints([0, 0, 1]), 2)


def test_qa_routes_agree_exhaustive():
    """Composition route equals the autocorrelation-entry route."""
    for p in (3, 5):
        ring = PolyRing(FieldCtx(p))
        for n in range(2, 8):
            for k in range(min((n - 1) // 2, 3) + 1):
                for a in ring.enumerate(PolySet.MONIC, k):
                    assert qa_matrix(ring, a, n).rows == \
                        qa_matrix_entrywise(ring, a, n).rows


def test_qa_evaluates_product_correlation(f3):
    for n in (3, 4, 5):
        for k in range((n - 1) // 2 + 1):
            for a in f3.enumerate(PolySet.MONIC, k):
                mat = qa_matrix(f3, a, n)
                for h in f3.enumerate(PolySet.DEGREE_AT_MOST, n - k):
                    x = tuple(f3.coeff(h, i) for i in range(n - k + 1))
                    want = autocorrelation(f3, f3.mul(a, h), 1, n)
                    assert quad_eval(mat, x) == want


def test_bab_is_difference_of_qa(f3):
    n = 5
    for k in (1, 2):
        monics = list(f3.enumerate(PolySet.MONIC, k))
        for a in monics:
            for b in monics:
                diff = bab_matrix(f3, a, b, n)
                qa = qa_matrix(f3, a, n)
                qb = qa_matrix(f3, b, n)
                for i in range(diff.dim):
                    for j in range(diff.dim):
                        want = f3.ctx.sub(qa.rows[i][j], qb.rows[i][j])
                        assert diff.rows[i][j] == want


def test_bab_same_multiplier_is_zero(f3):
    a = f3.from_ints([1, 1])
    mat = bab_matrix(f3, a, a, 5)
    assert matrix_rank(mat) == 0


def test_bab_evaluates_difference(f3):
    n = 5
    k = 1
    monics = list(f3.enumerate(PolySet.MONIC, k))
    for a in monics:
        for b in monics:
            mat = bab_matrix(f3, a, b, n)
            for h in f3.enumerate(PolySet.DEGREE_AT_MOST, n - k):
                x = tuple(f3.coeff(h, i) for i in range(n - k + 1))
                want = f3.ctx.sub(
                    autocorrelation(f3, f3.mul(a, h), 1, n),
                    autocorrelation(f3, f3.mul(b, h), 1, n),
                )
                assert quad_eval(mat, x) == want


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_qa_scan_examples(f3):
    reports = {(r.k, r.a): r for r in scan_qa_ranks(f3, 5)}
    for a in ("0,1", "1,1", "2,1"):
        assert reports[(1, a)].rank >= 3
    for a in (r.a for r in reports.values() if r.k == 2):
        assert reports[(2, a)].rank >= 2


def test_qa_scan_known_boundary_counterexamples(f3):
    """The n - k - 1 lower bound fails at explicit boundary instances; the
    scan must report them honestly rather than assume an all-pass."""
    reports = {(r.k, r.a): r for r in scan_qa_ranks(f3, 6)}
    bad = reports[(2, "2,1,1")]             # t^2 + t + 2
    assert bad.rank == 2 and bad.bound == 3 and not bad.passed
    assert bad.kernel_dim == 3
    bad2 = reports[(2, "2,2,1")]            # t^2 + 2t + 2
    assert bad2.rank == 2 and not bad2.passed
    # and at n = 5 every form makes its rank bound
    assert all(r.passed for r in scan_qa_ranks(f3, 5))


def test_monic_slice_rank_behavior(f3):
    """Fixing the top coefficient can cost two ranks; frozen instances."""
    mat = qa_matrix(f3, f3.from_ints([0, 1]), 4)
    assert matrix_rank(mat) == 4
    assert monic_slice_rank(mat) == 2
    # t^2 + 1 at n = 5: the sliced quadratic part vanishes entirely
    mat2 = qa_matrix(f3, f3.from_ints([1, 0, 1]), 5)
    assert matrix_rank(mat2) == 2
    assert monic_slice_rank(mat2) == 0


def test_bab_scan_bounds_hold(f3):
    """Distinct reversal products force rank >= n - 2k - 1 throughout."""
    for n in range(2, 8):
        for k in range((n - 1) // 2 + 1):
            out = scan_bab_ranks(f3, n, k)
            assert all(r.passed for r in out["reports"])
            assert all(r.monic_rank >= r.bound - 1 for r in out["reports"])
            for entry in out["coincidence_sets"]:
                assert entry["size"] >= 1


def test_bab_scan_coincidence_sets(f3):
    out = scan_bab_ranks(f3, 5, 2)
    sizes = {entry["a"]: entry["size"] for entry in out["coincidence_sets"]}
    # reversal products collide for 2 of the 9 monic quadratics
    assert max(sizes.values()) == 2
    assert out["pairs_checked"] + out["pairs_excluded"] == 81


def test_q5_scan_has_boundary_counterexamples():
    ring = PolyRing(FieldCtx(5))
    fails = [r for r in scan_qa_ranks(ring, 6) if not r.passed]
    assert {r.a for r in fails} == {"2,0,1", "3,0,1"}


# ---------------------------------------------------------------------------
# the per-field multiplier table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (3, 2)])
def test_multiplier_table_matches_the_oracles(p, e):
    """Every row of the table is the autocorrelations of its monic, and
    every name its PolyRing.to_str, in counting order; both read-only."""
    ring = PolyRing(FieldCtx(p, e))
    for k in range(4):
        lags, names = multipliers(ring, k)
        monics = list(ring.enumerate(PolySet.MONIC, k))
        assert lags.shape == (len(monics), k + 1)
        assert not lags.flags.writeable
        assert lags.tolist() == [[autocorrelation(ring, a, lag, k)
                                  for lag in range(k + 1)] for a in monics]
        assert names == tuple(ring.to_str(a) for a in monics)


def test_multiplier_table_is_keyed_by_the_modulus():
    """F_9 under the modulus 2,1,1 gets lags of its own, each table
    matching its own field's autocorrelations."""
    rings = [PolyRing(FieldCtx(3, 2)), PolyRing(FieldCtx(3, 2, (2, 1, 1)))]
    tables = [multipliers(ring, 2)[0] for ring in rings]
    assert (tables[0] != tables[1]).any()
    for ring, lags in zip(rings, tables):
        monics = ring.enumerate(PolySet.MONIC, 2)
        assert lags.tolist() == [[autocorrelation(ring, a, lag, 2)
                                  for lag in range(3)] for a in monics]


def test_scans_charge_each_degree_to_the_cap_before_its_table():
    """A degree whose q^k monics exceed the ring's cap raises before its
    table is built, as ring.enumerate did."""
    ring = PolyRing(FieldCtx(3), cap=26)
    quadform._multiplier_table.cache_clear()
    with pytest.raises(EnumerationCapError,
                       match="enumeration of 27 elements exceeds the cap 26"):
        scan_qa_ranks(ring, 7)
    assert quadform._multiplier_table.cache_info().currsize == 3   # k <= 2


@pytest.mark.parametrize("check, count", [("rank-qa", 27), ("gauss", 81),
                                          ("rank-bab", 81)])
def test_capped_scans_keep_their_usage_errors(capsys, check, count):
    """Below q^k the rank-qa, gauss and rank-bab cells still exit 2 with
    the message of the first set they would enumerate."""
    assert main(["--cap", "20", "verify", check]) == 2
    assert capsys.readouterr().err == (
        f"rsfq: enumeration of {count} elements exceeds the cap 20\n")


def test_oracles_never_read_the_multiplier_table(monkeypatch, f9):
    """qa_matrix, qa_matrix_entrywise, bab_matrix, matrix_rank and
    autocorrelation still answer with the table raising."""
    def forbidden(ctx, k):
        raise AssertionError("the multiplier table was read")

    monkeypatch.setattr(quadform, "_multiplier_table", forbidden)
    a, b = f9.from_ints([1, 1]), f9.from_ints([2, 1])
    assert matrix_rank(qa_matrix(f9, a, 4)) >= 2
    assert qa_matrix_entrywise(f9, a, 4) == qa_matrix(f9, a, 4)
    assert matrix_rank(bab_matrix(f9, a, b, 4)) >= 1
    assert autocorrelation(f9, a, 1, 1) == 1
    with pytest.raises(AssertionError, match="multiplier table was read"):
        qa_forms(f9, 4, 1)
    with pytest.raises(AssertionError, match="multiplier table was read"):
        charsum.scan_gauss_bound(f9, 2)


# ---------------------------------------------------------------------------
# bulk forms and the batched rank kernel
# ---------------------------------------------------------------------------

BULK_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]


def _rows(mat):
    return [list(row) for row in mat.rows]


def _ranks(mat):
    return matrix_rank(mat), monic_slice_rank(mat)


@pytest.mark.parametrize("p, e", BULK_FIELDS)
def test_bulk_qa_forms_and_ranks_match_oracles(p, e):
    """Every bulk multiplier form equals qa_matrix (the composition route)
    and its kernel rank and monic rank equal the per-form elimination."""
    ring = PolyRing(FieldCtx(p, e))
    for n in range(2, 6):
        for k in range((n - 1) // 2 + 1):
            monics = list(ring.enumerate(PolySet.MONIC, k))
            forms = qa_forms(ring, n, k)
            ranks, monic_ranks = form_ranks(ring.ctx, forms)
            assert len(forms) == len(monics)
            for a, form, rank, mrank in zip(monics, forms, ranks, monic_ranks):
                mat = qa_matrix(ring, a, n)
                assert form.tolist() == _rows(mat), (p, e, n, a)
                assert (rank, mrank) == _ranks(mat), (p, e, n, a)


@pytest.mark.parametrize("p, e", BULK_FIELDS)
def test_bulk_bab_forms_and_ranks_match_oracles(p, e):
    """Every pair the rank-bab cell scans (q^(2k) <= BAB_LEVEL_BUDGET,
    n <= 5): the coincidences are those of the reversal products, each
    difference form equals bab_matrix and its ranks equal the per-form
    elimination."""
    ring = PolyRing(FieldCtx(p, e))
    for n in range(2, 6):
        for k in range((n - 1) // 2 + 1):
            if ring.ctx.q ** (2 * k) > BAB_LEVEL_BUDGET:
                break
            monics = list(ring.enumerate(PolySet.MONIC, k))
            star = [ring.mul(ring.reverse(a, k), a) for a in monics]
            same, forms = bab_forms(ring, n, k)
            assert same.tolist() == [[x == y for y in star] for x in star]
            ranks, monic_ranks = form_ranks(ring.ctx, forms)
            pairs = zip(*np.nonzero(~same), forms, ranks, monic_ranks)
            for i, j, form, rank, mrank in pairs:
                mat = bab_matrix(ring, monics[i], monics[j], n)
                assert form.tolist() == _rows(mat), (p, e, n, i, j)
                assert (rank, mrank) == _ranks(mat), (p, e, n, i, j)


def test_bulk_forms_above_table_q():
    """A seeded sample over F_(3^6), whose elements are digit views: bulk
    multiplier forms, and difference forms formed with the field's own
    subtraction, against qa_matrix, bab_matrix and the per-form ranks."""
    ring = PolyRing(FieldCtx(3, 6))
    ctx = ring.ctx
    rng = random.Random(36)
    for n, k in ((2, 0), (3, 1), (4, 1)):
        forms = qa_forms(ring, n, k)
        picks = rng.sample(range(len(forms)), min(12, len(forms)))
        monics = [next(ring.monic_range(k, i, i + 1)) for i in picks]
        for i, a in zip(picks, monics):
            assert forms[i].tolist() == _rows(qa_matrix(ring, a, n))
        ranks, monic_ranks = form_ranks(ctx, forms[picks])
        for a, rank, mrank in zip(monics, ranks, monic_ranks):
            assert (rank, mrank) == _ranks(qa_matrix(ring, a, n))
        pairs = list(zip(picks, monics))[:6]
        diffs = np.array([
            [[ctx.sub(x, y) for x, y in zip(row_a, row_b)]
             for row_a, row_b in zip(forms[i].tolist(), forms[j].tolist())]
            for i, _ in pairs for j, _ in pairs])
        ranks, monic_ranks = form_ranks(ctx, diffs)
        mats = [bab_matrix(ring, a, b, n) for _, a in pairs for _, b in pairs]
        for diff, mat, rank, mrank in zip(diffs, mats, ranks, monic_ranks):
            assert diff.tolist() == _rows(mat)
            assert (rank, mrank) == _ranks(mat)


def test_form_ranks_frozen_and_rejects_asymmetric(f3, f9):
    """Ranks of fixed forms, including the three ways the last row can add
    to the rank of the leading block (0, 1 and 2), and a non-symmetric
    block is refused."""
    forms = np.array([
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],      # rank 0
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],      # c only: +1
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],      # b outside col(A): +2
        [[1, 0, 1], [0, 0, 0], [1, 0, 1]],      # c = b^T A^- b: +0
        [[1, 2, 0], [2, 1, 0], [0, 0, 2]],      # 1 - 4 = 0 mod 3: rank 2
    ])
    ranks, monic_ranks = form_ranks(f3.ctx, forms)
    assert ranks.tolist() == [0, 1, 2, 1, 2]
    assert monic_ranks.tolist() == [0, 0, 0, 1, 1]
    for form, rank, mrank in zip(forms, ranks, monic_ranks):
        assert (rank, mrank) == _ranks(sym_matrix(f3.ctx, form.tolist()))
    w = 3                                       # w^2 = -1 in F_9
    ranks, monic_ranks = form_ranks(f9.ctx, np.array([[[1, w], [w, 2]]]))
    assert (ranks.tolist(), monic_ranks.tolist()) == ([1], [1])
    with pytest.raises(ValueError):
        form_ranks(f3.ctx, np.array([[[0, 1], [2, 0]]]))
