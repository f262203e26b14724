import numpy as np
import pytest

from rsfq import (
    DegreeBoundError,
    FieldCtx,
    NotMonicError,
    PolyRing,
    PolySet,
    autocorrelation,
    reversal_product_correlations,
    rudin_shapiro,
)
from rsfq.rudin import rs_values


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
