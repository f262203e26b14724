"""Digit functionals on coefficient vectors and the reversal-product link.

autocorrelation(f, lag, n) sums f_i * f_(i-lag) for i = lag..n against an
explicit degree bound n, so padded coefficient vectors (top coefficients
zero) are handled without ambiguity.  The lag-1 value of a monic polynomial
minus its second-highest coefficient is the Rudin-Shapiro value.
"""

from __future__ import annotations

from .errors import DegreeBoundError, NotMonicError
from .poly import PolyRing


def autocorrelation(ring: PolyRing, f, lag: int, n: int):
    """Sum of f_i * f_(i-lag) for i = lag..n; zero for lag > n (empty sum)."""
    if lag < 0:
        raise DegreeBoundError("lag must be >= 0")
    deg = ring.degree(f)
    if deg is not None and deg > n:
        raise DegreeBoundError(f"deg f = {deg} exceeds the bound n = {n}")
    add, mul = ring.ctx.add_table, ring.ctx.mul_table
    total = 0
    for i in range(lag, len(f)):
        total = add[total][mul[f[i]][f[i - lag]]]
    return total


def rudin_shapiro(ring: PolyRing, f):
    """Sum of adjacent coefficient products f_i * f_(i-1), i = 1..deg f - 1.

    Defined for monic f of degree >= 2; the leading coefficient does not
    enter the sum.
    """
    if not ring.is_monic(f):
        raise NotMonicError("Rudin-Shapiro value needs a monic polynomial")
    n = len(f) - 1
    if n < 2:
        raise DegreeBoundError("Rudin-Shapiro value needs degree >= 2")
    add, mul = ring.ctx.add_table, ring.ctx.mul_table
    total = 0
    for i in range(1, n):
        total = add[total][mul[f[i]][f[i - 1]]]
    return total


def reversal_product_correlations(ring: PolyRing, a, n: int) -> list:
    """Read every autocorrelation of a off the product reverse(a, n) * a.

    Returns the coefficients of t^(n-lag) in the product for lag = 0..n,
    which equal autocorrelation(a, lag, n).  The product is palindromic of
    length 2n+1 (coefficient of t^(n+lag) matches t^(n-lag)); that symmetry
    is re-checked here because downstream rank arguments rely on it.
    """
    deg = ring.degree(a)
    if deg is not None and deg > n:
        raise DegreeBoundError(f"deg a = {deg} exceeds the bound n = {n}")
    prod = ring.mul(ring.reverse(a, n), a)
    out = []
    for lag in range(n + 1):
        low = ring.coeff(prod, n - lag)
        high = ring.coeff(prod, n + lag)
        if low != high:
            raise AssertionError(
                f"reversal product is not palindromic at lag {lag}: "
                f"{ring.to_str(prod)}"
            )
        out.append(low)
    return out
