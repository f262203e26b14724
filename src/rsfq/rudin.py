"""Digit functionals on coefficient vectors and the reversal-product link.

autocorrelation(f, lag, n) sums f_i * f_(i-lag) for i = lag..n against an
explicit degree bound n, so padded coefficient vectors (top coefficients
zero) are handled without ambiguity.  The lag-1 value of a monic polynomial
minus its second-highest coefficient is the Rudin-Shapiro value R, which
rs_values reads off counting indices in bulk (rudin_shapiro is its oracle).
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeBoundError, NotMonicError
from .poly import PolyRing
from .vecenum import index_tables


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


def rs_values(ring: PolyRing, n: int, idx: np.ndarray) -> np.ndarray:
    """R of the monic degree-n polynomials at counting indices idx (n >= 2).

    The counting index of f holds f_0, ..., f_(n-1) as base-q digits.  Over
    F_p the products are summed as integers and reduced once, with no q x q
    table (q = 4093 is in range); over F_(p^e) they go through index_tables.
    """
    ctx = ring.ctx
    q = ctx.q
    add, mul = index_tables(ctx.p, ctx.basis) if ctx.e > 1 else (None, None)
    values = np.zeros_like(idx)
    low = idx % q
    for k in range(1, n):
        high = idx // q**k % q
        values = (values + high * low if add is None
                  else add[values, mul[high, low]])
        low = high
    return values % q


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
