"""Digit functionals on coefficient vectors and the reversal-product link.

autocorrelation(f, lag, n) sums f_i * f_(i-lag) for i = lag..n against an
explicit degree bound n, so padded coefficient vectors (top coefficients
zero) are handled without ambiguity.  The lag-1 value of a monic polynomial
minus its second-highest coefficient is the Rudin-Shapiro value R, which
rs_values reads off counting indices in bulk (rudin_shapiro is its oracle).
lag_sums and reversal_products read every autocorrelation and the product
reverse(a, n) * a off the counting indices of the polynomials a of degree
<= n in bulk, by two routes that share no field arithmetic: lag_sums
contracts integer sums of digit products with the powers of the field
generator w, reversal_products multiplies coefficients by Horner's rule
through the modulus.  The star cell compares them; autocorrelation and
reversal_product_correlations are their oracles, and neither bulk route
builds a q x q table.  quadform reads every multiplier form of one degree
off lag_sums.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeBoundError, NotMonicError
from .field import field_tables
from .poly import PolyRing
from .vecenum import digits, int_dtype


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
    table (q = 4093 is in range); over F_(p^e) they go through the tables
    of field.field_tables.
    """
    ctx = ring.ctx
    q = ctx.q
    add, mul = field_tables(ctx.key()) if ctx.e > 1 else (None, None)
    values = np.zeros_like(idx)
    low = idx % q
    for k in range(1, n):
        high = idx // q**k % q
        values = (values + high * low if add is None
                  else add[values, mul[high, low]])
        low = high
    return values % q


def _sum_products(ctx, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element indices of sum_k x_k * y_k from (K, e, ...) base-p digit arrays.

    The e x e integer sums of x_l * y_j are contracted with the digits of
    w^(l+j) and reduced mod p once; at e = 1 that is sum x_k y_k mod p.
    """
    e = ctx.e
    # Row l of the e x e integer sums holds sum_k x_kl * y_kj over j, and
    # basis[l, j] is w^(l+j): each row is added into the antidiagonals,
    # which are contracted with w^0, ..., w^(2e-2).
    diagonals = np.zeros((2 * e - 1,) + x.shape[2:], dtype=np.int64)
    for l in range(e):
        diagonals[l:l + e] += np.einsum("k...,kj...->j...", x[:, l], y)
    powers = np.concatenate([ctx.basis[0], ctx.basis[-1, 1:]])
    coords = np.einsum("mc,m...->c...", powers, diagonals) % ctx.p
    return np.einsum("c,c...->...", ctx.p ** np.arange(e), coords)


def _coefficient_digits(ctx, n: int, idx: np.ndarray) -> np.ndarray:
    """(n+1, e, *idx.shape) base-p digits of a_0, ..., a_n at counting
    indices idx, which hold the coefficients as base-q digits."""
    cols = digits(idx, ctx.p, (n + 1) * ctx.e)
    cols = cols.reshape(cols.shape[:-1] + (n + 1, ctx.e))
    return np.ascontiguousarray(np.moveaxis(cols, (-2, -1), (0, 1)))


def lag_sums(ring: PolyRing, n: int, idx: np.ndarray) -> np.ndarray:
    """(n+1, *idx.shape) array whose row lag is autocorrelation(a, lag, n).

    a ranges over the polynomials of degree <= n at counting indices idx
    (the DEGREE_AT_MOST order).
    """
    a = _coefficient_digits(ring.ctx, n, idx)
    return np.stack([_sum_products(ring.ctx, a[lag:], a[:n + 1 - lag])
                     for lag in range(n + 1)])


def _field_products(ctx, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Base-p digits of x * y for broadcastable (e, ...) digit arrays.

    Horner's rule in the digits of y: acc = acc * w + y_j * x for
    j = e-1, ..., 0, where acc * w moves every digit up one place and folds
    the top one back through the modulus, w^e = -(m_0 + ... + m_(e-1)
    w^(e-1)).  It shares no step with _sum_products, which reads the
    powers of w off ctx.basis.  Only the folded digit is reduced before the
    end, so every entry stays below 2e p^2.
    """
    p, e = ctx.p, ctx.e
    fold = [(d, -c % p) for d, c in enumerate(ctx.modulus[:e]) if c % p]
    acc = [y[e - 1] * x[d] for d in range(e)]
    for j in range(e - 2, -1, -1):
        top = acc.pop() % p
        acc.insert(0, np.zeros_like(top))
        for d, c in fold:
            acc[d] += c * top
        for d in range(e):
            acc[d] += y[j] * x[d]
    return np.stack(acc) % p


def reversal_products(ring: PolyRing, n: int, idx: np.ndarray) -> np.ndarray:
    """(2n+1, *idx.shape) coefficients of reverse(a, n) * a, t^0 first.

    Coefficient k sums r_i * a_(k-i) over every i with 0 <= i, k-i <= n,
    r_i = a_(n-i), for the polynomials a of degree <= n at counting indices
    idx.  Each product of two coefficients is formed by _field_products and
    the sums are digit-wise mod p, so this route and lag_sums share no
    field arithmetic.
    """
    ctx = ring.ctx
    # The narrowest dtype that holds every entry of _field_products.
    a = np.moveaxis(_coefficient_digits(ctx, n, idx), 1, 0).astype(
        int_dtype(2 * ctx.e * ctx.p**2))
    pairs = _field_products(ctx, a[:, :, None], a[:, None])  # [:, i, j]: a_i a_j
    place = ctx.p ** np.arange(ctx.e)
    out = []
    for k in range(2 * n + 1):
        i = np.arange(max(0, k - n), min(k, n) + 1)
        coeff = pairs[:, n - i, k - i].sum(axis=1) % ctx.p
        out.append(np.tensordot(place, coeff, axes=1))
    return np.stack(out)


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
