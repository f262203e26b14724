"""Digit functionals on coefficient vectors and the reversal-product link.

autocorrelation(f, lag, n) sums f_i * f_(i-lag) for i = lag..n against an
explicit degree bound n, so padded coefficient vectors (top coefficients
zero) are handled without ambiguity.  The lag-1 value of a monic polynomial
minus its second-highest coefficient is the Rudin-Shapiro value R, which
rs_values reads off counting indices in bulk (rudin_shapiro is its oracle).
lag_sums and reversal_products read every autocorrelation and the product
reverse(a, n) * a off a range of counting indices of the polynomials a of
degree <= n in bulk, by two routes that share no field arithmetic:
lag_sums contracts integer sums of digit products with the powers of the
field generator w, reversal_products multiplies coefficients by Horner's
rule through the modulus.  Both cut the range into pieces in which each
coefficient is fixed or runs over a range of elements on an axis of its
own, form each product a_x * a_y once on the subgrid of its two
coefficients, and sum those digit arrays over the piece by broadcasting.
Besides the output, no array exceeds about BLOCK entries: a piece holds
at most BLOCK digits of sums, and over F_(p^e) the products are formed on
the whole q x q grid only when q^2 fits in BLOCK, else on the rows a piece
needs.  A whole grid is formed once per route and field in a process and
kept read-only, for the 8 most recently used (route, field) pairs.  The
star cell compares them, and the lin-red cell lag_sums with rs_values,
which sums the Horner products too; no bulk route reads the field's
tables.  quadform keeps the lag_sums of the monics of each degree per
field and reads every multiplier form off them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DegreeBoundError, NotMonicError
from .field import basis_key
from .poly import PolyRing
from .sieve import BLOCK, blocks
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
    table (q = 4093 is in range).  Over F_(p^e) each f_k f_(k-1) comes from
    _subgrids of _field_products, the Horner route of reversal_products, in
    sieve.blocks of idx, and the digit sums are reduced mod p once.
    """
    ctx = ring.ctx
    p, e, q = ctx.p, ctx.e, ctx.q
    if e == 1:
        values = np.zeros_like(idx)
        low = idx % q
        for k in range(1, n):
            high = idx // q**k % q
            values = values + high * low
            low = high
        return values % q
    flat = np.asarray(idx).ravel()
    values = np.empty(flat.shape, dtype=int_dtype(q - 1))
    product = _subgrids(_field_products, (p, e, ctx.modulus),
                        np.min_scalar_type((n - 1) * (p - 1)))
    # A block holds n coefficients and a few digits of products per index.
    for start, stop in blocks(len(flat), n + 6 * e):
        f = digits(flat[start:stop], q, n).T.copy()    # contiguous rows f_k
        sums = sum(product(f[k], f[k - 1]) for k in range(1, n))
        values[start:stop] = p ** np.arange(e) @ (sums % p)
    return values.reshape(np.shape(idx))


def _sum_products(field: tuple, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Base-p digits of x * y for broadcastable (e, ...) digit arrays.

    field is (p, e, the int64 bytes of ctx.basis).  The integer sums of
    x_l * y_j over l + j = m are contracted with the digits of w^m, read
    off the basis, and reduced mod p once.
    """
    p, e, basis = field
    basis = np.frombuffer(basis, dtype=np.int64).reshape(e, e, e)
    shape = np.broadcast_shapes(x.shape[1:], y.shape[1:])
    diagonals = np.zeros((2 * e - 1,) + shape, dtype=np.int64)
    for l in range(e):
        diagonals[l:l + e] += x[l] * y
    powers = np.concatenate([basis[0], basis[-1, 1:]])
    return np.einsum("mc,m...->c...", powers, diagonals) % p


def _field_products(field: tuple, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Base-p digits of x * y for broadcastable (e, ...) digit arrays.

    field is (p, e, ctx.modulus).  Horner's rule in the digits of y:
    acc = acc * w + y_j * x for j = e-1, ..., 0, where acc * w moves every
    digit up one place and folds the top one back through the modulus,
    w^e = -(m_0 + ... + m_(e-1) w^(e-1)).  It shares no step with
    _sum_products, which reads the powers of w off ctx.basis.  Only the
    folded digit is reduced before the end, so every entry stays below
    2e p^2.
    """
    p, e, modulus = field
    fold = [(d, -c % p) for d, c in enumerate(modulus[:e]) if c % p]
    acc = [y[e - 1] * x[d] for d in range(e)]
    for j in range(e - 2, -1, -1):
        top = acc.pop() % p
        acc.insert(0, np.zeros_like(top))
        for d, c in fold:
            acc[d] += c * top
        for d in range(e):
            acc[d] += y[j] * x[d]
    return np.stack(acc) % p


def _pieces(q: int, n: int, start: int, stop: int, size: int):
    """Cut the counting range [start, stop) of degree <= n into pieces.

    A piece (offset, j, top, lo, hi) is the polynomials whose coefficients
    above a_j are the base-q digits of top, whose a_j runs over [lo, hi)
    and whose a_0, ..., a_(j-1) are free: the counting indices from
    start + offset on, in the C order of an (hi - lo, q, ..., q) array
    whose last axis is a_0.  A piece holds at most max(size, 1)
    polynomials.
    """
    pos = start
    while pos < stop:
        j = 0
        while (j < n and pos % q ** (j + 1) == 0
               and pos + q ** (j + 1) <= stop and q ** (j + 1) <= size):
            j += 1
        step = q**j
        lo = pos // step % q
        hi = min(q, lo + (stop - pos) // step, lo + max(1, size // step))
        yield pos - start, j, pos // step // q, lo, hi
        pos += (hi - lo) * step


def _spread(x: np.ndarray, p: int, e: int) -> np.ndarray:
    """(e, *x.shape) base-p digits of the element indices x, in the
    narrowest dtype that holds every entry of either route."""
    digit_of = x // (p ** np.arange(e)).reshape((e,) + (1,) * x.ndim) % p
    return digit_of.astype(int_dtype(2 * e * p * p))


@lru_cache(maxsize=8)
def _grid(route, field: tuple) -> np.ndarray:
    """route's products of every pair of elements of F_(p^e): the
    read-only (e, q, q) array whose [:, x, y] holds the base-p digits of
    x * y, in the narrowest dtype that holds a digit.

    Built once per route and field.  field is exactly what route reads,
    (p, e, basis bytes) or (p, e, modulus), so a ctx whose basis or
    modulus differs gets a grid of its own.  The 8 most recently used are
    kept; _subgrids asks only while q^2 fits in BLOCK, so a grid holds
    at most e * BLOCK bytes.
    """
    p, e, _ = field
    whole = _spread(np.arange(p**e), p, e)
    grid = route(field, whole[:, :, None], whole[:, None])
    grid = grid.astype(np.min_scalar_type(p - 1))
    grid.setflags(write=False)
    return grid


def _subgrids(route, field: tuple, digit):
    """product(x, y): base-p digits of the products of two broadcastable
    arrays of element indices.

    Over F_p the indices are the elements, and product is a plain
    broadcast multiply mod p in their dtype.  Over F_(p^e) it is an
    (e, *shape) array in dtype digit, indexed off the whole q x q grid of
    route (_grid) when q^2 fits in BLOCK, else formed by route on each
    subgrid.
    """
    p, e, _ = field
    if e == 1:
        return lambda x, y: x * y % p

    # The whole grid is indexed per pair and piece, instead of running
    # route per pair and piece.  At q = 9 (sum of per-cell best of 40,
    # 2-CPU host), even with the grid formed once per call, the star
    # cells, n <= 3, took 1.3-1.4 ms this way against 2.2 ms, and the
    # cells of the verify-ext benchmark workload 6.9-7.5 ms against
    # 8.5 ms; _grid now forms it once per field and route.
    if p ** (2 * e) <= BLOCK:
        # One take of the flat pair index x q + y gathers faster than
        # indexing the (e, q, q) grid by x and y.
        grid = _grid(route, field).reshape(e, -1)
        return lambda x, y: grid.take(x.astype(np.intp) * p**e + y,
                                      axis=1).astype(digit, copy=False)
    return lambda x, y: route(
        field, _spread(x, p, e), _spread(y, p, e)).astype(digit)


def _correlate(field: tuple, n: int, start: int, stop: int, route,
               rows) -> np.ndarray:
    """(len(rows), stop - start) element indices of sums of coefficient
    products over the counting range [start, stop) of degree <= n.

    Row r sums a_x * a_y over the ordered pairs (x, y) of rows[r].  The
    range is cut into pieces (_pieces) of about BLOCK digits of row sums.
    In a piece each a_i is fixed or runs over a range of elements on an
    axis of its own, so the product a_x * a_y is formed once per pair on
    its subgrid (_subgrids), never more entries than the piece has, and
    each row is a broadcast sum of those digit arrays over the piece,
    reduced mod p once.  field = (p, e, ...) is what route reads.
    """
    p, e, _ = field
    q = p**e
    out = np.empty((len(rows), stop - start), dtype=int_dtype(q - 1))
    # Row sums of at most n + 1 product digits below p.
    most = (n + 1) * (p - 1)
    digit = np.min_scalar_type(most)
    # Element indices; over F_p they are multiplied before reduction.
    index = np.min_scalar_type(max(q - 1, (p - 1) ** 2, most))
    product = _subgrids(route, field, digit)
    size = BLOCK // (len(rows) * e)
    for offset, j, top, lo, hi in _pieces(q, n, start, stop, size):
        shape = (hi - lo,) + (q,) * j
        # a_i on piece axis j - i; a fixed a_i (i > j) on no axis.
        coeffs = [np.arange(q, dtype=index).reshape(
            (1,) * (j - i) + (q,) + (1,) * i) for i in range(j)]
        coeffs.append(np.arange(lo, hi, dtype=index).reshape((-1,) + (1,) * j))
        coeffs += [np.full((1,) * (j + 1), c, dtype=index)
                   for c in digits(top, q, n - j).tolist()]
        sums = np.empty((len(rows), e) + shape, dtype=digit)
        for r, pairs in enumerate(rows):
            # Each pair's product is formed on its own, in order: no pair
            # repeats within a piece, and (y, x) never reuses (x, y)'s,
            # which keeps the star's palindrome check a check.  Lowest
            # coefficients last, so the partial sums stay small.
            terms = (product(coeffs[x], coeffs[y]) for x, y in pairs)
            total = next(terms)
            for _ in pairs[1:-1]:
                total = total + next(terms)
            if len(pairs) > 1:
                np.add(total, next(terms), out=sums[r])
            else:
                sums[r] = total
        np.remainder(sums, p, out=sums)
        view = out[:, offset:offset + sums[0, 0].size].reshape(
            (len(rows),) + shape)
        view[...] = sums[:, e - 1]
        for c in range(e - 2, -1, -1):
            view *= p
            view += sums[:, c]
    return out


def lag_sums(ring: PolyRing, n: int, start: int, stop: int) -> np.ndarray:
    """(n+1, stop - start) array whose row lag is autocorrelation(a, lag, n).

    a ranges over the polynomials of degree <= n at the counting indices
    [start, stop) (the DEGREE_AT_MOST order).  Each product a_x a_(x-lag)
    comes from _sum_products.
    """
    rows = [[(x, x - lag) for x in range(n, lag - 1, -1)]
            for lag in range(n + 1)]
    return _correlate(basis_key(ring.ctx.p, ring.ctx.basis), n, start, stop,
                      _sum_products, rows)


def _lag1_sums(ring: PolyRing, n: int, start: int, stop: int) -> np.ndarray:
    """Row 1 of lag_sums(ring, n, start, stop) for n >= 1, without the
    other rows."""
    rows = [[(x, x - 1) for x in range(n, 0, -1)]]
    return _correlate(basis_key(ring.ctx.p, ring.ctx.basis), n, start, stop,
                      _sum_products, rows)[0]


def reversal_products(ring: PolyRing, n: int, start: int, stop: int) -> np.ndarray:
    """(2n+1, stop - start) coefficients of reverse(a, n) * a, t^0 first.

    Coefficient k sums r_i * a_(k-i) over every i with 0 <= i, k-i <= n,
    r_i = a_(n-i), for the polynomials a of degree <= n at the counting
    indices [start, stop).  Each product is formed by _field_products with
    r_i as x, and the sums are digit-wise mod p, so this route and
    lag_sums share no field arithmetic.
    """
    rows = [[(n - i, k - i) for i in range(max(0, k - n), min(k, n) + 1)]
            for k in range(2 * n + 1)]
    field = (ring.ctx.p, ring.ctx.e, ring.ctx.modulus)
    return _correlate(field, n, start, stop, _field_products, rows)


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
