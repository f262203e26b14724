"""Vectorized digit blocks and the q x q index tables of F_q.

An element index of F_q = F_p^e is its base-p coordinate vector in the
power basis of the modulus, constant coordinate least significant.  Adding
two elements adds their digits mod p without carry; multiplying by x is an
F_p-linear map whose matrix comes from the powers w^0, ..., w^(2e-2) of
the root w of the modulus (Lidl & Niederreiter, Finite Fields, ch. 10 on
tables).  index_tables builds the add/mul tables of the whole field from
those two facts in numpy; field.field_tables keeps one read-only pair per
field for FieldCtx and charsum's Gauss counts.  mul_matrices also blows up
quadform's forms for their F_p rank kernel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def int_dtype(max_value: int) -> np.dtype:
    """Narrowest signed integer dtype that holds every value in [0, max_value]."""
    return np.min_scalar_type(-max_value - 1)


def coeff_digits(count: int, base: int, width: int) -> np.ndarray:
    """(count, width) array whose row i holds the base-`base` digits of i.

    Column 0 is the least significant digit, matching counting order.  The
    dtype is the narrowest one that holds a digit below `base`.
    """
    out = np.empty((count, width), dtype=int_dtype(base - 1))
    idx = np.arange(count, dtype=np.int64)
    for j in range(width):
        out[:, j] = (idx % base).astype(out.dtype)
        idx //= base
    return out


def rows_to_indices(rows: np.ndarray, base: int) -> np.ndarray:
    """Inverse of coeff_digits: base-`base` value of each row, int64."""
    acc = np.zeros(rows.shape[0], dtype=np.int64)
    mult = 1
    for j in range(rows.shape[1]):
        acc += rows[:, j].astype(np.int64) * mult
        mult *= base
    return acc


def digits(values, p: int, width: int) -> np.ndarray:
    """(..., width) int64 base-p digits of `values`, least significant first."""
    rest = np.asarray(values, dtype=np.int64).copy()
    out = np.empty(rest.shape + (width,), dtype=np.int64)
    for j in range(width):
        out[..., j] = rest % p
        rest //= p
    return out


@lru_cache(maxsize=16)
def digit_add_table(p: int, s: int) -> np.ndarray:
    """Carry-free base-p addition of s digits by one lookup.

    Each summand holds its base-p digits at the place values of base
    b = 2p - 1.  A digit sum is at most 2p - 2 < b, so the plain integer sum
    z of two summands keeps every digit sum apart, and entry z of this
    (b^s,) table is the base-p number of those digit sums mod p, in the
    narrowest dtype that holds it.  Built one digit at a time: appending a
    top digit of place value b^k turns the k-digit table T into
    (D * p^k)[:, None] + T, D the digit sums mod p.  The 16 most recently
    used (p, s) are kept, read-only, and shared.
    """
    dtype = int_dtype(p**s - 1)
    digit = (np.arange(2 * p - 1) % p).astype(dtype)
    table = np.zeros(1, dtype=dtype)
    for k in range(s):
        table = ((digit * p**k)[:, None] + table[None, :]).reshape(-1)
    table.setflags(write=False)
    return table


def wide_places(p: int, width: int) -> np.ndarray:
    """The place values (2p - 1)^k, k < width, that digit_add_table reads."""
    return (2 * p - 1) ** np.arange(width, dtype=np.int64)


def basis_products(w_powers) -> np.ndarray:
    """(e, e, e) array whose [l, j] holds the base-p digits of w^(l+j).

    `w_powers` lists the e digits of w^0, ..., w^(2e-2).
    """
    w = np.array(w_powers, dtype=np.int64)
    e = w.shape[1]
    return np.stack([w[l:l + e] for l in range(e)])


def mul_matrices(basis: np.ndarray, x_digits: np.ndarray, p: int) -> np.ndarray:
    """(..., e, e) F_p matrices of multiplication by the elements `x_digits`.

    Row j of the matrix of x holds the digits of x * w^j, so a row vector of
    digits times it gives the digits of the product.
    """
    return np.tensordot(x_digits, basis, axes=([-1], [0])) % p


def index_tables(p: int, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q x q tables of element indices: add[i, j] and mul[i, j]."""
    e = basis.shape[0]
    q = p**e
    dtype = int_dtype(q - 1)
    x = digits(np.arange(q), p, e)
    wide = x @ wide_places(p, e)
    add = digit_add_table(p, e)[wide[:, None] + wide].astype(dtype)
    mats = mul_matrices(basis, x, p)
    mul = np.zeros((q, q), dtype=np.int64)
    for k in range(e):
        mul += (x @ mats[:, :, k].T) % p * p**k
    return add, mul.astype(dtype)


def sub_table(add: np.ndarray) -> np.ndarray:
    """q x q table sub[x, y] = x - y, from the add table of index_tables."""
    return add[:, (add == 0).argmax(axis=1)]
