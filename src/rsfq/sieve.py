"""Composite marking over the monic polynomials of one degree.

Every composite monic polynomial of degree n has a monic irreducible factor
of degree at most n/2, so marking the products g*h for each such g (h
ranging over all monic polynomials of the complementary degree) covers the
composites exactly; the unmarked remainder are the irreducibles.  Products
are computed for whole coefficient blocks at once with numpy, which keeps
degree ranges up to q^n ~ 10^7 tractable.

composite_mask(ring, n) returns that marking as a boolean array over the
monic degree-n counting indices; count_irreducibles_sieve counts its
unmarked entries and dist.distribution reads the irreducibles off it.

For extension fields, coefficients are element indices and arithmetic goes
through precomputed q x q add/mul index tables.  Every array dtype is sized
from q and n, so no intermediate wraps around.
"""

from __future__ import annotations

import numpy as np

from .errors import EnumerationCapError
from .poly import PolyRing, PolySet
from .vecenum import coeff_digits, int_dtype, rows_to_indices

SIEVE_CAP = 2 * 10**7


def index_tables(ring: PolyRing) -> tuple[np.ndarray, np.ndarray]:
    """q x q tables of element indices: add[i, j] and mul[i, j]."""
    ctx = ring.ctx
    q = ctx.q
    dtype = int_dtype(q - 1)
    add = np.empty((q, q), dtype=dtype)
    mul = np.empty((q, q), dtype=dtype)
    elements = ctx.elements()
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            add[i, j] = ctx.element_index(ctx.add(x, y))
            mul[i, j] = ctx.element_index(ctx.mul(x, y))
    return add, mul


def composite_mask(ring: PolyRing, n: int, cap: int = SIEVE_CAP) -> np.ndarray:
    """Boolean mask over monic degree-n counting indices, True where reducible."""
    ctx = ring.ctx
    q = ctx.q
    if q**n > cap:
        raise EnumerationCapError(f"q^n = {q**n} exceeds the sieve cap {cap}")
    # Irreducible factor candidates up to degree n/2, by trial division.
    factors: dict[int, list] = {}
    for d in range(1, n // 2 + 1):
        factors[d] = list(ring.enumerate(PolySet.MONIC_IRREDUCIBLE, d))
    composite = np.zeros(q**n, dtype=bool)
    prime_field = ctx.e == 1
    if not prime_field:
        add_tab, mul_tab = index_tables(ring)
    for d, polys in factors.items():
        m = n - d
        block = coeff_digits(q**m, q, m + 1)
        block[:, m] = 1  # monic cofactor
        if prime_field:
            # An output coefficient sums at most d + 1 products below q^2;
            # int16 is the floor so that small q keeps its measured layout.
            acc = np.result_type(np.int16, int_dtype((d + 1) * (q - 1) ** 2))
        for g in polys:
            gi = [ctx.element_index(c) for c in g]
            if prime_field:
                prod = np.zeros((q**m, n + 1), dtype=acc)
                for i, c in enumerate(gi):
                    if c:
                        prod[:, i:i + m + 1] += acc.type(c) * block
                prod %= q
            else:
                prod = np.zeros((q**m, n + 1), dtype=add_tab.dtype)
                for i, c in enumerate(gi):
                    if c:
                        term = mul_tab[c, block]
                        seg = prod[:, i:i + m + 1]
                        prod[:, i:i + m + 1] = add_tab[seg, term]
            # Product of monics is monic of degree n; index the lower n coeffs.
            composite[rows_to_indices(prod[:, :n], q)] = True
    return composite


def count_irreducibles_sieve(ring: PolyRing, n: int, cap: int = SIEVE_CAP) -> int:
    """Exact number of monic irreducibles of degree n by composite marking."""
    composite = composite_mask(ring, n, cap)
    return int(ring.ctx.q**n - np.count_nonzero(composite))
