"""Composite marking over the monic polynomials of one degree.

Every composite monic polynomial of degree n has a monic irreducible factor
g of degree d <= n/2, so marking the products g*h, h ranging over the monic
polynomials of degree m = n - d, covers the composites exactly; the unmarked
remainder are the irreducibles (the sieve of Eratosthenes in F_q[t]).  The
degree-d factor candidates are the unmarked entries of the degree-d mask,
computed by the same marking; at d = 1 that is all q linears.

The marking is F_p-linear.  An element index of F_q = F_p^e is its base-p
coordinate vector in the power basis of the modulus, so the counting index
of a monic polynomial of degree n is an N = n*e digit base-p number.  With
h = t^m + h_low, g*h = t^m*g + g*h_low: the map from the m*e digits of h_low
to the N digits of g*h_low is F_p-linear, a block band of e x e
multiplication matrices of g's coefficients, and t^m*g adds the digits of
g's own index shifted up by m coefficients (its leading 1 is t^n, which
the index leaves out).  The digits of h_low are split
into a low and a high half; for a block of candidates at once, PA holds the
integer images of every low half and PB those of every high half plus the
t^m*g offset.  Each product index is then the carry-free base-p sum of one
entry of PA and one of PB, by gathers from a digit-add table over chunks of
s digits.

composite_mask(ring, n) returns the marking as a boolean array over the
monic degree-n counting indices; count_irreducibles_sieve counts its
unmarked entries and dist.distribution reads the irreducibles off it.
Memory is bounded: a digit-add table holds at most TABLE_BYTES and one
image or gather block about BLOCK entries.  Nothing is cached between
calls.  All arithmetic is in integers sized so that nothing wraps around.
"""

from __future__ import annotations

import numpy as np

from .errors import EnumerationCapError
from .field import FieldCtx
from .poly import PolyRing
from .vecenum import int_dtype

SIEVE_CAP = 2 * 10**7
TABLE_BYTES = 4 * 2**20
BLOCK = 2**18


def _digits(values: np.ndarray, p: int, width: int) -> np.ndarray:
    """(..., width) int64 base-p digits of `values`, least significant first."""
    rest = np.asarray(values, dtype=np.int64).copy()
    out = np.empty(rest.shape + (width,), dtype=np.int64)
    for j in range(width):
        out[..., j] = rest % p
        rest //= p
    return out


def _digit_add_table(p: int, s: int) -> np.ndarray:
    """(p^s, p^s) int32 table whose [u, v] is the digit-wise sum mod p of u, v.

    Built one digit at a time: appending a top digit with place value p^k
    turns the k-digit table T into D * p^k (+) T, D the one-digit table.
    """
    digit = np.arange(p, dtype=np.int32)
    one = (digit[:, None] + digit[None, :]) % p
    table = one
    for k in range(1, s):
        size = p ** (k + 1)
        table = ((one * p**k)[:, None, :, None]
                 + table[None, :, None, :]).reshape(size, size)
    return table


class DigitAdd:
    """Carry-free base-p addition of numbers with up to `width` digits.

    Digits are added mod p in chunks of s digits by gathers from a
    (p^s, p^s) int32 table.  The widest chunk whose table fits in
    TABLE_BYTES fixes the number of chunks, and s is the narrowest width
    that needs no more, so small widths keep small tables.  When even p^2
    entries do not fit, s = 0 and each digit is added in plain arithmetic.
    """

    def __init__(self, p: int, width: int):
        s = 0
        while s < width and 4 * p ** (2 * s + 2) <= TABLE_BYTES:
            s += 1
        if s:
            chunks = -(-width // s)
            s = -(-width // chunks)
        self.p = p
        self.s = s
        self.table = _digit_add_table(p, s) if s else None

    def __call__(self, x: np.ndarray, y: np.ndarray, width: int) -> np.ndarray:
        """Digit-wise sum mod p of broadcastable non-negative int arrays."""
        p = self.p
        step = self.s or 1
        dtype = np.int32 if p**width <= np.iinfo(np.int32).max else np.int64
        out = None
        for lo in range(0, width, step):
            place = p**lo
            span = p ** min(step, width - lo)
            xs = x // place % span
            ys = y // place % span
            part = self.table[xs, ys] if self.s else (xs + ys) % p
            part = part.astype(dtype, copy=False)
            if out is None:
                out = part
            else:
                part *= place
                out += part
        return out


def _basis_products(ctx: FieldCtx) -> np.ndarray:
    """(e, e, e) array whose [l, j] holds the base-p digits of w^(l+j).

    w is the root of the modulus, so element index p; for e = 1 the array
    is [[[1]]].
    """
    p, e = ctx.p, ctx.e
    powers = [ctx.one()]
    for _ in range(2 * e - 2):
        powers.append(ctx.mul(powers[-1], ctx.element_at(p)))
    w = _digits([ctx.element_index(x) for x in powers], p, e)
    return np.stack([w[l:l + e] for l in range(e)])


def _mul_matrices(basis: np.ndarray, digits: np.ndarray, p: int) -> np.ndarray:
    """(..., e, e) F_p matrices of multiplication by the elements `digits`.

    Row j of the matrix of x holds the digits of x * w^j, so a row vector of
    digits times it gives the digits of the product.
    """
    return np.tensordot(digits, basis, axes=([-1], [0])) % p


def index_tables(ring: PolyRing) -> tuple[np.ndarray, np.ndarray]:
    """q x q tables of element indices: add[i, j] and mul[i, j]."""
    ctx = ring.ctx
    p, e, q = ctx.p, ctx.e, ctx.q
    dtype = int_dtype(q - 1)
    add = _digit_add_table(p, e).astype(dtype)
    x = _digits(np.arange(q), p, e)
    mats = _mul_matrices(_basis_products(ctx), x, p)
    mul = np.zeros((q, q), dtype=np.int64)
    for k in range(e):
        mul += (x @ mats[:, :, k].T) % p * p**k
    return add, mul.astype(dtype)


def _mark(composite: np.ndarray, factors: np.ndarray, d: int, n: int,
          p: int, basis: np.ndarray, digit_add: DigitAdd) -> None:
    """Mark every g*h, g the degree-d monics indexed by `factors`."""
    e = basis.shape[0]
    m = n - d
    width = n * e
    a = m * e // 2
    low = _digits(np.arange(p**a), p, a)
    high = _digits(np.arange(p ** (m * e - a)), p, m * e - a)
    place = p ** np.arange(width, dtype=np.int64)
    eye = np.eye(e, dtype=np.int64)
    per = max(1, BLOCK // ((len(low) + len(high)) * width))
    for start in range(0, len(factors), per):
        g = _digits(factors[start:start + per], p, d * e)
        c = len(g)
        mats = _mul_matrices(basis, g.reshape(c, d, e), p)
        band = np.concatenate(
            [mats.transpose(0, 2, 1, 3).reshape(c, e, d * e),
             np.broadcast_to(eye, (c, e, e))], axis=2)
        maps = np.zeros((c, m * e, width), dtype=np.int64)
        for k in range(m):
            maps[:, k * e:(k + 1) * e, k * e:(k + d + 1) * e] = band
        high_images = high @ maps[:, a:]
        high_images[:, :, m * e:] += g[:, None, :]
        pa = (low @ maps[:, :a]) % p @ place
        pb = high_images % p @ place
        # Gather blocks of about BLOCK products: several whole candidates
        # when one candidate's PA x PB fits, else some rows of one.
        la, lb = pa.shape[1], pb.shape[1]
        rows = min(la, max(1, BLOCK // lb))
        cands = max(1, BLOCK // (la * lb)) if rows == la else 1
        for c0 in range(0, c, cands):
            x, y = pa[c0:c0 + cands, :, None], pb[c0:c0 + cands, None, :]
            for r0 in range(0, la, rows):
                composite[digit_add(x[:, r0:r0 + rows], y, width)] = True


def _composite(n: int, p: int, basis: np.ndarray,
               digit_add: DigitAdd) -> np.ndarray:
    e = basis.shape[0]
    composite = np.zeros(p ** (n * e), dtype=bool)
    for d in range(1, n // 2 + 1):
        factors = np.flatnonzero(~_composite(d, p, basis, digit_add))
        _mark(composite, factors, d, n, p, basis, digit_add)
    return composite


def composite_mask(ring: PolyRing, n: int, cap: int = SIEVE_CAP) -> np.ndarray:
    """Boolean mask over monic degree-n counting indices, True where reducible."""
    ctx = ring.ctx
    if ctx.q**n > cap:
        raise EnumerationCapError(f"q^n = {ctx.q**n} exceeds the sieve cap {cap}")
    digit_add = DigitAdd(ctx.p, n * ctx.e)
    return _composite(n, ctx.p, _basis_products(ctx), digit_add)


def count_irreducibles_sieve(ring: PolyRing, n: int, cap: int = SIEVE_CAP) -> int:
    """Exact number of monic irreducibles of degree n by composite marking."""
    composite = composite_mask(ring, n, cap)
    return int(ring.ctx.q**n - np.count_nonzero(composite))
