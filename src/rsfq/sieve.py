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
the index leaves out).  The digits of h_low are split after the first
a = m*e // 2 into a low and a high half; for a block of candidates at
once, PA holds the integer images of every low half and PB those of every
high half plus the t^m*g offset.  Coefficient k of h lands on
coefficients k..k+d of g*h, so PA has no digit from hi = (ceil(a/e) + d)*e
up and PB none below lo = floor(a/e)*e: the two overlap only in the window
of digits [lo, hi), at most (d + 1)*e wide.  Each product index is the
carry-free base-p sum of the window digits of one entry of PA and one of
PB, gathered from a digit-add table over chunks of s digits (one chunk
when the window is narrow), scaled by p^lo, plus their digits outside the
window in plain integer addition, which is exact there.

composite_mask(ring, n) marks the product_indices blocks in a boolean array
over the monic degree-n counting indices; count_irreducibles_sieve counts
its unmarked entries and dist.distribution reads the irreducibles off it.
arith.Dirichlet sums weights over the same blocks, or over the product
tables it assembles from them and keeps.  Memory is bounded here: a
digit-add table holds at most TABLE_BYTES and one image or gather block
about BLOCK entries.  Digit-add tables are shared read-only through
vecenum.digit_add_table, which keeps the 16 most recently used, so the
tables kept between calls add up across (p, s) to at most 16 of them; the
digit arrays of the 32 most recent (p, e, d, m) splits, each smaller than
one candidate's images, are kept the same way; nothing else is kept.  All
arithmetic is in integers sized so that nothing wraps around.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import EnumerationCapError
from .poly import PolyRing
from .vecenum import digit_add_table, digits, mul_matrices

SIEVE_CAP = 2 * 10**7
TABLE_BYTES = 4 * 2**20
BLOCK = 2**18


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
        self.table = digit_add_table(p, s) if s else None

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


@lru_cache(maxsize=32)
def _split(p: int, e: int, d: int, m: int) -> tuple:
    """The geometry of product_indices for one (p, e, d, m), shared
    read-only: the half split a, the window [lo, hi), the digits of every
    low and high half, the place values p^k of the N digits and the
    window's DigitAdd.  None of it depends on the basis."""
    a = m * e // 2
    lo = a // e * e
    hi = (-(-a // e) + d) * e
    low = digits(np.arange(p**a), p, a)
    high = digits(np.arange(p ** (m * e - a)), p, m * e - a)
    place = p ** np.arange((d + m) * e, dtype=np.int64)
    for array in (low, high, place):
        array.setflags(write=False)
    return a, lo, hi, low, high, place, DigitAdd(p, hi - lo)


def _images(g: np.ndarray, d: int, m: int, p: int, basis: np.ndarray,
            split: tuple, dtype) -> tuple:
    """(xa, pa, xb, pb) of the candidates with digits g: the window digits
    (lo <= k < hi) and the digits outside it of every low-half image and
    of every high-half image plus the t^m*g offset, as integers."""
    a, lo, hi, low, high, place, _ = split
    c, e = len(g), basis.shape[0]
    mats = mul_matrices(basis, g.reshape(c, d, e), p)
    band = np.concatenate(
        [mats.transpose(0, 2, 1, 3).reshape(c, e, d * e),
         np.broadcast_to(np.eye(e, dtype=np.int64), (c, e, e))], axis=2)
    maps = np.zeros((c, m * e, (d + m) * e), dtype=np.int64)
    for k in range(m):
        maps[:, k * e:(k + 1) * e, k * e:(k + d + 1) * e] = band
    # Coefficient k of h lands on coefficients k..k+d of g*h, so the low
    # half's images have no digit from hi up and the high half's none
    # below lo.
    images = low @ maps[:, :a, :hi] % p
    xa = images[:, :, lo:] @ place[:hi - lo]
    pa = (images[:, :, :lo] @ place[:lo]).astype(dtype)
    images = high @ maps[:, a:, lo:]
    images[:, :, m * e - lo:] += g[:, None, :]
    images %= p
    xb = images[:, :, :hi - lo] @ place[:hi - lo]
    pb = (images[:, :, hi - lo:] @ place[hi:]).astype(dtype)
    return xa, pa, xb, pb


def product_indices(factors: np.ndarray, d: int, m: int, p: int,
                    basis: np.ndarray):
    """Yield (gs, rows, idx) blocks of the indices of every g*h, h monic of
    degree m >= 1: idx[i, r, j] is that of g = factors[gs][i] times the h of
    counting index rows.start + r + j*la, where la * idx.shape[2] = q^m."""
    e = basis.shape[0]
    width = (d + m) * e
    split = _split(p, e, d, m)
    _, lo, hi, low, high, _, window = split
    dtype = np.int32 if p**width <= np.iinfo(np.int32).max else np.int64
    per = max(1, BLOCK // ((len(low) + len(high)) * width))
    for start in range(0, len(factors), per):
        g = digits(factors[start:start + per], p, d * e)
        c = len(g)
        # Only the named halves live across the yields below, no image.
        xa, pa, xb, pb = _images(g, d, m, p, basis, split, dtype)
        # Gather blocks of about BLOCK products: several whole candidates
        # when one candidate's PA x PB fits, else some rows of one.
        la, lb = xa.shape[1], xb.shape[1]
        rows = min(la, max(1, BLOCK // lb))
        cands = max(1, BLOCK // (la * lb)) if rows == la else 1
        for c0 in range(0, c, cands):
            cs = slice(c0, c0 + cands)
            gs = slice(start + c0, start + min(c0 + cands, c))
            for r0 in range(0, la, rows):
                rs = slice(r0, r0 + rows)
                # Carry-free only in the window; outside it at most one
                # summand has a nonzero digit, so plain addition is exact.
                idx = window(xa[cs, rs, None], xb[cs, None, :],
                             hi - lo).astype(dtype, copy=False)
                if lo:
                    idx *= p**lo
                    idx += pa[cs, rs, None]
                if hi < width:
                    idx += pb[cs, None, :]
                yield gs, rs, idx


def _composite(n: int, p: int, basis: np.ndarray) -> np.ndarray:
    e = basis.shape[0]
    composite = np.zeros(p ** (n * e), dtype=bool)
    for d in range(1, n // 2 + 1):
        factors = np.flatnonzero(~_composite(d, p, basis))
        for _, _, idx in product_indices(factors, d, n - d, p, basis):
            composite[idx] = True
            del idx     # free the block before the next one is gathered
    return composite


def composite_mask(ring: PolyRing, n: int, cap: int = SIEVE_CAP) -> np.ndarray:
    """Boolean mask over monic degree-n counting indices, True where reducible."""
    ctx = ring.ctx
    if ctx.q**n > cap:
        raise EnumerationCapError(f"q^n = {ctx.q**n} exceeds the sieve cap {cap}")
    return _composite(n, ctx.p, ctx.basis)


def count_irreducibles_sieve(ring: PolyRing, n: int, cap: int = SIEVE_CAP) -> int:
    """Exact number of monic irreducibles of degree n by composite marking."""
    composite = composite_mask(ring, n, cap)
    return int(ring.ctx.q**n - np.count_nonzero(composite))
