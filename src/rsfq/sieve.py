"""Composite marking over the monic polynomials of one degree.

Every composite monic polynomial of degree n has a monic irreducible factor
g of degree d <= n/2, so marking the multiples of every such g covers the
composites exactly; the unmarked remainder are the irreducibles (the sieve
of Eratosthenes in F_q[t]).  The degree-d factor candidates are the
unmarked entries of the degree-d mask, computed the same way; at d = 1
that is all q linears.  They are the factor base of every degree from 2d
up, so each field keeps them per d (_factor_base) and no call sieves a
lower degree twice.  An element index of F_q = F_p^e is its base-p
coordinate vector in the power basis of the modulus, so the counting index
of a monic polynomial of degree n is an N = n*e digit base-p number.  Each
degree takes one of two routes, fixed by q^d alone.

Residue join, q^d <= JOIN_MAX.  Split f = L + t^a H at a = n // 2: L holds
f's a low coefficients and H the rest, with f's leading 1.  g divides f
exactly when L = -t^a H mod g.  Reduction mod g is F_p-linear on digits:
the matrix of x -> x t^k mod g on the e digits of x in F_q is a power of
the companion map of multiplication by t mod g.  These join maps are kept
with the factor base, for every k up to the top degree that SIEVE_CAP
admits; a join reads those up to k = n.  So the residue indices,
in [0, q^d), of all q^a low halves and all q^(n-a) high halves come from
two integer matrix products per batch of candidates, every join degree of
one n in one batch.  Viewing the mask as a (q^(n-a), q^a) grid, g marks
the cells where the high half's residue equals the low half's: q^n byte
compares per candidate, in row slabs of about BLOCK (candidate, f)
entries, with no index arithmetic and no scatter.  g = t needs no special
case: its high halves all have residue 0 and the join does not care.

Product marking, q^d > JOIN_MAX.  With h = t^m + h_low, m = n - d,
g*h = t^m*g + g*h_low: the map from the m*e digits of h_low to the N digits
of g*h_low is F_p-linear, a block band of e x e multiplication matrices of
g's coefficients, and t^m*g adds the digits of g's own index shifted up by
m coefficients (its leading 1 is t^n, which the index leaves out).  The
digits of h_low are split after the first a = m*e // 2 into a low and a
high half; for a block of candidates at once, PA holds the integer images
of every low half and PB those of every high half plus the t^m*g offset.
Coefficient k of h lands on coefficients k..k+d of g*h, so PA has no digit
from hi = (ceil(a/e) + d)*e up and PB none below lo = floor(a/e)*e: the two
overlap only in the window of digits [lo, hi), at most (d + 1)*e wide.
Each product index is the carry-free base-p sum of the window digits of one
entry of PA and one of PB, scaled by p^lo, plus their digits outside the
window in plain integer addition, which is exact there.  The window digits
are held at the place values of base 2p - 1, where a digit sum never
carries, so the window sum is the plain sum reduced by one lookup per chunk
of s digits in a (2p - 1)^s digit-add table (one chunk when the window is
narrow).  product_indices yields those indices block by block, some g
against a contiguous range of h in counting order.

composite_mask(ring, n) joins or marks in a boolean array over the monic
degree-n counting indices; count_irreducibles_sieve counts its unmarked
entries and dist.distribution reads the irreducibles off it.
check_sieve_cap(q, n) is the one gate of every bulk scan over the q^n
monics of one degree: it refuses q^n above the module constant SIEVE_CAP,
for composite_mask, arith.Dirichlet.convolve_rows and vaughan's sigma1 and
sigma2 alike, and no other module reads SIEVE_CAP.
arith.Dirichlet sums weights over the product_indices blocks, or over the
degree tables filled from them, kept per process.  Memory is bounded here:
a digit-add table holds at most TABLE_BYTES, one image or gather block
about BLOCK entries and one compare slab about BLOCK bytes, each range cut
by blocks(count, cost, align), which cuts every range walked in blocks of
one fixed size, here and in verify, quadform, charsum and vaughan.  Digit-add
tables are shared read-only through vecenum.digit_add_table, which keeps
the 16 most recently used, so the tables kept between calls add up across
(p, s) to at most 16 of them; the digit arrays of the 32 most recent
(p, e, d, m) splits, each smaller than one candidate's images, and of the
halves of the 32 most recent (p, e, n) joins, q^a + q^(n-a) rows, are kept
the same way, and so are the 32 most recent (p, e, basis, d) factor bases.
A factor base is needed only for d <= n/2 with q^n <= SIEVE_CAP, so it
holds fewer than sqrt(SIEVE_CAP) int64 indices (36 KB), and join maps
exist only for q^d <= JOIN_MAX, at most 12 KB each.  No mask of the degree
being sieved is kept.  All arithmetic is in integers sized so that nothing
wraps around.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import EnumerationCapError
from .field import basis_key
from .poly import PolyRing
from .vecenum import digit_add_table, digits, int_dtype, mul_matrices, wide_places

SIEVE_CAP = 2 * 10**7
TABLE_BYTES = 2**20
BLOCK = 2**18
# One candidate g of degree d costs the residue join q^n byte compares and
# the product marking q^(n-d) products, each a gather and a scatter.  Per
# degree, on a 2-CPU host, the join took 0.1-1.0 times the marking's time
# at q^d <= 27 (q = 3 up to d = 3, q = 5 up to d = 2, q <= 27 at d = 1;
# about 1.0 at q = 5, d = 2 and q = 25, d = 1) and 1.4-3.7 times it at
# q^d = 49, 81 and 125 (q = 9 at d = 2: 2.3 times).
JOIN_MAX = 27


def blocks(count: int, cost: int = 1, align: int = 1):
    """The ranges [start, stop) that cut [0, count) into blocks of
    max(1, BLOCK // cost) indices, cost being what one index holds in
    entries, rounded down to a multiple of the largest power of align that
    fits, so that a kernel cuts a block into few pieces.  Every range that
    is walked in blocks of one fixed size is cut here."""
    per = max(1, BLOCK // cost)
    step = 1
    while align > 1 and step * align <= per:
        step *= align
    per -= per % step
    for start in range(0, count, per):
        yield start, min(start + per, count)


class DigitAdd:
    """Carry-free base-p addition of numbers with up to `width` digits,
    each summand holding its base-p digits at the place values of base
    b = 2p - 1 (vecenum.wide_places).

    The plain sum of two summands keeps every digit sum apart; chunks of
    s of them are reduced mod p by one lookup each in the (b^s,) table of
    vecenum.digit_add_table.  The widest chunk whose table fits in
    TABLE_BYTES fixes the number of chunks, and s is the narrowest width
    that needs no more, so small widths keep small tables.  When not even
    b entries fit, s = 0 and each digit sum is reduced in plain arithmetic.
    """

    def __init__(self, p: int, width: int):
        def table_bytes(s):
            return (2 * p - 1) ** s * int_dtype(p**s - 1).itemsize

        s = 0
        while s < width and table_bytes(s + 1) <= TABLE_BYTES:
            s += 1
        if s:
            chunks = -(-width // s)
            s = -(-width // chunks)
        self.p = p
        self.s = s
        self.table = digit_add_table(p, s) if s else None

    def __call__(self, x: np.ndarray, y: np.ndarray, width: int) -> np.ndarray:
        """Digit-wise sum mod p, as a base-p number, of broadcastable
        non-negative int arrays in the wide encoding."""
        p, b = self.p, 2 * self.p - 1
        step = self.s or 1
        dtype = np.int32 if p**width <= np.iinfo(np.int32).max else np.int64
        z = x + y
        out = None
        for lo in range(0, width, step):
            chunk = z if step >= width else z // b**lo % b ** min(step, width - lo)
            part = self.table[chunk] if self.s else chunk % p
            part = part.astype(dtype, copy=False)
            if out is None:
                out = part
            else:
                part *= p**lo
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
    wide = wide_places(p, hi - lo)
    for array in (low, high, place, wide):
        array.setflags(write=False)
    return a, lo, hi, low, high, place, wide, DigitAdd(p, hi - lo)


def _images(g: np.ndarray, d: int, m: int, p: int, basis: np.ndarray,
            split: tuple, dtype) -> tuple:
    """(xa, pa, xb, pb) of the candidates with digits g: the window digits
    (lo <= k < hi) and the digits outside it of every low-half image and
    of every high-half image plus the t^m*g offset, as integers."""
    a, lo, hi, low, high, place, wide, _ = split
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
    xa = images[:, :, lo:] @ wide
    pa = (images[:, :, :lo] @ place[:lo]).astype(dtype)
    images = high @ maps[:, a:, lo:]
    images[:, :, m * e - lo:] += g[:, None, :]
    images %= p
    xb = images[:, :, :hi - lo] @ wide
    pb = (images[:, :, hi - lo:] @ place[hi:]).astype(dtype)
    return xa, pa, xb, pb


def product_indices(factors: np.ndarray, d: int, m: int, p: int,
                    basis: np.ndarray):
    """Yield (gs, hs, idx) blocks of the indices of every g*h, h monic of
    degree m >= 1: idx[i, j] is that of g = factors[gs][i] times the h of
    counting index hs.start + j."""
    e = basis.shape[0]
    width = (d + m) * e
    split = _split(p, e, d, m)
    _, lo, hi, low, high, _, _, window = split
    dtype = np.int32 if p**width <= np.iinfo(np.int32).max else np.int64
    for start, stop in blocks(len(factors), (len(low) + len(high)) * width):
        g = digits(factors[start:stop], p, d * e)
        # Only the named halves live across the yields below, no image.
        xa, pa, xb, pb = _images(g, d, m, p, basis, split, dtype)
        # Gather blocks of about BLOCK products: several whole candidates
        # when one candidate's PA x PB fits, else some high halves of one
        # against every low half, the h in [r0*la, r1*la) as h = low + high*la.
        la, lb = xa.shape[1], xb.shape[1]
        for c0, c1 in blocks(len(g), la * lb):
            cs, gs = slice(c0, c1), slice(start + c0, start + c1)
            for r0, r1 in blocks(lb, la):
                rs = slice(r0, r1)
                # Carry-free only in the window; outside it at most one
                # summand has a nonzero digit, so plain addition is exact.
                idx = window(xb[cs, rs, None], xa[cs, None, :],
                             hi - lo).astype(dtype, copy=False)
                if lo:
                    idx *= p**lo
                    idx += pa[cs, None, :]
                if hi < width:
                    idx += pb[cs, rs, None]
                yield gs, slice(r0 * la, r1 * la), idx.reshape(c1 - c0, -1)


@lru_cache(maxsize=32)
def _halves(p: int, e: int, n: int) -> tuple:
    """The digits of every low half L (a = n // 2 coefficients) and every
    high half H (the other n - a, monic) of f = L + t^a H, shared
    read-only, in a dtype that holds any sum of n*e digit products."""
    a = n // 2
    dtype = int_dtype(n * e * (p - 1) ** 2 + p - 1)
    halves = (digits(np.arange(p ** (a * e)), p, a * e).astype(dtype),
              digits(np.arange(p ** ((n - a) * e)), p, (n - a) * e).astype(dtype))
    for array in halves:
        array.setflags(write=False)
    return halves


def _residues(half: np.ndarray, maps: np.ndarray, p: int,
              offset: np.ndarray | None = None) -> np.ndarray:
    """(c, len(half)) residue indices: row i holds, for every half, the
    index of its digits times maps[i] (plus offset[i]), reduced mod p."""
    c, width, de = maps.shape
    x = half @ maps.transpose(1, 0, 2).reshape(width, c * de).astype(half.dtype)
    if offset is not None:
        x += offset.reshape(-1).astype(x.dtype)
    x %= p
    place = p ** np.arange(de, dtype=int_dtype(p**de - 1))
    return np.ascontiguousarray((x.reshape(-1, c, de) @ place).T)


@lru_cache(maxsize=32)
def _factor_base(p: int, e: int, basis: bytes, d: int) -> tuple:
    """(factors, maps) of the field with this int64 basis, shared
    read-only: the counting indices of the monic irreducibles of degree d
    and, when q^d <= JOIN_MAX, their residue-join maps, else None.
    maps[i, k] is the (e, d*e) matrix that takes the e digits of x in F_q
    to those of x t^k mod factors[i], for every k up to the top degree
    that SIEVE_CAP admits.  Both are constants of the field and of d, so
    every degree above 2d reads them; the key is what they depend on, so
    a ctx whose basis differs gets a factor base of its own."""
    basis = np.frombuffer(basis, dtype=np.int64).reshape(e, e, e)
    factors = np.flatnonzero(~_composite(d, p, basis))
    maps = None
    if p ** (d * e) <= JOIN_MAX:
        top = d
        while p ** ((top + 1) * e) <= SIEVE_CAP:
            top += 1
        # Multiplication by t mod g on the digits of a residue: coefficient
        # i moves up to i + 1, and t^d = -(g_0 + ... + g_(d-1) t^(d-1)).
        c, de = len(factors), d * e
        neg_g = -digits(factors, p, de) % p
        step = np.zeros((c, de, de), dtype=np.int64)
        step[:, :de - e, e:] = np.eye(de - e, dtype=np.int64)
        step[:, de - e:] = mul_matrices(
            basis, neg_g.reshape(c, d, e), p).transpose(0, 2, 1, 3).reshape(c, e, de)
        maps = np.zeros((c, top + 1, e, de), dtype=np.int64)
        maps[:, 0, :, :e] = np.eye(e, dtype=np.int64)
        for k in range(top):
            np.matmul(maps[:, k], step, out=maps[:, k + 1])
            maps[:, k + 1] %= p
        maps.setflags(write=False)
    factors.setflags(write=False)
    return factors, maps


def _join(composite: np.ndarray, groups: list, n: int, p: int, e: int) -> None:
    """Mark in composite every multiple of the factors of the (d, maps)
    groups, d ascending, maps from _factor_base: with f = L + t^a H, g
    divides f exactly when L = -t^a H mod g, so each g marks where the
    residue of f's high half meets that of its low half.  Residues of
    every degree are padded to the digits of the last, so that all
    candidates go in one batch."""
    a, width = n // 2, groups[-1][0] * e
    low, high = _halves(p, e, n)
    for d, maps in groups:
        if maps is None or maps.shape[1] <= n:
            raise EnumerationCapError(
                f"the degree-{d} factor base has no join maps up to t^{n}")
    c = sum(len(maps) for _, maps in groups)
    # powers[:, k] maps the e digits of x in F_q to those of x t^k mod g.
    powers = np.zeros((c, n + 1, e, width), dtype=np.int64)
    row = 0
    for d, maps in groups:
        powers[row:row + len(maps), :, :, :d * e] = maps[:, :n + 1]
        row += len(maps)
    left = _residues(low, powers[:, :a].reshape(c, a * e, width), p)
    # The residue of -t^a H: the high digits land at t^a.. and t^n is H's
    # leading 1.
    neg = -powers[:, a:] % p
    right = _residues(high, neg[:, :n - a].reshape(c, (n - a) * e, width), p,
                      neg[:, n - a, 0])
    # Compare in row slabs of about BLOCK (candidate, f) entries.
    grid = composite.reshape(len(high), len(low))
    slabs = list(blocks(len(grid), c * len(low)))
    rows = slabs[0][1]
    equal = np.empty((c, rows, len(low)), dtype=bool)
    hit = np.empty((rows, len(low)), dtype=bool)
    for r0, r1 in slabs:
        slab = grid[r0:r1]
        eq, any_eq = equal[:, :r1 - r0], hit[:r1 - r0]
        np.equal(right[:, r0:r1, None], left[:, None, :], out=eq)
        np.logical_or.reduce(eq, axis=0, out=any_eq)
        np.logical_or(slab, any_eq, out=slab)


def _composite(n: int, p: int, basis: np.ndarray) -> np.ndarray:
    key = basis_key(p, basis)
    e = key[1]
    composite = np.zeros(p ** (n * e), dtype=bool)
    joined = []
    for d in range(1, n // 2 + 1):
        factors, maps = _factor_base(*key, d)
        if p ** (d * e) <= JOIN_MAX:
            joined.append((d, maps))
            continue
        for _, _, idx in product_indices(factors, d, n - d, p, basis):
            composite[idx] = True
            del idx     # free the block before the next one is gathered
    if joined:
        _join(composite, joined, n, p, e)
    return composite


def check_sieve_cap(q: int, n: int) -> int:
    """q^n, the size of a bulk scan over the monics of degree n, or
    EnumerationCapError when it exceeds SIEVE_CAP: the one gate of every
    such scan."""
    size = q**n
    if size > SIEVE_CAP:
        raise EnumerationCapError(
            f"q^n = {size} exceeds the sieve cap {SIEVE_CAP}")
    return size


def composite_mask(ring: PolyRing, n: int) -> np.ndarray:
    """Boolean mask over monic degree-n counting indices, True where
    reducible, for q^n within check_sieve_cap."""
    ctx = ring.ctx
    check_sieve_cap(ctx.q, n)
    return _composite(n, ctx.p, ctx.basis)


def count_irreducibles_sieve(ring: PolyRing, n: int) -> int:
    """Exact number of monic irreducibles of degree n by composite marking."""
    composite = composite_mask(ring, n)
    return int(ring.ctx.q**n - np.count_nonzero(composite))
