"""Polynomials over F_q as canonical coefficient tuples.

Coefficient tuples hold element indices (ints in [0, q), see rsfq.field),
are little-endian (index i holds the coefficient of t^i) and have no
trailing zeros; the zero polynomial is the empty tuple.  The degree of the
zero polynomial is the sentinel None, and norm/degree arithmetic on it
raises instead of inventing -1.

Polynomial sets are enumerated in counting order: coefficient vectors read
as base-q integers with the constant term as the least significant digit,
so the constant term varies fastest.  PolyRing.from_index is the one
decoder of that order, and enumeration iterates it.  Enumeration supports
contiguous index-range partitioning, which slices the set by coefficient
prefix so scans can be mapped across workers and merged associatively.

A ring holds the one enumeration cap.  Every scan over its polynomials,
forms or weights charges the largest set it builds to ring.check_cap, and
no function that takes a ring takes a cap of its own.
"""

from __future__ import annotations

import enum
from functools import partial

from .errors import (
    ConfigError,
    DegreeBoundError,
    EnumerationCapError,
    PolyDivisionError,
    ZeroPolynomialError,
)
from .field import FieldCtx

DEFAULT_CAP = 10**8


class PolySet(enum.Enum):
    """Families of polynomials indexed by a degree parameter n."""

    DEGREE_EXACT = "degree-exact"        # degree n, any nonzero leading coeff
    MONIC = "monic"                      # monic of degree n
    MONIC_IRREDUCIBLE = "monic-irreducible"
    DEGREE_AT_MOST = "degree-at-most"    # the (n+1)-dimensional space deg <= n


class PolyRing:
    """Operations on F_q[t] bound to a FieldCtx."""

    zero = ()

    def __init__(self, ctx: FieldCtx, cap: int = DEFAULT_CAP):
        if cap < 1:
            raise ConfigError("enumeration cap must be positive")
        self.ctx = ctx
        self.cap = cap
        self.one = (1,)

    def __repr__(self):
        return f"PolyRing({self.ctx!r})"

    # -- construction and inspection ------------------------------------

    def poly(self, coeffs) -> tuple:
        """Canonicalize a coefficient sequence (validates elements)."""
        ctx = self.ctx
        out = list(coeffs)
        for c in out:
            if not ctx.is_element(c):
                raise ConfigError(f"{c!r} is not an element of F_{ctx.q}")
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def from_ints(self, ints) -> tuple:
        """Build a polynomial from integer residues (embedded as scalars)."""
        return self.poly([self.ctx.scalar(c) for c in ints])

    def degree(self, f):
        """Degree of f, or None for the zero polynomial."""
        return len(f) - 1 if f else None

    def coeff(self, f, i: int):
        if 0 <= i < len(f):
            return f[i]
        return 0

    def is_monic(self, f) -> bool:
        return bool(f) and f[-1] == 1

    # -- ring operations ---------------------------------------------------

    def add(self, f, g):
        add = self.ctx.add_table
        if len(f) < len(g):
            f, g = g, f
        out = list(f)
        for i, c in enumerate(g):
            out[i] = add[out[i]][c]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def sub(self, f, g):
        return self.add(f, self.neg(g))

    def neg(self, f):
        neg = self.ctx.neg_table
        return tuple(neg[c] for c in f)

    def scale(self, c, f):
        if c == 0:
            return ()
        row = self.ctx.mul_table[c]
        return tuple(row[x] for x in f)

    def mul(self, f, g):
        if not f or not g:
            return ()
        add, mul = self.ctx.add_table, self.ctx.mul_table
        out = [0] * (len(f) + len(g) - 1)
        for i, fi in enumerate(f):
            if fi:
                row = mul[fi]
                for k, gj in enumerate(g, i):
                    out[k] = add[out[k]][row[gj]]
        # Leading product of two nonzero leading coefficients is nonzero.
        return tuple(out)

    def divmod(self, f, g):
        """Quotient and remainder with deg r < deg g."""
        if not g:
            raise PolyDivisionError("division by the zero polynomial")
        if not f or len(f) < len(g):
            return (), f
        ctx = self.ctx
        add, mul, neg = ctx.add_table, ctx.mul_table, ctx.neg_table
        dg = len(g) - 1
        rem = list(f)
        inv_lead = ctx.inv(g[-1])
        quot = [0] * (len(f) - dg)
        for sh in range(len(f) - dg - 1, -1, -1):
            c = rem[sh + dg]
            if c:
                c = mul[c][inv_lead]
                quot[sh] = c
                row = mul[neg[c]]
                for k, gi in enumerate(g, sh):
                    rem[k] = add[rem[k]][row[gi]]
        while rem and rem[-1] == 0:
            rem.pop()
        while quot and quot[-1] == 0:
            quot.pop()
        return tuple(quot), tuple(rem)

    def mod(self, f, g):
        return self.divmod(f, g)[1]

    def divides(self, g, f) -> bool:
        return not self.mod(f, g)

    def gcd(self, f, g):
        """Monic gcd; gcd(0, 0) = 0."""
        while g:
            f, g = g, self.mod(f, g)
        return self.monic(f) if f else ()

    def monic(self, f):
        if not f:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        if f[-1] == 1:
            return f
        return self.scale(self.ctx.inv(f[-1]), f)

    # -- reversal and norm ---------------------------------------------------

    def reverse(self, f, n: int):
        """Coefficient reversal relative to the degree bound n.

        Entry i of the result is the coefficient of t^(n-i) in f; the result
        has degree exactly n iff the constant term of f is nonzero.
        """
        deg = self.degree(f)
        if deg is not None and deg > n:
            raise DegreeBoundError(f"deg f = {deg} exceeds the reversal bound {n}")
        if not f:
            return ()
        out = [self.coeff(f, n - i) for i in range(n + 1)]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    # -- irreducibility ---------------------------------------------------

    def is_irreducible(self, f) -> bool:
        """Trial division by every monic polynomial of degree <= deg f / 2."""
        deg = self.degree(f)
        if deg is None or deg < 1:
            raise DegreeBoundError("irreducibility needs degree >= 1")
        for d in range(1, deg // 2 + 1):
            for g in self.enumerate(PolySet.MONIC, d):
                if not self.mod(f, g):
                    return False
        return True

    # -- enumeration -------------------------------------------------------

    def cardinality(self, kind: PolySet, n: int) -> int:
        q = self.ctx.q
        if n < 0:
            raise DegreeBoundError("degree parameter must be >= 0")
        if kind is PolySet.DEGREE_EXACT:
            return (q - 1) * q**n
        if kind is PolySet.MONIC:
            return q**n
        if kind is PolySet.DEGREE_AT_MOST:
            return q ** (n + 1)
        if kind is PolySet.MONIC_IRREDUCIBLE:
            # Counted by filtering; the monic superset governs the cap.
            return q**n
        raise ConfigError(f"unknown set kind {kind!r}")

    def check_cap(self, count: int) -> None:
        """Raise EnumerationCapError if count exceeds the ring's cap."""
        if count > self.cap:
            raise EnumerationCapError(
                f"enumeration of {count} elements exceeds the cap {self.cap}"
            )

    def enumerate(self, kind: PolySet, n: int):
        """Yield the set members in counting order (cap-checked)."""
        count = self.cardinality(kind, n)
        self.check_cap(count)
        if kind is not PolySet.MONIC_IRREDUCIBLE:
            yield from map(partial(self.from_index, kind, n), range(count))
        elif n >= 1:
            yield from filter(self.is_irreducible, self.monic_range(n, 0, count))

    def monic_range(self, n: int, lo: int, hi: int):
        """Monic degree-n polynomials with counting index in [lo, hi)."""
        return map(partial(self.from_index, PolySet.MONIC, n), range(lo, hi))

    def from_index(self, kind: PolySet, n: int, index) -> tuple:
        """The member of the degree-n set kind at a counting index.

        The low n coefficients are the base-q digits of the index, constant
        term first.  A MONIC member then ends in 1, a DEGREE_EXACT one in
        1 + index // q^n (enumerate lists them one leading coefficient
        after another), and a DEGREE_AT_MOST one in index // q^n, with
        trailing zeros dropped.
        """
        q = self.ctx.q
        k = int(index)
        coeffs = []
        for _ in range(n):
            coeffs.append(k % q)
            k //= q
        if kind is PolySet.MONIC:
            heads = 1
            coeffs.append(1)
        elif kind is PolySet.DEGREE_EXACT:
            heads = q - 1
            coeffs.append(k + 1)
        elif kind is PolySet.DEGREE_AT_MOST:
            heads = q
            coeffs.append(k)
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        else:
            raise ConfigError(f"no counting index decodes {kind!r}")
        if not 0 <= k < heads:
            raise ConfigError(f"index {index} is outside the {kind.value} "
                              f"polynomials of degree {n}")
        return tuple(coeffs)

    def index_of(self, f) -> int:
        """Counting index of f within its coefficient-width block."""
        q = self.ctx.q
        idx = 0
        for c in reversed(f):
            idx = idx * q + c
        return idx

    # -- parsing and formatting ---------------------------------------------

    def to_str(self, f) -> str:
        if not f:
            return self.ctx.element_str(0)
        return ",".join(self.ctx.element_str(c) for c in f)

    def parse(self, s: str) -> tuple:
        parts = [part.strip() for part in s.split(",")]
        if parts == [""]:
            raise ConfigError("empty polynomial string")
        return self.poly([self.ctx.parse_element(part) for part in parts])


def _mobius_int(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def irreducible_count_formula(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n: (1/n) sum_{d|n} mu(d) q^(n/d)."""
    if n < 1:
        raise DegreeBoundError("degree must be >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius_int(d) * q ** (n // d)
    if total % n:
        raise ArithmeticError(f"necklace count not divisible by n for q={q}, n={n}")
    return total // n
