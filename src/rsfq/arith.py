"""Multiplicative functions on F_q[t] and the reversal-equation counts.

Factorizations are found by trial division and memoized per FactorTable;
divisors_monic is the deliberately slow, independently auditable route that
trial-divides against every enumerated monic polynomial.
"""

from __future__ import annotations

import math

from .errors import DegreeBoundError, ZeroPolynomialError
from .poly import PolyRing, PolySet


class FactorTable:
    """Memoized monic factorization by trial division.

    The cache is keyed by canonical coefficient tuples.  Tables are cheap to
    build and deterministic, so concurrent workers simply keep their own.
    """

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self._cache: dict = {}

    def factor(self, f) -> tuple:
        """Sorted tuple of (irreducible, exponent) pairs for monic-normalized f."""
        if not f:
            raise ZeroPolynomialError("cannot factor the zero polynomial")
        f = self.ring.monic(f)
        return self._factor_monic(f)

    def _factor_monic(self, f) -> tuple:
        if len(f) == 1:
            return ()
        hit = self._cache.get(f)
        if hit is not None:
            return hit
        ring = self.ring
        d = self._smallest_irreducible_divisor(f)
        if d is None:
            out = ((f, 1),)
        else:
            exp = 0
            rest = f
            while True:
                quot, rem = ring.divmod(rest, d)
                if rem:
                    break
                rest = quot
                exp += 1
            out = tuple(sorted(
                ((d, exp),) + self._factor_monic(rest),
                key=lambda pe: (len(pe[0]), ring.index_of(pe[0])),
            ))
        self._cache[f] = out
        return out

    def _smallest_irreducible_divisor(self, f):
        """First monic divisor of degree in [1, deg f / 2], None if irreducible.

        A divisor of minimal degree is automatically irreducible.
        """
        ring = self.ring
        deg = len(f) - 1
        for d in range(1, deg // 2 + 1):
            for g in ring.enumerate(PolySet.MONIC, d):
                if not ring.mod(f, g):
                    return g
        return None

    def tau(self, f) -> int:
        """Number of monic divisors."""
        return math.prod(exp + 1 for _, exp in self.factor(f))

    def mobius(self, f) -> int:
        factors = self.factor(f)
        if any(exp > 1 for _, exp in factors):
            return 0
        return -1 if len(factors) % 2 else 1

    def von_mangoldt(self, f) -> int:
        factors = self.factor(f)
        if len(factors) != 1:
            return 0
        prime, _ = factors[0]
        return len(prime) - 1

    def divisors(self, f) -> list:
        """All monic divisors, sorted by (degree, counting index)."""
        ring = self.ring
        out = [ring.one]
        for prime, exp in self.factor(f):
            powers = [ring.one]
            for _ in range(exp):
                powers.append(ring.mul(powers[-1], prime))
            out = [ring.mul(d, pw) for d in out for pw in powers]
        out.sort(key=lambda d: (len(d), ring.index_of(d)))
        return out


def divisors_monic(ring: PolyRing, f) -> list:
    """Monic divisors by trial division against every monic of degree <= deg f."""
    if not f:
        raise ZeroPolynomialError("divisors of the zero polynomial")
    deg = len(f) - 1
    out = []
    for d in range(0, deg + 1):
        for g in ring.enumerate(PolySet.MONIC, d):
            if not ring.mod(f, g):
                out.append(g)
    return out


def mobius(ring: PolyRing, f, table: FactorTable | None = None) -> int:
    return (table or FactorTable(ring)).mobius(f)


def von_mangoldt(ring: PolyRing, f, table: FactorTable | None = None) -> int:
    return (table or FactorTable(ring)).von_mangoldt(f)


def tau(ring: PolyRing, f, table: FactorTable | None = None) -> int:
    return (table or FactorTable(ring)).tau(f)


def check_tau_bound(
    ring: PolyRing,
    n: int,
    epsilon: float = 0.5,
    table: FactorTable | None = None,
    cap: int | None = None,
) -> dict:
    """Scan M(n) for the hard divisor bound tau(f) <= 2^deg f.

    The soft branch q^(n(2+eps)/ln n) is reported for inspection only; its
    implied constant is unquantified, so nothing is asserted about it.
    """
    if n < 1:
        raise DegreeBoundError("tau scan needs degree >= 1")
    table = table or FactorTable(ring)
    q = ring.ctx.q
    worst = 0
    worst_f = None
    for f in ring.enumerate(PolySet.MONIC, n, cap):
        t = table.tau(f)
        if t > worst:
            worst, worst_f = t, f
    bound = 2**n
    soft = q ** (n * (2 + epsilon) / math.log(n)) if n >= 2 else None
    return {
        "statistic": "tau-max",
        "q": q,
        "n": n,
        "observed": worst,
        "bound": bound,
        "pass": worst <= bound,
        "detail": {"argmax": ring.to_str(worst_f), "soft_branch": soft,
                   "epsilon": epsilon},
    }


def check_tau_second_moment(
    ring: PolyRing,
    n: int,
    table: FactorTable | None = None,
    cap: int | None = None,
) -> dict:
    """Exact second moment of tau over M(n) against 4 n^3 q^n."""
    if n < 1:
        raise DegreeBoundError("moment scan needs degree >= 1")
    table = table or FactorTable(ring)
    q = ring.ctx.q
    total = 0
    for f in ring.enumerate(PolySet.MONIC, n, cap):
        total += table.tau(f) ** 2
    bound = 4 * n**3 * q**n
    return {
        "statistic": "tau-second-moment",
        "q": q,
        "n": n,
        "observed": total,
        "bound": bound,
        "pass": total <= bound,
        "detail": {},
    }


def count_reversal_solutions(
    ring: PolyRing,
    f,
    n: int,
    table: FactorTable | None = None,
    cap: int | None = None,
) -> dict:
    """Count polynomials a of degree exactly n with reverse(a, n) * a = f.

    Solutions come in unit pairs {a, -a} because scaling by c multiplies the
    product by c^2 and c^2 = 1 only for c = +-1 in odd characteristic.  The
    report carries both the raw count and the count of +-classes.  When a
    solution b exists it witnesses f as a reversal product and the doubled
    divisor bound 2*tau(b) applies on top of the unconditional 2^n.
    """
    deg = ring.degree(f)
    if deg is not None and deg > 2 * n:
        raise DegreeBoundError(f"deg f = {deg} exceeds 2n = {2 * n}")
    table = table or FactorTable(ring)
    ring.check_cap(ring.cardinality(PolySet.DEGREE_EXACT, n), cap)
    solutions = []
    for a in ring.enumerate(PolySet.DEGREE_EXACT, n, cap):
        if ring.mul(ring.reverse(a, n), a) == f:
            solutions.append(a)
    classes = {min(ring.index_of(a), ring.index_of(ring.neg(a))) for a in solutions}
    count = len(solutions)
    tau_bound = None
    ok = count <= 2**n
    if solutions:
        tau_bound = 2 * table.tau(solutions[0])
        ok = ok and count <= tau_bound
    return {
        "statistic": "reversal-count",
        "q": ring.ctx.q,
        "n": n,
        "observed": count,
        "bound": 2**n,
        "pass": ok,
        "detail": {
            "f": ring.to_str(f),
            "classes": len(classes),
            "solutions": [ring.to_str(a) for a in solutions],
            "tau_bound": tau_bound,
        },
    }


def scan_reversal_counts(ring: PolyRing, n: int, cap: int | None = None) -> dict:
    """Exhaustive reversal-equation counts over every f of degree 2n.

    Groups the products reverse(a, n) * a over all a of degree n, then reads
    off N(f) for each f of degree exactly 2n.  The per-f operation
    count_reversal_solutions is the direct oracle for spot checks.
    """
    ring.check_cap(ring.cardinality(PolySet.DEGREE_EXACT, n), cap)
    ring.check_cap(ring.cardinality(PolySet.DEGREE_EXACT, 2 * n), cap)
    products: dict = {}
    for a in ring.enumerate(PolySet.DEGREE_EXACT, n, cap):
        prod = ring.mul(ring.reverse(a, n), a)
        products.setdefault(prod, []).append(a)
    max_count = 0
    max_f = None
    hist: dict[int, int] = {}
    represented = 0
    for f in ring.enumerate(PolySet.DEGREE_EXACT, 2 * n, cap):
        cnt = len(products.get(f, ()))
        hist[cnt] = hist.get(cnt, 0) + 1
        if cnt:
            represented += 1
        if cnt > max_count:
            max_count, max_f = cnt, f
    return {
        "statistic": "reversal-count-scan",
        "q": ring.ctx.q,
        "n": n,
        "observed": max_count,
        "bound": 2**n,
        "pass": max_count <= 2**n,
        "detail": {
            "argmax": ring.to_str(max_f) if max_f else None,
            "histogram": {str(k): v for k, v in sorted(hist.items())},
            "represented": represented,
        },
    }
