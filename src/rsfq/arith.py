"""Multiplicative functions on F_q[t] and the reversal-equation counts.

Dirichlet.convolve sums x[a]*y[b] exactly at the index of a*b; degree by
degree it gives mu from mu*1 = delta, Lambda from Lambda*1 = deg and
tau = 1*1 (Rosen, Number Theory in Function Fields, ch. 2).  The indices
of g*h come from sieve.product_indices; over all monic g, h of total
degree k they are a per-field constant: while q^k <= sieve.BLOCK a
process keeps them once per field and degree in one table
(_degree_table), block j of it g*h over g of degree j, and every kernel
reads it; a larger degree is streamed and keeps nothing.
Dirichlet.product_blocks is the one reader of g*h for every bulk sum:
the kept table's rows, else the product_indices blocks.  convolve_rows
gives many convolutions of one degree as the rows of one array; vaughan
builds its blocks with it, per total degree, and its sigma1 and sigma2
read R(g h) through product_blocks.  mu, Lambda and tau need, per degree
k, only the divisor sum of f_j * 1_(k-j) over j < k: one bincount over
the kept degree-k table, else one convolution per j.  Only index tables
are kept, never mu, Lambda, tau or any other result.  FactorTable (trial
division) and divisors_monic are the independent routes it is tested
against, and count_reversal_solutions, the scan's per-f oracle, uses
FactorTable.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DegreeBoundError, EnumerationCapError, ZeroPolynomialError
from .field import basis_key
from .poly import PolyRing, PolySet
from .sieve import BLOCK, SIEVE_CAP, product_indices


class Dirichlet:
    """Exact Dirichlet convolution over the monic polynomials of F_q[t].

    A degree-d vector is an int64 array over the q^d monic polynomials of
    degree d in counting order, at most SIEVE_CAP long.  mu and Lambda are
    kept per instance as they are solved, one degree at a time and each
    from its own identity.  The index tables it reads are per process
    (_degree_table), shared by every kernel of the same field, and kept
    while q^k <= BLOCK; tables=False keeps no degree, so every sum reads
    the streamed product_indices blocks.
    """

    def __init__(self, ring: PolyRing, tables: bool = True):
        self.ctx = ring.ctx
        self._mu = [np.ones(1, dtype=np.int64)]
        self._lam = [np.zeros(1, dtype=np.int64)]
        self._keep = BLOCK if tables else 0

    def ones(self, d: int) -> np.ndarray:
        return np.ones(self.ctx.q**d, dtype=np.int64)

    def products(self, d: int, m: int) -> np.ndarray:
        """Read-only (q^d, q^m) counting indices of g*h, g and h monic of
        degrees d, m >= 1 in counting order, q^(d+m) <= BLOCK: block d of
        the kept degree-(d+m) table, a view."""
        q, k = self.ctx.q, d + m
        table = _degree_table(*basis_key(self.ctx.p, self.ctx.basis), k)
        return table[(d - 1) * q**k:d * q**k].reshape(q**d, q**m)

    def product_blocks(self, d: int, m: int, gs: np.ndarray | None = None):
        """(sel, hs, idx) blocks of the counting indices of g*h over the g
        of degree d at the indices gs (every g when None) and every h of
        degree m: idx[i, j] is that of g = gs[sel][i] times the h of
        counting index hs.start + j, sel and hs slices.  While degree
        d + m is kept, one block: the table's rows.  Else the streamed
        product_indices blocks, about BLOCK products each; over every g of
        a degree d > m they are formed over the fewer factors h, and each
        block is read transposed."""
        ctx = self.ctx
        if ctx.q ** (d + m) <= self._keep:
            rows = self.products(d, m)
            return [(slice(None), slice(None),
                     rows if gs is None else rows[gs])]
        if gs is None and d > m:
            return ((g, h, idx.T) for h, g, idx in product_indices(
                np.arange(ctx.q**m), m, d, ctx.p, ctx.basis))
        return product_indices(np.arange(ctx.q**d) if gs is None else gs,
                               d, m, ctx.p, ctx.basis)

    def convolve(self, x: np.ndarray, da: int, y: np.ndarray,
                 db: int) -> np.ndarray:
        """Vector z of degree da + db with z[a*b] = sum of x[a] * y[b]."""
        return self.convolve_rows([(x, da, y)], da + db)[0]

    def convolve_rows(self, terms: list, k: int) -> np.ndarray:
        """The convolutions x * y of degree k as the rows of one int64
        array, one row per vector of x over the terms (x, d, y) in order:
        x is a vector or a 2-D stack of vectors of degree d, y a vector of
        degree k - d.

        Each row enumerates the nonzero entries gs of its sparser factor
        (_sparser) and sums one bincount per product_blocks block of their
        products with h.  One bincount over all rows would need every key
        offset by its row: a pass over the keys that costs more than the
        calls it saves.
        """
        size = self.ctx.q**k
        if size > SIEVE_CAP:
            raise EnumerationCapError(
                f"q^{k} = {size} exceeds the convolution cap {SIEVE_CAP}")
        stacks = [(x if x.ndim == 2 else x[None], d, y) for x, d, y in terms]
        out = np.empty((sum(len(xs) for xs, _, _ in stacks), size),
                       dtype=np.int64)
        first = 0
        for xs, d, y in stacks:
            rows = out[first:first + len(xs)]
            first += len(xs)
            if not d or d == k:
                rows[:] = (xs[:, :, None] * y).reshape(len(xs), size)
                continue
            # bincount sums in float64, which is exact below 2^53.
            if (int(np.abs(xs).sum(axis=1).max())
                    * int(np.abs(y).sum()) >= 2**53):
                raise OverflowError("convolution sums exceed exact float range")
            for row, x in zip(rows, xs):
                x, da, gs, h, db = self._sparser(x, d, y, k - d)
                x, h = x[gs], h.astype(float)
                parts = (np.bincount(idx.ravel(), np.multiply.outer(
                    x[sel], h[hs]).ravel(), size)
                    for sel, hs, idx in self.product_blocks(da, db, gs))
                z = next(parts, 0)      # the first sum, not a zeroed array
                for part in parts:
                    z += part
                row[:] = z
        return out

    def _sparser(self, x: np.ndarray, da: int, y: np.ndarray,
                 db: int) -> tuple:
        """(x, da, xs, y, db), the two factors in the order in which
        enumerating xs, the nonzero entries of the first, takes the fewer
        products."""
        xs, ys = np.flatnonzero(x), np.flatnonzero(y)
        if len(ys) * self.ctx.q**da < len(xs) * self.ctx.q**db:
            return y, db, ys, x, da
        return x, da, xs, y, db

    def _divisor_sum(self, f: list | None, k: int) -> np.ndarray:
        """Sum over 1 <= j < k of f[j] * 1_(k-j), f[j] = 1_j if f is None.

        One bincount over the degree-k table while it is kept, else one
        convolution per j.
        """
        q = self.ctx.q
        size = q**k
        if k < 2 or size > self._keep:
            return sum((self.convolve(self.ones(j) if f is None else f[j], j,
                                      self.ones(k - j), k - j)
                        for j in range(1, k)),
                       np.zeros(size, dtype=np.int64))
        table = _degree_table(*basis_key(self.ctx.p, self.ctx.basis), k)
        if f is None:
            return np.bincount(table, minlength=size)
        # Block j of the table lists g*h row by row over g of degree j, so
        # f[j][g] weighs the q^(k-j) entries of row g; bincount sums in
        # float64, exact while the sum of every |weight| stays below 2^53.
        if sum(int(np.abs(f[j]).sum()) * q ** (k - j)
               for j in range(1, k)) >= 2**53:
            raise OverflowError("convolution sums exceed exact float range")
        weights = np.concatenate([np.repeat(f[j].astype(float), q ** (k - j))
                                  for j in range(1, k)])
        return np.bincount(table, weights, size).astype(np.int64)

    def _solve(self, n: int) -> None:
        """Extend mu and Lambda to degree n, degree by degree: each f
        solves its own identity (f*1)_k = slope * k, k >= 1, slope 0 for
        mu*1 = delta and 1 for Lambda*1 = deg.

        Both advance together so that they read each degree's table back
        to back: solved one after the other, the second pass would find
        the bounded cache refilled with the first pass's later degrees
        whenever n exceeds what it holds.
        """
        for k in range(len(self._mu), n + 1):
            for f, slope in ((self._mu, 0), (self._lam, 1)):
                f.append(slope * k - f[0][0] - self._divisor_sum(f, k))

    def mobius(self, n: int) -> list:
        """[mu_0, ..., mu_n] from mu*1 = delta."""
        self._solve(n)
        return self._mu[:n + 1]

    def von_mangoldt(self, n: int) -> list:
        """[Lambda_0, ..., Lambda_n] from Lambda*1 = deg."""
        self._solve(n)
        return self._lam[:n + 1]

    def tau(self, n: int) -> np.ndarray:
        """tau_n = (1*1)_n: the divisor sum of degree n plus 1_0 * 1_n and
        1_n * 1_0."""
        if not n:
            return np.ones(1, dtype=np.int64)
        return self._divisor_sum(None, n) + 2


@lru_cache(maxsize=10)
def _degree_table(p: int, e: int, basis: bytes, k: int) -> np.ndarray:
    """The read-only degree-k table of the field with this int64 basis,
    q^k <= BLOCK: (k-1) q^k counting indices in intp, the type bincount
    reads, block j = 1 .. k-1 the raveled (q^j, q^(k-j)) indices of g*h
    over monic g of degree j.  Blocks j > k - j are the transposes of
    blocks k - j, so each unordered {j, k - j} is formed once.  The 10
    most recently used are kept: every kept table of F_3, k = 2 .. 11.
    The key is exactly what product_indices reads."""
    q = p**e
    basis = np.frombuffer(basis, dtype=np.int64).reshape(e, e, e)
    table = np.empty((k - 1) * q**k, dtype=np.intp)
    blocks = table.reshape(k - 1, q**k)
    for j in range(1, k // 2 + 1):
        block = blocks[j - 1].reshape(q**j, q ** (k - j))
        for gs, hs, idx in product_indices(np.arange(q**j), j, k - j, p,
                                           basis):
            block[gs, hs] = idx
        if 2 * j < k:
            blocks[k - j - 1].reshape(q ** (k - j), q**j)[:] = block.T
    table.setflags(write=False)
    return table


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


TAU_EPSILON = 0.5


def check_tau_bound(ring: PolyRing, n: int) -> dict:
    """Scan M(n) for the hard divisor bound tau(f) <= 2^deg f.

    The argmax is the first maximum in counting order.  The soft branch
    q^(n(2+eps)/ln n), eps = TAU_EPSILON, is reported for inspection only;
    its implied constant is unquantified, so nothing is asserted about it.
    """
    if n < 1:
        raise DegreeBoundError("tau scan needs degree >= 1")
    ring.check_cap(ring.cardinality(PolySet.MONIC, n))
    q = ring.ctx.q
    taus = Dirichlet(ring).tau(n)
    arg = int(np.argmax(taus))
    worst = int(taus[arg])
    bound = 2**n
    soft = q ** (n * (2 + TAU_EPSILON) / math.log(n)) if n >= 2 else None
    return {
        "statistic": "tau-max",
        "q": q,
        "n": n,
        "observed": worst,
        "bound": bound,
        "pass": worst <= bound,
        "detail": {"argmax": ring.to_str(ring.from_index(PolySet.MONIC, n, arg)),
                   "soft_branch": soft, "epsilon": TAU_EPSILON},
    }


def check_tau_second_moment(ring: PolyRing, n: int) -> dict:
    """Exact second moment of tau over M(n) against 4 n^3 q^n."""
    if n < 1:
        raise DegreeBoundError("moment scan needs degree >= 1")
    ring.check_cap(ring.cardinality(PolySet.MONIC, n))
    q = ring.ctx.q
    taus = Dirichlet(ring).tau(n)
    total = int(np.dot(taus, taus))
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
) -> dict:
    """Count polynomials a of degree exactly n with reverse(a, n) * a = f.

    Solutions come in unit pairs {a, -a} because scaling by c multiplies the
    product by c^2 and c^2 = 1 only for c = +-1 in odd characteristic.  The
    report carries both the raw count and the count of +-classes.  A
    solution is c*A, A a monic degree-n divisor of f and c^2 fixed by f, so
    N(f) <= 2 d_n(f) (divisor_bound); with a solution b, N(f) <= 2 tau(b).
    """
    deg = ring.degree(f)
    if deg is not None and deg > 2 * n:
        raise DegreeBoundError(f"deg f = {deg} exceeds 2n = {2 * n}")
    table = table or FactorTable(ring)
    solutions = []
    for a in ring.enumerate(PolySet.DEGREE_EXACT, n):
        if ring.mul(ring.reverse(a, n), a) == f:
            solutions.append(a)
    classes = {min(ring.index_of(a), ring.index_of(ring.neg(a))) for a in solutions}
    count = len(solutions)
    divisor_bound = 2 * sum(len(d) == n + 1 for d in table.divisors(f)) if f else 0
    tau_bound = None
    ok = count <= 2**n and count <= divisor_bound
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
            "divisor_bound": divisor_bound,
        },
    }


def scan_reversal_counts(ring: PolyRing, n: int) -> dict:
    """Exhaustive reversal-equation counts over every f of degree 2n.

    Groups the products reverse(a, n) * a over all a of degree n and reads
    off N(f) for each such f of degree exactly 2n; every other f has N = 0.
    count_reversal_solutions is the per-f oracle for spot checks.  The
    stated N(f) <= 2^n decides pass, as the stated bound does for rank-qa;
    it fails from q = 5 on, and at n = 0 for every q (f = 1 = (+-1)^2),
    and every f above it is listed with N(f) and the provable 2 d_n(f),
    d_n = (1_n * 1_n)[monic f], which is checked.
    """
    ring.check_cap(ring.cardinality(PolySet.DEGREE_EXACT, n))
    ring.check_cap(ring.cardinality(PolySet.DEGREE_EXACT, 2 * n))
    products: dict = {}
    for a in ring.enumerate(PolySet.DEGREE_EXACT, n):
        prod = ring.mul(ring.reverse(a, n), a)
        products.setdefault(prod, []).append(a)
    kernel = Dirichlet(ring)
    d_n = kernel.convolve(kernel.ones(n), n, kernel.ones(n), n)
    # (f, N(f), 2 d_n(f)) for every f of degree 2n with N(f) > 0, in order.
    found = [(f, len(products[f]), 2 * int(d_n[ring.index_of(ring.monic(f)[:-1])]))
             for f in sorted(products, key=ring.index_of) if len(f) == 2 * n + 1]
    hist = {0: ring.cardinality(PolySet.DEGREE_EXACT, 2 * n) - len(found)}
    max_count, max_f = 0, None
    for f, cnt, _ in found:
        hist[cnt] = hist.get(cnt, 0) + 1
        if cnt > max_count:
            max_count, max_f = cnt, f
    divisor_ok = all(cnt <= bound for _, cnt, bound in found)
    return {
        "statistic": "reversal-count-scan",
        "q": ring.ctx.q,
        "n": n,
        "observed": max_count,
        "bound": 2**n,
        "pass": max_count <= 2**n and divisor_ok,
        "detail": {
            "argmax": ring.to_str(max_f) if max_f else None,
            "histogram": {str(k): v for k, v in sorted(hist.items())},
            "represented": len(found),
            "divisor_bound_holds": divisor_ok,
            "divisor_bound_attained": any(cnt == b for _, cnt, b in found),
            "counterexamples": [
                {"f": ring.to_str(f), "count": cnt, "divisor_bound": bound}
                for f, cnt, bound in found if cnt > 2**n],
        },
    }
