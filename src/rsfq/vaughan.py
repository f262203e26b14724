"""Sieve decomposition of weighted prime-power sums over monic polynomials.

For a bounded weight Psi and cutoffs u, v with 1 <= u, v and u + v < n, the
sum of Lambda(f) Psi(f) over monic f of degree n equals S1 - S2 + S3:

    S1 = sum over monic a b with deg(ab) = n, deg a <= u of
         mu(a) * deg(b) * Psi(a b)
    S2 = sum over monic a b c with deg(abc) = n, deg a <= u, deg b <= v of
         mu(a) * Lambda(b) * Psi(a b c)
    S3 = the same triple sum restricted to deg a > u and deg b > v

Each Sj is Psi dotted with an integer vector cj over monic degree n
(Iwaniec-Kowalski, Analytic Number Theory, ch. 13).  VaughanContext builds
the blocks of the cj per total degree with rsfq.arith's convolution kernel
and keeps their integer prefix sums, from which c1, c2 and c3 at any
(u, v) take a few vector operations.  decompose_all asserts
c1 - c2 + c3 = Lambda in integers once per (u, v), before weighing
anything, and weighs every weight there; decompose does one (u, v) and
weight by the same route.  S2 is grouped as (mu*Lambda)*1; s2_triple's
mu*(Lambda*1), on a kernel that reads no table, cross-checks it.

sigma1 and sigma2 are the type-I and type-II character-sum aggregates.  Both
evaluate R once over the monics of degree n with rudin.rs_values and read
R(g h) block by block through Dirichlet.product_blocks, as convolve_rows
does, so that neither forms an index array of q^n entries.  Both report
their asymptotic-shape reference values (never asserted: the implied
constants carry no numeric value).  Every inner sum S is a quadratic Gauss
sum: both aggregates decode |S| from the F_p histograms of Tr(beta R(g h))
through charsum.decode_abs, which also states the exact pairs [A, B] that
they sum and compare (see charsum).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, fields

import numpy as np

from .arith import Dirichlet
from .charsum import (UNEVEN, ZERO, CharSpec, char_eval, char_traces,
                      decode_abs, pair_exceeds, pair_value)
from .errors import (
    ExactIdentityError,
    InvalidCutoffsError,
    TrivialCharacterError,
)
from .poly import PolyRing, PolySet
from .rudin import rs_values, rudin_shapiro
from .sieve import blocks, check_sieve_cap
from .vecenum import int_dtype


def validate_cutoffs(n: int, u: int, v: int) -> None:
    if not (1 <= u <= n and 1 <= v <= n and u + v < n):
        raise InvalidCutoffsError(
            f"cutoffs must satisfy 1 <= u, v <= n and u + v < n; got "
            f"n={n}, u={u}, v={v}"
        )


def default_cutoffs(n: int) -> tuple[int, int]:
    """Cutoffs u ~ 3n/14 and v ~ 10n/14, clamped to the valid region.

    Rounding is banker's rounding (Python round); when the rounded pair is
    out of range, v is decremented first (it carries the larger share),
    then u, keeping both >= 1.  Degrees below 3 admit no valid pair.
    """
    u = max(1, round(3 * n / 14))
    v = max(1, round(10 * n / 14))
    while u + v >= n and v > 1:
        v -= 1
    while u + v >= n and u > 1:
        u -= 1
    if u + v >= n:
        raise InvalidCutoffsError(f"no valid cutoffs exist for n = {n}")
    return u, v


@dataclass
class VaughanReport:
    q: int
    n: int
    u: int
    v: int
    lhs: complex
    s1: complex
    s2: complex
    s3: complex
    residual: float

    def as_dict(self) -> dict:
        """Every field in order, a complex value as {"re", "im"}."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = ({"re": value.real, "im": value.imag}
                           if isinstance(value, complex) else value)
        return out


class VaughanContext:
    """Integer prefix sums at degree n, reused across cutoffs and weights.

    All vectors are int64 over the monic polynomials of degree n in
    counting order; lambdas is Lambda_n.  The blocks
    B[da, db] = (mu_da * Lambda_db) * 1_(n-da-db), da >= 0, db >= 1 and
    da + db <= n, are built per total degree s = da + db: one
    kernel.convolve_rows call gives every mu_da * Lambda_(s-da), one more
    all of them times 1_(n-s).  c1's terms (n - da) mu_da * 1_(n-da) take
    one call, so a context makes about 2n calls where one convolution per
    block made about n^2.  What is kept are prefix sums, never the blocks:
    c1[u] is c1 at cutoff u, and prefix[s][a] is the sum of B[da, s - a]
    over da <= a, column s - a of the blocks summed down to row a, so that
    c1, c2 and c3 at any (u, v) take a few vector operations (_sums).
    That is n^2 / 2 + n vectors, as many as the blocks.  The kernel's
    degree tables, kept per process, are shared with sigma1 and sigma2.
    """

    def __init__(self, ring: PolyRing, n: int):
        if n < 2:
            raise InvalidCutoffsError("decomposition needs n >= 2")
        ring.check_cap(ring.cardinality(PolySet.MONIC, n))
        self.ring = ring
        self.n = n
        self.kernel = kernel = Dirichlet(ring)
        mu = kernel.mobius(n - 1)
        lam = kernel.von_mangoldt(n)
        self.lambdas = lam[n]
        self.c1 = kernel.convolve_rows(
            [(mu[da], da, kernel.ones(n - da)) for da in range(n - 1)], n)
        self.c1 *= np.arange(n, 1, -1)[:, None]
        for u in range(1, n - 1):
            self.c1[u] += self.c1[u - 1]
        # prefix[s][a] starts as the block (a, s - a) and, one total degree
        # after (a - 1, s - a), becomes the prefix sum down its column.
        self.prefix = [np.empty((0, len(self.lambdas)), dtype=np.int64)]
        for s in range(1, n + 1):
            pairs = kernel.convolve_rows(
                [(mu[da], da, lam[s - da]) for da in range(s)], s)
            # At s = n the blocks are the pairs themselves, times 1_0 = 1.
            self.prefix.append(pairs if s == n else kernel.convolve_rows(
                [(pairs, s, kernel.ones(n - s))], n))
            self.prefix[s][1:] += self.prefix[s - 1]

    def tabulate(self, weight) -> np.ndarray:
        """Evaluate a weight callable on the monic degree-n polynomials."""
        monics = self.ring.monic_range(self.n, 0, self.ring.ctx.q**self.n)
        return np.array([complex(weight(f)) for f in monics])

    def _sums(self, u: int):
        """(v, c1, c2, c3) at cutoffs u, v for v = 1 .. n-1-u, from the
        prefix sums.

        With u + v < n every column db <= v reaches row u, so c2 adds the
        column prefixes down to row u, prefix[u + db][u], over db <= v.
        c3 adds, over v < db < n - u, the column total prefix[n][n - db]
        less that prefix (column n - u ends at row u, and a later one
        before it): it starts as the sum over 0 < db < n - u and drops
        column v at each v.  Three vector operations per v, and a few
        vectors at a time.
        """
        n, prefix = self.n, self.prefix

        def below(db):          # column db below row u
            return prefix[n][n - db] - prefix[u + db][u]

        c2 = np.zeros_like(self.lambdas)
        c3 = sum((below(db) for db in range(2, n - u)), below(1))
        for v in range(1, n - u):
            c2 = c2 + prefix[u + v][u]
            c3 = c3 - below(v)
            yield v, self.c1[u], c2, c3

    def coefficients(self, u: int, v: int) -> tuple:
        """Integer vectors (c1, c2, c3) over monic degree n for cutoffs u, v."""
        validate_cutoffs(self.n, u, v)
        return next(tuple(sums) for w, *sums in self._sums(u) if w == v)

    def _check(self, u: int, v: int, c1, c2, c3) -> None:
        """Raise ExactIdentityError naming the first monic f at which
        c1 - c2 + c3 != Lambda."""
        bad = np.flatnonzero(c1 - c2 + c3 != np.asarray(self.lambdas))
        if len(bad):
            i = int(bad[0])
            f = self.ring.to_str(self.ring.from_index(PolySet.MONIC, self.n, i))
            raise ExactIdentityError(f"c1 - c2 + c3 != Lambda at f = {f} for "
                                     f"n={self.n}, u={u}, v={v}")

    def _report(self, u: int, v: int, lhs: complex, s1: complex,
                s2: complex, s3: complex) -> VaughanReport:
        return VaughanReport(
            q=self.ring.ctx.q, n=self.n, u=u, v=v, lhs=lhs, s1=s1, s2=s2,
            s3=s3, residual=abs(lhs - (s1 - s2 + s3)),
        )

    def decompose_all(self, weights: list) -> dict:
        """{(u, v): reports} over every valid cutoff pair in order.

        weights are complex arrays in counting order.  Each pair's
        identity is checked once; a pair that fails maps to its
        ExactIdentityError, any other to one VaughanReport per weight.
        Every component is np.dot of its exact integer vector with the
        weight, as in decompose, so each float is decompose's: lhs once per
        weight, s1 once per (u, weight), s2 and s3 once per (u, v, weight).
        """
        lhs = _dots(self.lambdas, weights)
        out = {}
        for u in range(1, self.n - 1):
            s1 = None
            for v, c1, c2, c3 in self._sums(u):
                try:
                    self._check(u, v, c1, c2, c3)
                except ExactIdentityError as err:
                    out[u, v] = err
                    continue
                if s1 is None:
                    s1 = _dots(c1, weights)
                out[u, v] = [self._report(u, v, *sums) for sums in zip(
                    lhs, s1, _dots(c2, weights), _dots(c3, weights))]
        return out

    def triple_coefficients(self, u: int, v: int) -> np.ndarray:
        """c2 evaluated as mu*(Lambda*1), independently of the blocks and,
        by a kernel that reads no table, of the degree tables."""
        n, stream = self.n, Dirichlet(self.ring, tables=False)
        mu, lam = self.kernel.mobius(u), self.kernel.von_mangoldt(v)
        return sum(stream.convolve(mu[da], da, sum(
            stream.convolve(lam[db], db, stream.ones(n - da - db), n - da - db)
            for db in range(1, min(v, n - da) + 1)), n - da)
            for da in range(u + 1))

    def s2_grouped(self, u: int, v: int, values) -> complex:
        """Grouped route: (mu*Lambda)*1, summed from the prefix sums."""
        return complex(np.dot(self.coefficients(u, v)[1], values))

    def s2_triple(self, u: int, v: int, values) -> complex:
        """mu*(Lambda*1), kept as the independent cross-check for S2."""
        return complex(np.dot(self.triple_coefficients(u, v), values))

    def decompose(self, u: int, v: int, weight) -> VaughanReport:
        """Verify the identity in integers, then weigh every component."""
        c1, c2, c3 = self.coefficients(u, v)
        self._check(u, v, c1, c2, c3)
        values = np.asarray(self.tabulate(weight) if callable(weight)
                            else weight, dtype=complex)
        return self._report(u, v, *(complex(np.dot(c, values))
                                    for c in (self.lambdas, c1, c2, c3)))


def _dots(c: np.ndarray, weights: list) -> list:
    """complex(np.dot(c, w)) for every weight w, c cast to complex once:
    the cast np.dot makes of an integer c itself, so each float is the
    same."""
    c = c.astype(complex)
    return [complex(np.dot(c, w)) for w in weights]


def vaughan_decompose(ring: PolyRing, n: int, u: int, v: int,
                      weight) -> VaughanReport:
    """One-shot decomposition; build a VaughanContext to amortize several."""
    return VaughanContext(ring, n).decompose(u, v, weight)


# -- weights -----------------------------------------------------------------


def unit_weight(_f) -> complex:
    return 1.0 + 0j


def character_rs_weight(ring: PolyRing, chi: CharSpec):
    """Psi(f) = psi(R(f)) for deg f >= 2, extended by psi(0) = 1 below."""

    def weight(f) -> complex:
        if len(f) - 1 < 2:
            return 1.0 + 0j
        return char_eval(chi, rudin_shapiro(ring, f))

    return weight


def random_weight_values(ring: PolyRing, n: int, seed: int) -> list:
    """Seeded unit-bounded weight tabulated over the monic degree-n list."""
    rng = random.Random(seed)
    count = ring.cardinality(PolySet.MONIC, n)
    ring.check_cap(count)
    return [
        cmath.rect(rng.random(), 2 * math.pi * rng.random())
        for _ in range(count)
    ]


# -- sigma aggregates ---------------------------------------------------------


def _rs_table(ring: PolyRing, n: int) -> np.ndarray:
    """R of every monic polynomial of degree n >= 2 in counting order,
    evaluated on the sieve.blocks of BLOCK entries, which bounds
    rs_values' temporaries.  R(g h) for monic g of degree d is then this
    table read at the kernel's product_blocks(d, n - d)."""
    q = ring.ctx.q
    out = np.empty(q**n, dtype=int_dtype(q - 1))
    for start, stop in blocks(len(out)):
        out[start:stop] = rs_values(ring, n, np.arange(start, stop))
    return out


def _sigma_setup(name: str, ring: PolyRing, n: int, u: int, v: int,
                 chi: CharSpec, rs, degrees) -> tuple:
    """(q, p, kernel, Tr(beta R) over the monics of degree n), R from rs when
    given, after checking the cutoffs, chi and the caps of degrees, then n,
    then q^n at sieve.check_sieve_cap, the one gate of every bulk scan of
    degree n."""
    validate_cutoffs(n, u, v)
    if chi.is_trivial():
        raise TrivialCharacterError(f"{name} needs a non-trivial character")
    for k in (*degrees, n):
        ring.check_cap(ring.cardinality(PolySet.MONIC, k))
    check_sieve_cap(ring.ctx.q, n)
    return (ring.ctx.q, ring.ctx.p, Dirichlet(ring),
            char_traces(chi)[_rs_table(ring, n) if rs is None else rs])


def _exact(hist: np.ndarray, p: int, where) -> np.ndarray:
    """|S| as [A, B] of every F_p value histogram (rows of hist); where(row)
    names the first row whose |S|^2 is not 0 or a power of p."""
    r = np.arange(p)
    abs_sq, k, exact = decode_abs(hist, (r[:, None] + r) % p, p)
    if (k < ZERO).any():
        row = int(np.argmax(k < ZERO))
        fault = ("A_d is not the same for every d != 0" if k[row] == UNEVEN
                 else f"|S|^2 = {abs_sq[row]} is not 0 or a power of {p}")
        raise ExactIdentityError(f"{fault} at {where(row)}")
    return exact


def sigma1(ring: PolyRing, n: int, u: int, v: int, chi: CharSpec,
           rs: np.ndarray | None = None) -> dict:
    """Sum over monic g with deg g <= u + v of |sum_h psi(R(g h))|.

    The inner sum ranges over monic h of degree n - deg g, one row of the
    R(g h) matrix.  Each row's histogram of Tr(beta R(g h)) over F_p is
    summed block by block over the kernel's product_blocks and gives |S|
    exactly, so value and by_degree are the floats of the exact pairs
    value_exact and by_degree_exact.  The reference shape
    q^((n + u + v + 2) / 2) is reported, not asserted.  rs is R of every
    monic of degree n in counting order, evaluated when not given.
    """
    # The q^n monics h of the row g = 1 bound every other degree's sets.
    q, p, kernel, traces = _sigma_setup("sigma1", ring, n, u, v, chi, rs, ())
    # The q^dg rows g of degree dg are rows starts[dg]: of one histogram
    # array, so that one _exact call serves every degree.
    starts = np.cumsum([0] + [q**dg for dg in range(u + v + 1)])
    hist = np.zeros((starts[-1], p), dtype=np.int64)
    # g = 1 pairs with every h; bincount would cast all q^n traces at once.
    hist[0] = sum(np.bincount(traces[start:stop], minlength=p)
                  for start, stop in blocks(len(traces)))
    for dg in range(1, u + v + 1):
        rows = hist[starts[dg]:starts[dg + 1]]
        for sel, _, idx in kernel.product_blocks(dg, n - dg):
            # Key i p + Tr(beta R(g h)) for the i-th row g of the block.
            rows[sel] += np.bincount((np.arange(len(idx))[:, None] * p
                                      + traces[idx]).ravel(),
                                     minlength=len(idx) * p).reshape(-1, p)

    def where(row):
        dg = int(np.searchsorted(starts, row, side="right")) - 1
        g = ring.from_index(PolySet.MONIC, dg, row - starts[dg])
        return f"g = {ring.to_str(g)}"

    exact = _exact(hist, p, where)
    by_degree_exact = np.add.reduceat(exact, starts[:-1]).tolist()
    total = exact.sum(axis=0).tolist()
    return {
        "q": q,
        "n": n,
        "u": u,
        "v": v,
        "value": pair_value(total, p),
        "value_exact": total,
        "bound": float(q) ** ((n + u + v + 2) / 2),
        "by_degree": [pair_value(pair, p) for pair in by_degree_exact],
        "by_degree_exact": by_degree_exact,
    }


def sigma2(ring: PolyRing, n: int, u: int, v: int, chi: CharSpec,
           rs: np.ndarray | None = None) -> dict:
    """Max over i in [v, n-u] and monic g1 of the pair-sum aggregate.

    For each i and monic g1 of degree n - i, sums over monic g2 of the same
    degree the magnitude of sum_h psi(R(h g1)) conj(psi(R(h g2))) with h
    monic of degree i.  The reference shape q^(15n/14 - u) + q^(3n/2 - v + 1)
    is reported, not asserted.

    Each pair sum's |S| comes exactly from the F_p histogram of
    Tr(beta (R(h g1) - R(h g2))), two rows of the (q^(n-i), q^i) matrix
    of Tr(beta R(g h)), one byte an entry, filled block by block from the
    kernel's product_blocks.  The pair (g2, g1) has the mirrored
    histogram and the same |S|, so each unordered pair is histogrammed
    once and its |S| added to both rows.  The histograms of a block of g1
    rows against every g2 from the block's first row on, about sieve.BLOCK
    (pair, h) entries, come from one bincount.  The argmax is the first
    (i, g1) in counting order that attains value_exact, decided exactly.
    rs is as in sigma1.
    """
    # Every degree's sets, before R of all q^n monics is evaluated.
    q, p, kernel, traces = _sigma_setup("sigma2", ring, n, u, v, chi, rs, (
        k for i in range(v, n - u + 1) for k in (n - i, i)))
    width = 2 * p - 1     # Tr(beta R1) + (-Tr(beta R2) mod p) lies in [0, 2p-2]
    best, best_i, best_k = None, None, None
    for i in range(v, n - u + 1):
        rows, cols = q ** (n - i), q**i
        t = np.empty((rows, cols), dtype=traces.dtype)
        for sel, hs, idx in kernel.product_blocks(n - i, i):
            t[sel, hs] = traces[idx]
        neg = (-t) % p
        sums = np.zeros((rows, 2), dtype=np.int64)
        for lo, hi in blocks(rows, rows * cols):
            # Rows g1 in [lo, hi) against every g2 >= lo, at most rows*cols
            # (pair, h) entries a row.  The histogram of (g2, g1) is that
            # of (g1, g2) mirrored, with the same |S|, so each pair
            # g1 <= g2 adds its |S| to row g1 and, off the diagonal, to row
            # g2; the pairs g2 < g1 inside the block were already counted
            # that way.
            span = rows - lo
            right = np.arange(span)[:, None] * width + neg[lo:]
            left = t[lo:hi] + np.arange(hi - lo)[:, None] * (span * width)
            raw = np.bincount((left[:, None, :] + right).ravel(),
                              minlength=(hi - lo) * span * width)
            raw = raw.reshape(-1, width)
            hist = raw[:, :p]
            hist[:, :p - 1] += raw[:, p:]

            def where(row, lo=lo, span=span, i=i):
                g1 = ring.from_index(PolySet.MONIC, n - i, lo + row // span)
                return f"i = {i}, g1 = {ring.to_str(g1)}"

            exact = _exact(hist, p, where).reshape(hi - lo, span, 2)
            inner = np.triu(exact[:, :hi - lo].transpose(2, 0, 1))
            outer = exact[:, hi - lo:]
            sums[lo:hi] += inner.sum(axis=2).T + outer.sum(axis=1)
            sums[lo:hi] += inner.sum(axis=1).T - inner.diagonal(axis1=1, axis2=2).T
            sums[hi:] += outer.sum(axis=0)
        for k, pair in enumerate(sums.tolist()):
            if best is None or pair_exceeds(pair, best, p):
                best, best_i, best_k = pair, i, k
    return {
        "q": q,
        "n": n,
        "u": u,
        "v": v,
        "value": pair_value(best, p),
        "value_exact": best,
        "bound": float(q) ** (15 * n / 14 - u) + float(q) ** (3 * n / 2 - v + 1),
        "argmax_i": best_i,
        "argmax_g1": ring.to_str(ring.from_index(PolySet.MONIC, n - best_i,
                                                 best_k)),
    }
