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
the blocks of the cj once with rsfq.arith's convolution kernel and, for each
(u, v), asserts c1 - c2 + c3 = Lambda in integers before weighing anything.
S2 is grouped as (mu*Lambda)*1; s2_triple's mu*(Lambda*1) cross-checks it.

sigma1 and sigma2 are the type-I and type-II character-sum aggregates.  Both
read R(g h) off a Dirichlet kernel's product tables through rudin.rs_values
(the verify cell passes the context's kernel, whose tables are already
built) and report their asymptotic-shape reference values (never asserted:
the implied constants carry no numeric value).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from .arith import Dirichlet
from .charsum import CharSpec, char_eval, char_values, hist_to_sum
from .errors import (
    ExactIdentityError,
    InvalidCutoffsError,
    TrivialCharacterError,
)
from .field import field_tables
from .poly import PolyRing, PolySet
from .rudin import rs_values, rudin_shapiro
from .sieve import BLOCK
from .vecenum import int_dtype, sub_table


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
    sigma1: float | None = None
    sigma1_bound: float | None = None
    sigma2: float | None = None
    sigma2_bound: float | None = None

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "u": self.u,
            "v": self.v,
            "lhs": {"re": self.lhs.real, "im": self.lhs.imag},
            "s1": {"re": self.s1.real, "im": self.s1.imag},
            "s2": {"re": self.s2.real, "im": self.s2.imag},
            "s3": {"re": self.s3.real, "im": self.s3.imag},
            "residual": self.residual,
            "sigma1": self.sigma1,
            "sigma1_bound": self.sigma1_bound,
            "sigma2": self.sigma2,
            "sigma2_bound": self.sigma2_bound,
        }


class VaughanContext:
    """Integer coefficient blocks at degree n, reused across cutoffs and weights.

    Holds Lambda_n (lambdas), c1[da] = mu_da * (deg . 1) and
    blocks[da, db] = (mu_da * Lambda_db) * 1, all int64 vectors over the
    monic polynomials of degree n in counting order, built by one kernel
    whose product tables sigma1 and sigma2 can share.  A weight is
    tabulated once per run as a vector in the same order.
    """

    def __init__(self, ring: PolyRing, n: int, cap: int | None = None):
        if n < 2:
            raise InvalidCutoffsError("decomposition needs n >= 2")
        ring.check_cap(ring.cardinality(PolySet.MONIC, n), cap)
        self.ring = ring
        self.n = n
        self.kernel = kernel = Dirichlet(ring)
        mu = kernel.mobius(n - 1)
        lam = kernel.von_mangoldt(n)
        self.lambdas = lam[n]
        self.c1 = [(n - da) * kernel.convolve(mu[da], da, kernel.ones(n - da),
                                              n - da) for da in range(n)]
        self.blocks = {
            (da, db): kernel.convolve(kernel.convolve(mu[da], da, lam[db], db),
                                      da + db, kernel.ones(n - da - db),
                                      n - da - db)
            for da in range(n) for db in range(1, n - da + 1)}

    def tabulate(self, weight) -> np.ndarray:
        """Evaluate a weight callable on the monic degree-n polynomials."""
        monics = self.ring.monic_range(self.n, 0, self.ring.ctx.q**self.n)
        return np.array([complex(weight(f)) for f in monics])

    def coefficients(self, u: int, v: int) -> tuple:
        """Integer vectors (c1, c2, c3) over monic degree n for cutoffs u, v."""
        zero = np.zeros(len(self.lambdas), dtype=np.int64)
        blocks = self.blocks.items()
        return (sum(self.c1[:u + 1], zero),
                sum((b for (da, db), b in blocks if da <= u and db <= v), zero),
                sum((b for (da, db), b in blocks if da > u and db > v), zero))

    def triple_coefficients(self, u: int, v: int) -> np.ndarray:
        """c2 evaluated as mu*(Lambda*1), independently of the blocks and,
        by a kernel that keeps no table, of the product tables."""
        n, stream = self.n, Dirichlet(self.ring, tables=False)
        mu, lam = self.kernel.mobius(u), self.kernel.von_mangoldt(v)
        return sum(stream.convolve(mu[da], da, sum(
            stream.convolve(lam[db], db, stream.ones(n - da - db), n - da - db)
            for db in range(1, min(v, n - da) + 1)), n - da)
            for da in range(u + 1))

    def s2_grouped(self, u: int, v: int, values) -> complex:
        """Grouped route: (mu*Lambda)*1, summed from the blocks."""
        return complex(np.dot(self.coefficients(u, v)[1], values))

    def s2_triple(self, u: int, v: int, values) -> complex:
        """mu*(Lambda*1), kept as the independent cross-check for S2."""
        return complex(np.dot(self.triple_coefficients(u, v), values))

    def decompose(self, u: int, v: int, weight) -> VaughanReport:
        """Verify the identity in integers, then weigh every component."""
        validate_cutoffs(self.n, u, v)
        c1, c2, c3 = self.coefficients(u, v)
        bad = np.flatnonzero(c1 - c2 + c3 != np.asarray(self.lambdas))
        if len(bad):
            i = int(bad[0])
            f = self.ring.to_str(next(self.ring.monic_range(self.n, i, i + 1)))
            raise ExactIdentityError(f"c1 - c2 + c3 != Lambda at f = {f} for "
                                     f"n={self.n}, u={u}, v={v}")
        values = np.asarray(self.tabulate(weight) if callable(weight)
                            else weight, dtype=complex)
        lhs, s1, s2, s3 = (complex(np.dot(c, values))
                           for c in (self.lambdas, c1, c2, c3))
        return VaughanReport(
            q=self.ring.ctx.q, n=self.n, u=u, v=v, lhs=lhs, s1=s1, s2=s2,
            s3=s3, residual=abs(lhs - (s1 - s2 + s3)),
        )


def vaughan_decompose(ring: PolyRing, n: int, u: int, v: int, weight,
                      cap: int | None = None) -> VaughanReport:
    """One-shot decomposition; build a VaughanContext to amortize several."""
    return VaughanContext(ring, n, cap).decompose(u, v, weight)


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


def random_weight_values(ring: PolyRing, n: int, seed: int,
                         cap: int | None = None) -> list:
    """Seeded unit-bounded weight tabulated over the monic degree-n list."""
    rng = random.Random(seed)
    count = ring.cardinality(PolySet.MONIC, n)
    ring.check_cap(count, cap)
    return [
        cmath.rect(rng.random(), 2 * math.pi * rng.random())
        for _ in range(count)
    ]


# -- sigma aggregates ---------------------------------------------------------


def _rs_products(ring: PolyRing, d: int, m: int, cap: int | None,
                 kernel: Dirichlet | None = None) -> np.ndarray:
    """(q^d, q^m) matrix of R(g h), monic g of degree d and h of degree m >= 1
    in counting order, from the kernel's product table (cap-checked per
    degree; a fresh kernel when none is given).  R is evaluated on BLOCK
    entries at a time, which bounds its temporaries."""
    for k in (d, m):
        ring.check_cap(ring.cardinality(PolySet.MONIC, k), cap)
    q = ring.ctx.q
    out = np.empty(q ** (d + m), dtype=int_dtype(q - 1))
    if d:
        flat = (kernel or Dirichlet(ring)).products(d, m).reshape(-1)
    else:   # g = 1: g h is h, in the dtype of a product table of its size
        flat = np.arange(len(out), dtype=np.int32 if len(out) <= np.iinfo(
            np.int32).max else np.int64)
    for lo in range(0, len(out), BLOCK):
        out[lo:lo + BLOCK] = rs_values(ring, d + m, flat[lo:lo + BLOCK])
    return out.reshape(q**d, q**m)


def _abs_row_sums(r: np.ndarray, vals: list) -> float:
    """Sum over the rows of r, in order, of |hist_to_sum| of each row's
    histogram, all histograms from one offset bincount."""
    q = len(vals)
    hists = np.bincount((np.arange(len(r))[:, None] * q + r).ravel(),
                        minlength=len(r) * q)
    total = 0.0
    for hist in hists.reshape(-1, q).tolist():
        total += abs(hist_to_sum(hist, vals))
    return total


def sigma1(ring: PolyRing, n: int, u: int, v: int, chi: CharSpec,
           cap: int | None = None, kernel: Dirichlet | None = None) -> dict:
    """Sum over monic g with deg g <= u + v of |sum_h psi(R(g h))|.

    The inner sum ranges over monic h of degree n - deg g, one row of the
    R(g h) matrix, read off kernel's product tables.  The reference shape
    q^((n + u + v + 2) / 2) is reported, not asserted.
    """
    validate_cutoffs(n, u, v)
    if chi.is_trivial():
        raise TrivialCharacterError("sigma1 needs a non-trivial character")
    q = ring.ctx.q
    vals = char_values(chi)
    total = 0.0
    by_degree = []
    for dg in range(u + v + 1):
        deg_total = _abs_row_sums(_rs_products(ring, dg, n - dg, cap, kernel),
                                   vals)
        by_degree.append(deg_total)
        total += deg_total
    return {
        "q": q,
        "n": n,
        "u": u,
        "v": v,
        "value": total,
        "bound": float(q) ** ((n + u + v + 2) / 2),
        "by_degree": by_degree,
    }


def sigma2(ring: PolyRing, n: int, u: int, v: int, chi: CharSpec,
           cap: int | None = None, kernel: Dirichlet | None = None) -> dict:
    """Max over i in [v, n-u] and monic g1 of the pair-sum aggregate.

    For each i and monic g1 of degree n - i, sums over monic g2 of the same
    degree the magnitude of sum_h psi(R(h g1)) conj(psi(R(h g2))) with h
    monic of degree i.  The reference shape q^(15n/14 - u) + q^(3n/2 - v + 1)
    is reported, not asserted.

    Each pair sum is rs_pair_char_sum's histogram of R(h g1) - R(h g2),
    read off two rows of the R(g h) matrix from kernel's product tables.
    """
    validate_cutoffs(n, u, v)
    if chi.is_trivial():
        raise TrivialCharacterError("sigma2 needs a non-trivial character")
    q = ring.ctx.q
    vals = char_values(chi)
    sub = sub_table(field_tables(ring.ctx.key())[0])
    best = -1.0
    best_i = None
    best_g1 = None
    for i in range(v, n - u + 1):
        dg = n - i
        r_vals = _rs_products(ring, dg, i, cap, kernel)
        for k, r1 in enumerate(r_vals):
            total = _abs_row_sums(sub[r1, r_vals], vals)
            if total > best:
                best = total
                best_i = i
                best_g1 = ring.to_str(next(ring.monic_range(dg, k, k + 1)))
    return {
        "q": q,
        "n": n,
        "u": u,
        "v": v,
        "value": best,
        "bound": float(q) ** (15 * n / 14 - u) + float(q) ** (3 * n / 2 - v + 1),
        "argmax_i": best_i,
        "argmax_g1": best_g1,
    }
