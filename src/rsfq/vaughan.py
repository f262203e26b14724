"""Sieve decomposition of weighted prime-power sums over monic polynomials.

For a bounded weight Psi and cutoffs u, v with 1 <= u, v and u + v < n, the
sum of Lambda(f) Psi(f) over monic f of degree n equals S1 - S2 + S3:

    S1 = sum over monic a b with deg(ab) = n, deg a <= u of
         mu(a) * deg(b) * Psi(a b)
    S2 = sum over monic a b c with deg(abc) = n, deg a <= u, deg b <= v of
         mu(a) * Lambda(b) * Psi(a b c)
    S3 = the same triple sum restricted to deg a > u and deg b > v

The decomposition is an exact identity; the residual is checked to
1e-9 * (1 + |lhs|) and a violation raises.  S2 is evaluated by grouping the
inner mu * Lambda coefficient per product z = a b and summing over c, which
is quadratically cheaper than the raw triple loop; the raw loop is kept as
a cross-check (s2_triple).

sigma1 and sigma2 are the type-I and type-II character-sum aggregates built
from the same inner sums the identity produces, with their asymptotic-shape
reference values reported (never asserted: the implied constants carry no
numeric value).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from .arith import FactorTable
from .charsum import (CharSpec, char_eval, char_values, hist_to_sum,
                      rs_char_sum_over_set)
from .errors import (
    ExactIdentityError,
    InvalidCutoffsError,
    TrivialCharacterError,
)
from .poly import PolyRing, PolySet
from .rudin import rudin_shapiro
from .vecenum import index_tables, int_dtype, sub_table

RESIDUAL_TOL = 1e-9


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


def _csum(terms) -> complex:
    """Error-free complex accumulation (fsum on both components)."""
    re = []
    im = []
    for t in terms:
        re.append(t.real)
        im.append(t.imag)
    return complex(math.fsum(re), math.fsum(im))


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
    """Precomputed degree-n structure reused across cutoffs and weights.

    Holds the monic degree-n list (counting order), Lambda values, the
    pair records behind S1, the mu/Lambda triple records behind S2 and S3,
    and the per-product inner index lists behind the grouped S2 route.
    All weight evaluations happen on monic degree-n products, so a weight
    is tabulated once per run as a vector over the monic list.
    """

    def __init__(self, ring: PolyRing, n: int, table: FactorTable | None = None,
                 cap: int | None = None):
        if n < 2:
            raise InvalidCutoffsError("decomposition needs n >= 2")
        ring.check_cap(ring.cardinality(PolySet.MONIC, n), cap)
        self.ring = ring
        self.n = n
        self.table = table or FactorTable(ring)
        self.monics = list(ring.enumerate(PolySet.MONIC, n, cap))
        self.index = {f: i for i, f in enumerate(self.monics)}
        self.lambdas = [self.table.von_mangoldt(f) for f in self.monics]
        self._build_records(cap)

    def _build_records(self, cap) -> None:
        ring = self.ring
        table = self.table
        n = self.n
        mu_by_deg = []      # degree -> [(a, mu(a))], mu != 0 only
        lam_by_deg = []     # degree -> [(b, Lambda(b))], Lambda != 0 only
        for d in range(n + 1):
            mus = []
            lams = []
            for f in ring.enumerate(PolySet.MONIC, d, cap):
                mu = table.mobius(f)
                if mu:
                    mus.append((f, mu))
                if d >= 1:
                    lam = table.von_mangoldt(f)
                    if lam:
                        lams.append((f, lam))
            mu_by_deg.append(mus)
            lam_by_deg.append(lams)

        # S1: (deg a, mu(a) * deg b, index of a*b) over deg a <= n - 1.
        self.s1_records = []
        for da in range(n):
            for a, mu in mu_by_deg[da]:
                for b in ring.enumerate(PolySet.MONIC, n - da, cap):
                    self.s1_records.append(
                        (da, mu * (n - da), self.index[ring.mul(a, b)])
                    )

        # Triples: (deg a, deg b, mu(a) * Lambda(b), index of a*b*c), plus
        # the grouped view keyed by the product z = a*b.
        self.triples = []
        z_splits: dict = {}
        for da in range(n):
            for a, mu in mu_by_deg[da]:
                for db in range(1, n - da + 1):
                    for b, lam in lam_by_deg[db]:
                        ab = ring.mul(a, b)
                        coef = mu * lam
                        z_splits.setdefault(ab, []).append((da, db, coef))
                        dc = n - da - db
                        for c in ring.enumerate(PolySet.MONIC, dc, cap):
                            self.triples.append(
                                (da, db, coef, self.index[ring.mul(ab, c)])
                            )
        self.z_splits = z_splits
        self.z_products = {
            z: [self.index[ring.mul(z, c)]
                for c in ring.enumerate(PolySet.MONIC, n - (len(z) - 1), cap)]
            for z in z_splits
        }

    # -- weights ---------------------------------------------------------

    def tabulate(self, weight) -> list:
        """Evaluate a weight callable on the monic degree-n list."""
        return [complex(weight(f)) for f in self.monics]

    # -- components --------------------------------------------------------

    def lhs(self, values) -> complex:
        return _csum(
            lam * values[i] for i, lam in enumerate(self.lambdas) if lam
        )

    def s1(self, u: int, values) -> complex:
        return _csum(
            coef * values[idx]
            for da, coef, idx in self.s1_records
            if da <= u
        )

    def s2_grouped(self, u: int, v: int, values) -> complex:
        """Grouped route: sum over z of (filtered mu*Lambda weight) * inner sum."""
        terms = []
        for z, splits in self.z_splits.items():
            w = sum(coef for da, db, coef in splits if da <= u and db <= v)
            if not w:
                continue
            inner = _csum(values[idx] for idx in self.z_products[z])
            terms.append(w * inner)
        return _csum(terms)

    def s2_triple(self, u: int, v: int, values) -> complex:
        """Raw triple loop, kept as the independent cross-check for S2."""
        return _csum(
            coef * values[idx]
            for da, db, coef, idx in self.triples
            if da <= u and db <= v
        )

    def s3(self, u: int, v: int, values) -> complex:
        return _csum(
            coef * values[idx]
            for da, db, coef, idx in self.triples
            if da > u and db > v
        )

    def decompose(self, u: int, v: int, weight) -> VaughanReport:
        """Compute every component and verify the identity exactly."""
        validate_cutoffs(self.n, u, v)
        values = weight if isinstance(weight, list) else self.tabulate(weight)
        lhs = self.lhs(values)
        s1 = self.s1(u, values)
        s2 = self.s2_grouped(u, v, values)
        s3 = self.s3(u, v, values)
        residual = abs(lhs - (s1 - s2 + s3))
        if residual >= RESIDUAL_TOL * (1 + abs(lhs)):
            raise ExactIdentityError(
                f"decomposition residual {residual} for n={self.n}, "
                f"u={u}, v={v}"
            )
        return VaughanReport(
            q=self.ring.ctx.q, n=self.n, u=u, v=v,
            lhs=lhs, s1=s1, s2=s2, s3=s3, residual=residual,
        )


def vaughan_decompose(ring: PolyRing, n: int, u: int, v: int, weight,
                      table: FactorTable | None = None,
                      cap: int | None = None) -> VaughanReport:
    """One-shot decomposition; build a VaughanContext to amortize several."""
    return VaughanContext(ring, n, table, cap).decompose(u, v, weight)


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


def sigma1(ring: PolyRing, n: int, u: int, v: int, chi: CharSpec,
           cap: int | None = None) -> dict:
    """Sum over monic g with deg g <= u + v of |sum_h psi(R(g h))|.

    The inner sum ranges over monic h of degree n - deg g.  The reference
    shape q^((n + u + v + 2) / 2) is reported, not asserted.
    """
    validate_cutoffs(n, u, v)
    if chi.is_trivial():
        raise TrivialCharacterError("sigma1 needs a non-trivial character")
    q = ring.ctx.q
    total = 0.0
    by_degree = []
    for dg in range(u + v + 1):
        deg_total = 0.0
        for g in ring.enumerate(PolySet.MONIC, dg, cap):
            deg_total += abs(
                rs_char_sum_over_set(ring, PolySet.MONIC, n - dg, g, chi, "R", cap)
            )
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
           cap: int | None = None) -> dict:
    """Max over i in [v, n-u] and monic g1 of the pair-sum aggregate.

    For each i and monic g1 of degree n - i, sums over monic g2 of the same
    degree the magnitude of sum_h psi(R(h g1)) conj(psi(R(h g2))) with h
    monic of degree i.  The reference shape q^(15n/14 - u) + q^(3n/2 - v + 1)
    is reported, not asserted.

    Each pair sum is rs_pair_char_sum's histogram of R(h g1) - R(h g2),
    from one cached vector of R(h g) over h per g.
    """
    validate_cutoffs(n, u, v)
    if chi.is_trivial():
        raise TrivialCharacterError("sigma2 needs a non-trivial character")
    q = ring.ctx.q
    vals = char_values(chi)
    sub = sub_table(index_tables(ring.ctx.p, ring.ctx.basis)[0])
    best = -1.0
    best_i = None
    best_g1 = None
    for i in range(v, n - u + 1):
        dg = n - i
        monics = list(ring.enumerate(PolySet.MONIC, dg, cap))
        hs = list(ring.enumerate(PolySet.MONIC, i, cap))
        r_vals = np.array([[rudin_shapiro(ring, ring.mul(h, g)) for h in hs]
                           for g in monics], dtype=int_dtype(q - 1))
        # Row offsets: one bincount gives the histogram of every g2.
        offsets = np.arange(len(monics))[:, None] * q
        for g1, r1 in zip(monics, r_vals):
            hists = np.bincount((offsets + sub[r1, r_vals]).ravel(),
                                minlength=len(monics) * q)
            total = 0.0
            for hist in hists.reshape(-1, q).tolist():
                total += abs(hist_to_sum(hist, vals))
            if total > best:
                best = total
                best_i = i
                best_g1 = ring.to_str(g1)
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
