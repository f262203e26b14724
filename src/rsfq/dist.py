"""Distribution of the Rudin-Shapiro value over monic irreducibles.

distribution(ring, n) reads every monic irreducible of degree n off the
sieve's composite mask (sieve.composite_mask: the residue join for the
small factors, product marking for the rest), evaluates the statistic
R(f) = sum f_i f_(i-1) at their counting indices with rudin.rs_values, and
tallies the exact count per field value.  The table carries the exact
expected value total/q and four construction-time invariants, all checked
in exact integer arithmetic (violations raise ExactIdentityError): the
prime-polynomial bracket (q^n - 2 q^(n/2)) / n <= total <= q^n / n; total
equal to the divisor-sum formula, which shares no code with the sieve;
count(gamma) = count(-gamma), since f -> (-1)^n f(-t) permutes the monic
irreducibles and takes R to -R; and count(gamma) = count(gamma^p), since
coefficientwise Frobenius permutes them and takes R to R^p.  The last two
see faults that keep the total, at q comparisons each.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegreeBoundError, ExactIdentityError
from .poly import PolyRing, PolySet, irreducible_count_formula
from .rudin import rs_values
from .sieve import composite_mask


def pnt_bracket_exact(q: int, n: int, count: int) -> bool:
    """Exact check of q^n/n - 2 q^(n/2)/n <= count <= q^n/n.

    The lower bound compares (q^n - n*count)^2 against 4 q^n to avoid
    irrational intermediate values for odd n.
    """
    qn = q**n
    if n * count > qn:
        return False
    deficit = qn - n * count
    return deficit <= 0 or deficit * deficit <= 4 * qn


def pnt_bracket_floats(q: int, n: int) -> tuple[float, float]:
    qn = float(q**n)
    return (qn - 2 * qn**0.5) / n, qn / n


@dataclass
class DistTable:
    """Exact per-value counts of the Rudin-Shapiro statistic over P(n)."""

    q: int
    n: int
    counts: dict          # element string -> exact count, every value present
    total: int
    expected: Fraction
    max_abs_dev: Fraction
    pnt_lower: float
    pnt_upper: float

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "counts": dict(self.counts),
            "total": self.total,
            "expected": str(self.expected),
            "max_abs_dev": str(self.max_abs_dev),
            "pnt_lower": self.pnt_lower,
            "pnt_upper": self.pnt_upper,
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["gamma", "count", "expected", "deviation"])
        for gamma, count in self.counts.items():
            dev = abs(Fraction(count) - self.expected)
            writer.writerow([gamma, count, str(self.expected), str(dev)])
        return out.getvalue()


def distribution(ring: PolyRing, n: int) -> DistTable:
    """Exact distribution table for degree n (requires n >= 2)."""
    if n < 2:
        raise DegreeBoundError("distribution needs degree >= 2")
    ctx = ring.ctx
    q = ctx.q
    ring.check_cap(ring.cardinality(PolySet.MONIC, n))
    irreducibles = np.flatnonzero(~composite_mask(ring, n))
    hist = np.bincount(rs_values(ring, n, irreducibles), minlength=q).tolist()
    total = sum(hist)
    expected = Fraction(total, q)
    counts = {ctx.element_str(x): hist[x] for x in range(q)}
    max_dev = max(abs(Fraction(c) - expected) for c in hist)
    if not pnt_bracket_exact(q, n, total):
        raise ExactIdentityError(
            f"irreducible count {total} violates the prime-polynomial "
            f"bracket for q={q}, n={n}"
        )
    formula = irreducible_count_formula(q, n)
    if total != formula:
        raise ExactIdentityError(
            f"irreducible count {total} differs from the divisor-sum "
            f"formula {formula} for q={q}, n={n}"
        )
    images = {"-gamma": [ctx.neg(x) for x in range(q)]}
    if ctx.e > 1:       # over a prime field gamma^p = gamma
        images["gamma^p"] = [ctx.power(x, ctx.p) for x in range(q)]
    for name, image in images.items():
        for x, y in enumerate(image):
            if hist[x] != hist[y]:
                raise ExactIdentityError(
                    f"count {hist[x]} at gamma = {ctx.element_str(x)} differs "
                    f"from count {hist[y]} at {name} = {ctx.element_str(y)} "
                    f"for q={q}, n={n}"
                )
    lower, upper = pnt_bracket_floats(q, n)
    return DistTable(
        q=q, n=n, counts=counts, total=total, expected=expected,
        max_abs_dev=max_dev, pnt_lower=lower, pnt_upper=upper,
    )


def deviation_trend(ring: PolyRing, n_max: int) -> list:
    """Relative deviation per degree, for inspection (nothing asymptotic)."""
    rows = []
    for n in range(2, n_max + 1):
        table = distribution(ring, n)
        rel = float(table.max_abs_dev / table.expected) if table.total else 0.0
        rows.append({
            "n": n,
            "total": table.total,
            "expected": str(table.expected),
            "max_abs_dev": str(table.max_abs_dev),
            "relative_dev": rel,
        })
    return rows
