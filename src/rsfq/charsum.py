"""Additive characters of F_q and exhaustively enumerated exponential sums.

Every sum here is accumulated as an integer histogram over field values and
only converted to a complex number at the very end: each term is a p-th
root of unity, so a sum is determined by exact integer counts per trace
residue.  That keeps enumeration order (and hence any parallel partition of
it) irrelevant to the result bit for bit, and the only rounding is the
final dot product against a p-entry root table.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    DegreeBoundError,
    EnumerationCapError,
    TrivialCharacterError,
    ZeroPolynomialError,
)
from .field import FieldCtx
from .poly import PolyRing, PolySet
from .quadform import SymMatrix, matrix_rank, qa_matrix, quad_eval
from .rudin import autocorrelation, rudin_shapiro
from .vecenum import coeff_digits, index_tables


@dataclass(frozen=True)
class CharSpec:
    """Additive character x -> exp(2 pi i Tr(beta x) / p); trivial iff beta = 0."""

    ctx: FieldCtx
    beta: object

    def is_trivial(self) -> bool:
        return self.beta == 0


def roots_of_unity(p: int) -> tuple:
    return tuple(cmath.exp(2j * cmath.pi * r / p) for r in range(p))


def char_eval(chi: CharSpec, x) -> complex:
    ctx = chi.ctx
    r = ctx.trace(ctx.mul(chi.beta, x))
    return roots_of_unity(ctx.p)[r]


def char_values(chi: CharSpec) -> list:
    """Character value for every field element, indexed by element index."""
    ctx = chi.ctx
    roots = roots_of_unity(ctx.p)
    return [roots[ctx.trace(ctx.mul(chi.beta, x))] for x in ctx.elements()]


def hist_to_sum(ctx: FieldCtx, hist, chi: CharSpec) -> complex:
    """Turn per-element integer counts into the corresponding character sum."""
    vals = char_values(chi)
    total = 0j
    for idx, count in enumerate(hist):
        if count:
            total += count * vals[idx]
    return total


def _require_nontrivial(chi: CharSpec) -> None:
    if chi.is_trivial():
        raise TrivialCharacterError("a non-trivial character is required")


def quad_form_char_sum(
    mat: SymMatrix, linear, chi: CharSpec, cap: int = 10**8
) -> complex:
    """Sum of psi(x^T M x + L . x) over all of F_q^m by direct enumeration."""
    _require_nontrivial(chi)
    ctx = mat.ctx
    m = mat.dim
    if len(linear) != m:
        raise DegreeBoundError("linear part has wrong dimension")
    if ctx.q**m > cap:
        raise EnumerationCapError(f"q^{m} = {ctx.q**m} exceeds cap {cap}")
    hist = [0] * ctx.q
    for x in product(range(ctx.q), repeat=m):
        acc = quad_eval(mat, x)
        for li, xi in zip(linear, x):
            if li and xi:
                acc = ctx.add(acc, ctx.mul(li, xi))
        hist[acc] += 1
    return hist_to_sum(ctx, hist, chi)


def gauss_bound_report(
    mat: SymMatrix, linear, chi: CharSpec, tol: float = 1e-6, cap: int = 10**8
) -> dict:
    """One exponential sum against its rank bound q^(m - rank/2)."""
    value = quad_form_char_sum(mat, linear, chi, cap)
    rank = matrix_rank(mat)
    bound = float(mat.ctx.q) ** (mat.dim - rank / 2)
    return charsum_report(value, bound, tol)


def max_gauss_magnitude(mat: SymMatrix, cap: int = 10**8) -> float:
    """Worst |sum psi(x^T M x + L(x))| over every linear part L (the zero
    form included) and every non-trivial character."""
    ctx = mat.ctx
    if ctx.q ** (2 * mat.dim) > cap:
        raise EnumerationCapError(
            f"all-linear-parts scan needs q^{2 * mat.dim} pair evaluations, "
            f"over the cap {cap}"
        )
    if ctx.e == 1:
        return _worst_magnitude_prime(ctx, mat, mat.dim)
    return _worst_magnitude_generic(ctx, mat, mat.dim, cap)


def scan_gauss_bound(
    ring: PolyRing, n: int, tol: float = 1e-6, cap: int | None = None
) -> list:
    """Exhaustive rank-bound check for every multiplier form at degree n.

    For every k < n/2, every monic a of degree k, every linear part L on the
    h-space and every non-trivial character, the enumerated sum of
    psi(Q_a(h) + L(h)) is compared against q^(dim - rank/2) + tol.  Returns
    one report per (k, a) with the worst observed magnitude.
    """
    q = ring.ctx.q
    reports = []
    limit = ring.cap if cap is None else cap
    for k in range((n - 1) // 2 + 1):
        m = n - k + 1
        for a in ring.enumerate(PolySet.MONIC, k, cap):
            mat = qa_matrix(ring, a, n)
            rank = matrix_rank(mat)
            bound = float(q) ** (m - rank / 2)
            worst = max_gauss_magnitude(mat, limit)
            reports.append({
                "q": q,
                "n": n,
                "k": k,
                "a": ring.to_str(a),
                "dim": m,
                "rank": rank,
                "bound": bound,
                "max_magnitude": worst,
                "linear_forms": q**m,
                "characters": q - 1,
                "pass": worst <= bound + tol,
            })
    return reports


def _worst_magnitude_prime(ctx: FieldCtx, mat: SymMatrix, m: int) -> float:
    """Max |sum| over all linear parts and all non-trivial characters, e = 1.

    Enumerates X = all q^m vectors once; X @ X.T gives every linear value
    against every linear form, so one integer histogram per form yields all
    character sums exactly.
    """
    p = ctx.p
    count = p**m
    x_small = coeff_digits(count, p, m)
    x64 = x_small.astype(np.int64)
    m_np = np.array([[int(c) for c in row] for row in mat.rows], dtype=np.int64)
    quad_vals = ((x64 @ m_np) * x64).sum(axis=1) % p
    lin_vals = (x64 @ x64.T) % p
    phases = (quad_vals[:, None] + lin_vals).astype(np.int16) % p
    counts = np.empty((p, count), dtype=np.int64)
    for r in range(p):
        counts[r] = (phases == r).sum(axis=0)
    roots = np.array(roots_of_unity(p), dtype=np.complex128)
    worst = 0.0
    for beta in range(1, p):
        omega = roots[(beta * np.arange(p)) % p]
        sums = counts.T @ omega
        mags = np.abs(sums)
        peak = float(mags.max())
        if peak > worst:
            worst = peak
    return worst


def _worst_magnitude_generic(
    ctx: FieldCtx, mat: SymMatrix, m: int, cap: int
) -> float:
    """Extension-field variant of the all-linear-parts scan.

    Coefficients are element indices and arithmetic goes through the q x q
    add/mul index tables, so the same histogram construction applies.
    """
    q = ctx.q
    if q ** (2 * m) > cap:
        raise EnumerationCapError("generic gauss scan over the cap")
    add_tab, mul_tab = index_tables(ctx.p, ctx.basis)
    count = q**m
    xs = coeff_digits(count, q, m).astype(np.int32)
    quad_vals = np.array([quad_eval(mat, x) for x in xs.tolist()], dtype=np.int32)
    counts = np.zeros((q, count), dtype=np.int64)
    block = max(1, 4_000_000 // max(count, 1))
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        lin_vals = np.zeros((count, hi - lo), dtype=np.int32)
        for j in range(m):
            term = mul_tab[xs[:, j][:, None], xs[lo:hi, j][None, :]]
            lin_vals = add_tab[lin_vals, term]
        phases = add_tab[quad_vals[:, None], lin_vals]
        for idx in range(q):
            counts[idx, lo:hi] = (phases == idx).sum(axis=0)
    worst = 0.0
    for beta in range(1, q):
        vals = np.array(char_values(CharSpec(ctx, beta)), dtype=np.complex128)
        mags = np.abs(counts.T @ vals)
        worst = max(worst, float(mags.max()))
    return worst


def rs_char_sum_over_set(
    ring: PolyRing,
    kind: PolySet,
    n: int,
    g,
    chi: CharSpec,
    weight: str = "R",
    cap: int | None = None,
) -> complex:
    """Sum of psi(R(g h)) (or psi(S(g h))) over the chosen polynomial set.

    The weight is always evaluated on the full product g*h.  Weight "R"
    needs monic products of degree >= 2, which holds for monic g and monic
    sets; weight "S" is the lag-1 autocorrelation and works on any set.
    """
    _require_nontrivial(chi)
    if not g:
        raise ZeroPolynomialError("multiplier must be nonzero")
    if weight not in ("R", "S"):
        raise DegreeBoundError(f"unknown weight {weight!r}")
    ctx = ring.ctx
    ring.check_cap(ring.cardinality(kind, n), cap)
    bound = n + len(g) - 1
    hist = [0] * ctx.q
    for h in ring.enumerate(kind, n, cap):
        f = ring.mul(g, h)
        if weight == "R":
            val = rudin_shapiro(ring, f)
        else:
            val = autocorrelation(ring, f, 1, bound)
        hist[val] += 1
    return hist_to_sum(ctx, hist, chi)


def rs_pair_char_sum(
    ring: PolyRing, i: int, g1, g2, chi: CharSpec, cap: int | None = None
) -> complex:
    """Sum over monic h of degree i of psi(R(h g1) - R(h g2)).

    psi(x) * conj(psi(y)) = psi(x - y), so the pair sum reduces to a single
    histogram over the difference values; in particular g1 = g2 returns the
    cardinality q^i exactly.
    """
    _require_nontrivial(chi)
    ctx = ring.ctx
    ring.check_cap(ring.cardinality(PolySet.MONIC, i), cap)
    hist = [0] * ctx.q
    for h in ring.enumerate(PolySet.MONIC, i, cap):
        val = ctx.sub(
            rudin_shapiro(ring, ring.mul(h, g1)),
            rudin_shapiro(ring, ring.mul(h, g2)),
        )
        hist[val] += 1
    return hist_to_sum(ctx, hist, chi)


def charsum_report(value: complex, bound: float, tol: float = 1e-6) -> dict:
    return {
        "re": value.real,
        "im": value.imag,
        "magnitude": abs(value),
        "bound": bound,
        "pass": abs(value) <= bound + tol,
    }
