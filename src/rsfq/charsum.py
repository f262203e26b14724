"""Additive characters of F_q and exhaustively enumerated exponential sums.

Every sum here is accumulated as an integer histogram over field values and
only converted to a complex number at the very end: each term is a p-th
root of unity, so a sum is determined by exact integer counts per field
value.  That keeps enumeration order (and hence any parallel partition of
it) irrelevant to the result bit for bit, and the only rounding is the
final dot product against the q character values.

The Gauss scan needs the histogram of x^T M x + L.x for all q^m linear
parts L.  gauss_counts builds them for a block of forms at once with one
staged transform over the add/mul index tables, trading one coordinate of
x for one of L per stage: m q^(m+2) work and O(q^(m+1)) memory per form
for every q, where pairing every x with every L costs q^(2m) of both.
scan_gauss_bound histograms each degree's forms in the sieve.blocks of
about sieve.BLOCK entries and decides each form in integers from those
histograms.

energy_abs_sq is the one exact |S|^2 route: for a value histogram c,
|S|^2 = sum_d A_d psi(d) with A_d = sum_v c_v c_(v+d), so when A_d is the
same for every d != 0, |S|^2 = A_0 - A_1 for every non-trivial character
and no character value enters.  decode_abs alone decides the Gauss-sum
dichotomy |S|^2 = 0 or p^k and gives |S| = p^(k/2) as an integer pair
[A, B], A + B sqrt(p): pairs add componentwise, pair_exceeds compares them
and pair_value is their float, for display.  scan_gauss_bound decodes over
F_q, and vaughan.sigma1/sigma2 over F_p on the histograms of
Tr(beta R(g h)) (char_traces).  hist_to_sum, quad_form_char_sum,
max_gauss_magnitude, rs_char_sum_over_set and rs_pair_char_sum are the
floating-point oracles and call neither.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    DegreeBoundError,
    EnumerationCapError,
    TrivialCharacterError,
    ZeroPolynomialError,
)
from .field import FieldCtx, field_tables
from .poly import DEFAULT_CAP, PolyRing, PolySet
from .quadform import (SymMatrix, form_ranks, multipliers, qa_forms,
                       quad_eval)
from .rudin import autocorrelation, rudin_shapiro
from .sieve import blocks
from .vecenum import int_dtype, sub_table


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


def char_traces(chi: CharSpec) -> np.ndarray:
    """Tr(beta x) in F_p for every field element, indexed by element index:
    psi(x) is the char_traces(chi)[x]-th power of exp(2 pi i / p)."""
    ctx = chi.ctx
    return np.array([ctx.trace(ctx.mul(chi.beta, x)) for x in ctx.elements()],
                    dtype=int_dtype(ctx.p - 1))


def energy_abs_sq(hist: np.ndarray, add: np.ndarray) -> tuple:
    """(A_0 - A_1, flat) for every integer value histogram c along the last
    axis, values indexed by the rows of the value group's addition table.

    A_d = sum_v c_v c_(v+d) gives |S|^2 = sum_d A_d psi(d) for every
    character psi of the group; flat says A_d is the same for every
    d != 0, which is when |S|^2 = A_0 - A_1 for every non-trivial psi.
    A_(-d) = A_d always, so only d up to its negation -d is formed.
    """
    energy = [np.einsum("...v,...v->...", hist, hist[..., add[:, d]])
              for d, row in enumerate(add.tolist()) if d <= row.index(0)]
    flat = np.ones(energy[0].shape, dtype=bool)
    for other in energy[2:]:
        flat &= other == energy[1]
    return energy[0] - energy[1], flat


# decode_abs's k for |S|^2 = 0, for uneven A_d and for no power of p.
ZERO, UNEVEN, NOT_POWER = -1, -2, -3


def decode_abs(hist: np.ndarray, add: np.ndarray, p: int) -> tuple:
    """(abs_sq, k, exact) of every value histogram along the last axis, add
    the addition table of its group, of exponent p: k with abs_sq = p^k,
    else ZERO, UNEVEN or NOT_POWER, and |S| as int64 [A, B], 0 if k < 0."""
    abs_sq, flat = energy_abs_sq(hist, add)
    # |S| = 0, 1, sqrt(p), p, ...: sqrt(p) (A + B sqrt(p)) = B p + A sqrt(p).
    powers, pairs, top = [1], [(0, 0), (1, 0)], abs_sq.max(initial=0)
    while powers[-1] < top:
        powers.append(powers[-1] * p)
        pairs.append((pairs[-1][1] * p, pairs[-1][0]))
    powers = np.array(powers, dtype=np.int64)
    k = np.searchsorted(powers, abs_sq)
    k[powers.take(k, mode="clip") != abs_sq] = NOT_POWER
    k[abs_sq == 0] = ZERO
    k[~flat] = UNEVEN
    return abs_sq, k, np.take(pairs, np.maximum(k, ZERO) + 1, axis=0)


def pair_value(x, p: int) -> float:
    """The float of the pair x = [A, B], A + B sqrt(p)."""
    return x[0] + x[1] * math.sqrt(p)


def pair_exceeds(x, y, p: int) -> bool:
    """x[0] + x[1] sqrt(p) > y[0] + y[1] sqrt(p), decided in integers: with
    a, b the differences, a + b sqrt(p) has the sign of a when a^2 > p b^2
    and of b otherwise (p is not a square, so a^2 = p b^2 only at 0)."""
    a, b = x[0] - y[0], x[1] - y[1]
    return (a if a * a > p * b * b else b) > 0


def hist_to_sum(hist, vals) -> complex:
    """Character sum from per-element integer counts and the character's
    values (char_values), accumulated in element order."""
    total = 0j
    for idx, count in enumerate(hist):
        if count:
            total += count * vals[idx]
    return total


def _require_nontrivial(chi: CharSpec) -> None:
    if chi.is_trivial():
        raise TrivialCharacterError("a non-trivial character is required")


def quad_form_char_sum(
    mat: SymMatrix, linear, chi: CharSpec, cap: int = DEFAULT_CAP
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
    return hist_to_sum(hist, char_values(chi))


def gauss_counts(forms, ctx: FieldCtx | None = None) -> np.ndarray:
    """counts[v, L] = #{x in F_q^m : x^T M x + L.x = v} as int64.

    forms is one SymMatrix M, giving a (q, q^m) array, or a (B, m, m)
    block of symmetric forms as element indices over ctx, giving one such
    array per form, (B, q, q^m).  L has base-q digits L_0, L_1, ...
    (counting order).  From A[x, v] = [x^T M x = v], stage j sets
    A'[..., L_j, ..., v] to the sum over x_j of A[..., x_j, ..., v - L_j x_j];
    after stage m - 1, A[L, v] = counts[v, L].
    """
    if isinstance(forms, SymMatrix):
        block = np.array(forms.rows, dtype=np.int64)
        return gauss_counts(block.reshape(1, forms.dim, forms.dim), forms.ctx)[0]
    q, (size, m) = ctx.q, forms.shape[:2]
    add, mul = field_tables(ctx.key())
    sub = sub_table(add)
    # Q(x) over the first k coordinates, and rows[:, i - k] = sum over
    # j < k of M_ij x_j for i >= k, gain x_k as the next base-q digit:
    # Q' = Q + x_k (2 row_k + M_kk x_k) and row_i' = row_i + M_ik x_k.
    xk = np.arange(q)[:, None]
    quad = np.zeros((size, 1), dtype=add.dtype)
    rows = np.zeros((size, m, 1), dtype=add.dtype)
    for k in range(m):
        step = mul[forms[:, k:, k, None, None], xk]
        inner = add[add[rows[:, 0], rows[:, 0]][:, None], step[:, 0]]
        quad = add[quad[:, None], mul[xk, inner]].reshape(size, -1)
        rows = add[rows[:, 1:, None], step[:, 1:]].reshape(
            size, m - k - 1, q ** (k + 1))
    hist = (quad[..., None] == np.arange(q)).astype(int_dtype(q**m))
    for j in range(m):
        # Axes: form, coordinates above x_j, x_j, coordinates below x_j,
        # value v; sub[:, mul[:, x]].T is the shift table [L, v] -> v - L x.
        cur = hist.reshape(size, q ** (m - 1 - j), q, q**j, q)
        out = sum(cur[:, :, x][..., sub[:, mul[:, x]].T] for x in range(q))
        hist = out.transpose(0, 1, 3, 2, 4).reshape(size, q**m, q)
    return np.ascontiguousarray(hist.transpose(0, 2, 1), dtype=np.int64)


def max_gauss_magnitude(mat: SymMatrix, cap: int = DEFAULT_CAP) -> float:
    """Worst |sum psi(x^T M x + L(x))| over every linear part L (the zero
    form included) and every non-trivial character: per character, row L
    of gauss_counts(mat).T dotted with the character values is the sum.
    The q^(m+1) counts of gauss_counts are charged against cap."""
    ctx = mat.ctx
    m = mat.dim
    if ctx.q ** (m + 1) > cap:
        raise EnumerationCapError(
            f"q^{m + 1} = {ctx.q ** (m + 1)} exceeds cap {cap}")
    counts = gauss_counts(mat)
    worst = 0.0
    for beta in range(1, ctx.q):
        vals = np.array(char_values(CharSpec(ctx, beta)), dtype=np.complex128)
        worst = max(worst, float(np.abs((counts.T * vals).sum(axis=1)).max()))
    return worst


def scan_gauss_bound(ring: PolyRing, n: int) -> list:
    """Exhaustive exact rank-bound check for every multiplier form at degree n.

    For every k < n/2 and every monic a of degree k, the form Q_a and its
    rank r come from one qa_forms block and form_ranks, and gauss_counts,
    over the sieve.blocks of about BLOCK histogram entries, gives
    c[v, L] = #{h : Q_a(h) + L(h) = v} for every linear part L.  With
    A_d = sum_v c_v c_(v+d), |S_beta|^2 = sum_d A_d psi_beta(d) for every
    character psi_beta.  The form passes when, for every L, decode_abs over
    F_q gives |S|^2 = 0 or q^(2m - r) = p^(e(2m - r)) for every non-trivial
    character: the quadratic-form dichotomy (Lidl & Niederreiter, Finite
    Fields, ch. 5-6), all in integers.  Returns one report per
    (k, a) with the largest A_0 - A_1 as max_abs_sq, its square root as
    max_magnitude and the bound q^(m - r/2).  Each degree charges its
    q^(m+1) counts per form to ring.check_cap.
    """
    ctx = ring.ctx
    q, p = ctx.q, ctx.p
    add = field_tables(ctx.key())[0]
    reports = []
    for k in range((n - 1) // 2 + 1):
        m = n - k + 1
        names = multipliers(ring, k)[1]
        ring.check_cap(q ** (m + 1))
        forms = qa_forms(ring, n, k)
        ranks = form_ranks(ctx, forms)[0].tolist()
        for start, stop in blocks(len(forms), q ** (m + 1)):
            counts = gauss_counts(forms[start:stop], ctx)
            abs_sq, exps = decode_abs(counts.transpose(0, 2, 1), add, p)[:2]
            power = ctx.e * (2 * m - np.array(ranks[start:stop]))
            passed = ((exps == ZERO) | (exps == power[:, None])).all(axis=1)
            for b, rank in enumerate(ranks[start:stop]):
                max_abs_sq = int(abs_sq[b].max())
                reports.append({
                    "q": q,
                    "n": n,
                    "k": k,
                    "a": names[start + b],
                    "dim": m,
                    "rank": rank,
                    "bound": float(q) ** (m - rank / 2),
                    "max_abs_sq": max_abs_sq,
                    "max_magnitude": math.sqrt(max_abs_sq),
                    "linear_forms": q**m,
                    "characters": q - 1,
                    "pass": bool(passed[b]),
                })
    return reports


def rs_char_sum_over_set(
    ring: PolyRing,
    kind: PolySet,
    n: int,
    g,
    chi: CharSpec,
    weight: str = "R",
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
    bound = n + len(g) - 1
    hist = [0] * ctx.q
    for h in ring.enumerate(kind, n):
        f = ring.mul(g, h)
        if weight == "R":
            val = rudin_shapiro(ring, f)
        else:
            val = autocorrelation(ring, f, 1, bound)
        hist[val] += 1
    return hist_to_sum(hist, char_values(chi))


def rs_pair_char_sum(
    ring: PolyRing, i: int, g1, g2, chi: CharSpec
) -> complex:
    """Sum over monic h of degree i of psi(R(h g1) - R(h g2)).

    psi(x) * conj(psi(y)) = psi(x - y), so the pair sum reduces to a single
    histogram over the difference values; in particular g1 = g2 returns the
    cardinality q^i exactly.
    """
    _require_nontrivial(chi)
    ctx = ring.ctx
    hist = [0] * ctx.q
    for h in ring.enumerate(PolySet.MONIC, i):
        val = ctx.sub(
            rudin_shapiro(ring, ring.mul(h, g1)),
            rudin_shapiro(ring, ring.mul(h, g2)),
        )
        hist[val] += 1
    return hist_to_sum(hist, char_values(chi))
