"""Symmetric bilinear and quadratic forms on coefficient spaces over F_q.

The base form pairs adjacent coefficients: B(t^i, t^j) = 1/2 when
|i - j| = 1 and 0 otherwise, so the quadratic value of a coefficient vector
is its lag-1 autocorrelation.  Composing with multiplication by a fixed
monic polynomial a gives the form h -> S(a h) on the space of h with
deg h <= n - deg a; differences of two such forms are built entrywise from
autocorrelations of a and b.

Forms live on the full degree-at-most space of dimension n - k + 1.  The
restriction to monic h (top coefficient fixed to 1) is affine; its
quadratic part is the principal submatrix with the top index deleted, and
monic_slice_rank reports that rank.

The scans rank a whole degree of forms at once.  The autocorrelations
S(0..k) of the monic a of degree k and their names are constants of the
field and of k: _multiplier_table keeps them once per process, read off
rudin.lag_sums and PolyRing.to_str, for every n of the rank-qa, rank-bab
and gauss scans, which read them cap-checked through multipliers.
qa_forms reads every multiplier form of one degree off them: it is the
symmetric Toeplitz matrix with entries (S(|d-1|) + S(d+1)) / 2 on the
d-th diagonals, and a difference form is the difference of two of them.
form_ranks blows every entry up to its e x e F_p multiplication matrix
and eliminates mod p over the whole block, the same path for every q with
no q x q table.  matrix_rank, monic_slice_rank and the per-form builders
qa_matrix, qa_matrix_entrywise and bab_matrix are their oracles and never
call them or read the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegreeBoundError, NotMonicError
from .field import FieldCtx
from .poly import PolyRing, PolySet
from .rudin import autocorrelation, lag_sums
from .sieve import blocks
from .vecenum import digits, int_dtype, mul_matrices


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric matrix over F_q; symmetry is checked at construction."""

    ctx: FieldCtx
    rows: tuple

    def __post_init__(self):
        m = len(self.rows)
        for row in self.rows:
            if len(row) != m:
                raise ValueError("matrix is not square")
        for i in range(m):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("matrix is not symmetric")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]


def sym_matrix(ctx: FieldCtx, rows) -> SymMatrix:
    return SymMatrix(ctx, tuple(tuple(row) for row in rows))


def adjacent_pair_matrix(ctx: FieldCtx, m: int) -> SymMatrix:
    """The base form: 1/2 on the |i - j| = 1 band, dimension m."""
    if m < 1:
        raise DegreeBoundError("dimension must be >= 1")
    half = ctx.inv(ctx.scalar(2))
    zero = ctx.zero()
    rows = [[zero] * m for _ in range(m)]
    for i in range(m - 1):
        rows[i][i + 1] = half
        rows[i + 1][i] = half
    return sym_matrix(ctx, rows)


def quad_eval(mat: SymMatrix, x):
    """x^T M x."""
    ctx = mat.ctx
    total = ctx.zero()
    for i, xi in enumerate(x):
        if xi == ctx.zero():
            continue
        row_val = ctx.zero()
        for j, xj in enumerate(x):
            row_val = ctx.add(row_val, ctx.mul(mat.rows[i][j], xj))
        total = ctx.add(total, ctx.mul(xi, row_val))
    return total


def bilinear_eval(mat: SymMatrix, x, y):
    """x^T M y."""
    ctx = mat.ctx
    total = ctx.zero()
    for i, xi in enumerate(x):
        if xi == ctx.zero():
            continue
        for j, yj in enumerate(y):
            total = ctx.add(total, ctx.mul(xi, ctx.mul(mat.rows[i][j], yj)))
    return total


def matrix_rank(mat: SymMatrix) -> int:
    """Exact rank over F_q by Gaussian elimination."""
    ctx = mat.ctx
    m = mat.dim
    rows = [list(r) for r in mat.rows]
    zero = ctx.zero()
    rank = 0
    for col in range(m):
        pivot = None
        for r in range(rank, m):
            if rows[r][col] != zero:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ctx.inv(rows[rank][col])
        for r in range(rank + 1, m):
            c = rows[r][col]
            if c != zero:
                factor = ctx.mul(c, inv)
                rows[r] = [
                    ctx.sub(rows[r][j], ctx.mul(factor, rows[rank][j]))
                    for j in range(m)
                ]
        rank += 1
    return rank


def kernel_dim(mat: SymMatrix) -> int:
    return mat.dim - matrix_rank(mat)


def principal_submatrix(mat: SymMatrix, drop: int) -> SymMatrix:
    keep = [i for i in range(mat.dim) if i != drop]
    return sym_matrix(
        mat.ctx, [[mat.rows[i][j] for j in keep] for i in keep]
    )


def monic_slice_rank(mat: SymMatrix) -> int:
    """Rank of the quadratic part after fixing the top coefficient to 1.

    On the affine slice x_top = 1 the form becomes (quadratic in the rest) +
    (linear) + (constant); the quadratic part is the principal submatrix
    with the last index removed.
    """
    if mat.dim == 1:
        return 0
    return matrix_rank(principal_submatrix(mat, mat.dim - 1))


def _multiplication_rows(ring: PolyRing, a, m: int) -> list:
    """Matrix of h -> a*h from coefficient space dim m to dim deg a + m."""
    ctx = ring.ctx
    k = len(a) - 1
    zero = ctx.zero()
    rows = [[zero] * m for _ in range(k + m)]
    for col in range(m):
        for i, ai in enumerate(a):
            rows[col + i][col] = ai
    return rows


def qa_matrix(ring: PolyRing, a, n: int) -> SymMatrix:
    """Matrix of h -> S(a h) on {deg h <= n - deg a}, via map composition.

    Built as A^T B A where A is multiplication by a and B the base form on
    the product space of dimension n + 1.
    """
    if not ring.is_monic(a):
        raise NotMonicError("multiplier must be monic")
    k = len(a) - 1
    if k >= n:
        raise DegreeBoundError(f"need deg a = {k} < n = {n}")
    ctx = ring.ctx
    m = n - k + 1
    amap = _multiplication_rows(ring, a, m)
    half = ctx.inv(ctx.scalar(2))
    zero = ctx.zero()
    # (B A)[r][c] = half * (A[r-1][c] + A[r+1][c]): B is the adjacent band.
    ba = [[zero] * m for _ in range(n + 1)]
    for r in range(n + 1):
        for c in range(m):
            acc = zero
            if r > 0:
                acc = ctx.add(acc, amap[r - 1][c])
            if r < n:
                acc = ctx.add(acc, amap[r + 1][c])
            ba[r][c] = ctx.mul(half, acc)
    rows = [[zero] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            acc = zero
            for r in range(n + 1):
                if amap[r][i] != zero:
                    acc = ctx.add(acc, ctx.mul(amap[r][i], ba[r][j]))
            rows[i][j] = acc
    return sym_matrix(ctx, rows)


def qa_matrix_entrywise(ring: PolyRing, a, n: int) -> SymMatrix:
    """Same form as qa_matrix, built from autocorrelations of a.

    Entry (i, j) is (S_a(|i-j-1|) + S_a(|j-i-1|)) / 2 where S_a(lag) is the
    autocorrelation of a at that lag (zero beyond deg a).  Kept as a second,
    independent construction; both routes must agree.
    """
    if not ring.is_monic(a):
        raise NotMonicError("multiplier must be monic")
    k = len(a) - 1
    if k >= n:
        raise DegreeBoundError(f"need deg a = {k} < n = {n}")
    ctx = ring.ctx
    m = n - k + 1
    half = ctx.inv(ctx.scalar(2))
    corr = [autocorrelation(ring, a, lag, k) for lag in range(2 * m + k + 2)]
    def s(lag):
        return corr[lag] if lag < len(corr) else ctx.zero()
    rows = [
        [
            ctx.mul(half, ctx.add(s(abs(i - j - 1)), s(abs(j - i - 1))))
            for j in range(m)
        ]
        for i in range(m)
    ]
    return sym_matrix(ctx, rows)


def bab_matrix(ring: PolyRing, a, b, n: int) -> SymMatrix:
    """Matrix of h -> S(a h) - S(b h) for monic a, b of equal degree k < n/2."""
    if not ring.is_monic(a) or not ring.is_monic(b):
        raise NotMonicError("both multipliers must be monic")
    k = len(a) - 1
    if len(b) - 1 != k:
        raise DegreeBoundError("multipliers must have equal degree")
    if 2 * k >= n:
        raise DegreeBoundError(f"need 2k = {2 * k} < n = {n}")
    ctx = ring.ctx
    m = n - k + 1
    half = ctx.inv(ctx.scalar(2))
    corr_a = [autocorrelation(ring, a, lag, k) for lag in range(2 * m + k + 2)]
    corr_b = [autocorrelation(ring, b, lag, k) for lag in range(2 * m + k + 2)]
    def diff(lag):
        if lag >= len(corr_a):
            return ctx.zero()
        return ctx.sub(corr_a[lag], corr_b[lag])
    rows = [
        [
            ctx.mul(half, ctx.add(diff(abs(i - j - 1)), diff(abs(j - i - 1))))
            for j in range(m)
        ]
        for i in range(m)
    ]
    return sym_matrix(ctx, rows)


def _eliminate(mats: np.ndarray, p: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """F_q rank and monic-slice rank from blown-up symmetric forms.

    mats is a (B, N, N) block of residues mod p, N = m e, each the blow-up
    of a symmetric F = [[A, b], [b^T, c]] with A the leading (m - 1) block.
    Fraction-free elimination clears the first N - e columns: the pivot of
    a column is a nonzero entry in one of the first N - e rows, and every
    row r becomes pivot * r - r[col] * (pivot row).  That keeps the row
    space and turns the pivot row itself to zero, so it is never chosen
    again; the number of pivots is e rank A.  The last e rows are then b^T
    and c reduced by the rows of [A b]: they are nonzero on the first
    N - e columns exactly when b is not in the column space of A, and then
    rank F = rank A + 2 (A is symmetric); otherwise their last e columns
    hold c - b^T A^- b and rank F = rank A + 1 if it is nonzero, rank A if
    it is zero.
    """
    size, dim = mats.shape[:2]
    lead = dim - e
    # Row 0 stays zero: argmax picks it when a column has no pivot, and
    # then the update is the identity.
    work = np.zeros((size, dim + 1, dim), dtype=int_dtype(p * p))
    work[:, 1:] = mats
    pivots = np.zeros((size, lead), dtype=work.dtype)
    every = np.arange(size)
    for col in range(lead):
        column = work[:, :, col]
        prow = work[every, column[:, :lead + 1].argmax(axis=1), col:]
        pivots[:, col] = prow[:, 0]
        work[:, :, col:] = (work[:, :, col:] * np.maximum(prow[:, :1, None], 1)
                            - column[:, :, None] * prow[:, None, :]) % p
    monic_rank = np.count_nonzero(pivots, axis=1) // e
    tail = work[:, lead + 1:]
    grow = np.where(tail[:, :, :lead].any(axis=(1, 2)), 2,
                    tail[:, :, lead:].any(axis=(1, 2)))
    return monic_rank + grow, monic_rank


def form_ranks(ctx: FieldCtx, forms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank and monic-slice rank of every form in a (B, m, m) block.

    forms holds symmetric matrices of element indices.  Each entry x is
    blown up to the e x e F_p matrix of multiplication by x
    (vecenum.mul_matrices); x -> that matrix embeds F_q in the F_p
    matrices, so F_p row operations on the (m e) x (m e) blow-up are F_q
    row operations on the form, and F_p ranks are e times F_q ranks.  The
    block is eliminated mod p (_eliminate) in the sieve.blocks of about
    sieve.BLOCK matrix entries, the same path for every q.
    """
    if not (forms == forms.swapaxes(1, 2)).all():
        raise ValueError("forms must be symmetric")
    p, e = ctx.p, ctx.e
    size, m = forms.shape[:2]
    rank = np.empty(size, dtype=np.int64)
    monic_rank = np.empty(size, dtype=np.int64)
    for start, stop in blocks(size, (m * e) ** 2):
        blown = mul_matrices(ctx.basis, digits(forms[start:stop], p, e), p)
        # Axes (form, i, j, row, col) -> rows (i, row), columns (j, col).
        mats = blown.transpose(0, 1, 3, 2, 4).reshape(-1, m * e, m * e)
        rank[start:stop], monic_rank[start:stop] = _eliminate(mats, p, e)
    return rank, monic_rank


@lru_cache(maxsize=32)
def _multiplier_table(ctx: FieldCtx, k: int) -> tuple[np.ndarray, tuple]:
    """The monic a of degree k over ctx, in counting order: their read-only
    (q^k, k + 1) autocorrelations S(0..k) as element indices, and their
    names by PolyRing.to_str.

    Both are constants of the field and of k, so every n of a scan reads
    them.  The key is the FieldCtx, which compares by (p, e, modulus):
    the lags read the basis, which the modulus fixes, and the names p and
    e, so a ctx with another modulus gets a table of its own.  The 32 most
    recently used are kept, each (k + 1) q^k indices and q^k names.  The
    scans charge q^k to their ring's cap (multipliers) before they read
    it.
    """
    ring = PolyRing(ctx)
    count = ctx.q**k
    # In degree <= k counting order the monics of degree k follow q^k.
    lags = np.ascontiguousarray(lag_sums(ring, k, count, 2 * count).T)
    lags.setflags(write=False)
    return lags, tuple(map(ring.to_str, ring.monic_range(k, 0, count)))


def multipliers(ring: PolyRing, k: int) -> tuple[np.ndarray, tuple]:
    """_multiplier_table of ring's field and k, with its q^k monics charged
    to ring.check_cap first, as ring.enumerate(PolySet.MONIC, k) does."""
    ring.check_cap(ring.cardinality(PolySet.MONIC, k))
    return _multiplier_table(ring.ctx, k)


def _diagonals(ring: PolyRing, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag sums and diagonals of h -> S(a h) for every monic a of degree k.

    Returns the (q^k, k + 1) autocorrelations S(0..k) of each a, as element
    indices in counting order (_multiplier_table), and the (q^k, m, e)
    base-p digits of w_d = (S(|d - 1|) + S(d + 1)) / 2, d < m = n - k + 1,
    S zero above lag k: entry (i, j) of the form is w_|i-j|
    (qa_matrix_entrywise).  1/2 is the F_p scalar (p + 1) / 2, so every
    step is digit-wise mod p.
    """
    ctx = ring.ctx
    p, m = ctx.p, n - k + 1
    lags = _multiplier_table(ctx, k)[0]
    s = digits(lags, p, ctx.e)
    s = np.concatenate([s, np.zeros((len(s), m - k, ctx.e), s.dtype)], axis=1)
    d = np.arange(m)
    return lags, (s[:, abs(d - 1)] + s[:, d + 1]) * ((p + 1) // 2) % p


def _toeplitz(ctx: FieldCtx, w: np.ndarray) -> np.ndarray:
    """(B, m, m) element indices w_|i-j| from (B, m, e) base-p digits w."""
    d = np.arange(w.shape[1])
    first = w @ ctx.p ** np.arange(ctx.e)
    return first[:, abs(d[:, None] - d)].astype(int_dtype(ctx.q - 1))


def qa_forms(ring: PolyRing, n: int, k: int) -> np.ndarray:
    """qa_matrix(ring, a, n) for every monic a of degree k, counting order,
    as one (q^k, n - k + 1, n - k + 1) array of element indices."""
    return _toeplitz(ring.ctx, _diagonals(ring, n, k)[1])


def bab_forms(ring: PolyRing, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coincidences and difference forms of the ordered monic pairs of degree k.

    The coefficients of reverse(a, k) * a are the autocorrelations of a, so
    two reversal products coincide exactly when the lag vectors do:
    same[a, b] says so for every pair, as a (q^k, q^k) boolean matrix in
    counting order.  The forms are bab_matrix(ring, a, b, n) for every pair
    with same[a, b] false, in the order of np.nonzero(~same), as one
    (pairs, n - k + 1, n - k + 1) array of element indices.
    """
    lags, w = _diagonals(ring, n, k)
    same = (lags[:, None] == lags).all(axis=2)
    a_idx, b_idx = np.nonzero(~same)
    return same, _toeplitz(ring.ctx, (w[a_idx] - w[b_idx]) % ring.ctx.p)


@dataclass
class RankReport:
    """Observed rank data for one scanned form."""

    q: int
    n: int
    k: int
    form: str
    a: str
    b: str | None
    rank: int
    kernel_dim: int
    bound: int
    monic_rank: int
    passed: bool

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "form": self.form,
            "a": self.a,
            "b": self.b,
            "rank": self.rank,
            "kernel_dim": self.kernel_dim,
            "bound": self.bound,
            "monic_rank": self.monic_rank,
            "pass": self.passed,
        }


def scan_qa_ranks(ring: PolyRing, n: int) -> list:
    """Rank scan of h -> S(a h) over every monic a of degree k < n/2.

    Each report records the exact rank against the lower bound n - k - 1
    (pass is rank >= bound), plus the kernel dimension and the monic-slice
    rank for inspection.  The scan only observes; callers decide which of
    the recorded quantities to assert.  Boundary instances where the bound
    fails do exist (e.g. q = 3, n = 6, k = 2, a = t^2+t+2 has rank 2), so
    downstream checks must not assume an all-pass outcome.

    The provable bounds are rank >= n - 2k and monic_rank >= n - 2k - 1:
    the matrix is the banded symmetric Toeplitz T_m(w), m = n - k + 1, with
    t^(k+1) w = a a* (t^2 + 1)/2 of degree >= k + 2, so a kernel vector h
    is fixed by the top k + 1 coefficients of t^(k+1) w h and the kernel
    has dimension <= k + 1; the monic slice is T_(m-1)(w).  ``bound`` and
    ``passed`` still record the stated n - k - 1 claim.  Each degree k is
    one qa_forms block ranked by form_ranks.
    """
    if n < 2:
        raise DegreeBoundError("rank scan needs n >= 2")
    reports = []
    q = ring.ctx.q
    for k in range((n - 1) // 2 + 1):
        m = n - k + 1
        bound = n - k - 1
        names = multipliers(ring, k)[1]
        ranks, monic_ranks = form_ranks(ring.ctx, qa_forms(ring, n, k))
        for name, rank, mrank in zip(names, ranks.tolist(),
                                     monic_ranks.tolist()):
            reports.append(RankReport(
                q=q, n=n, k=k, form="qa", a=name, b=None,
                rank=rank, kernel_dim=m - rank, bound=bound,
                monic_rank=mrank, passed=rank >= bound,
            ))
    return reports


def scan_bab_ranks(ring: PolyRing, n: int, k: int) -> dict:
    """Rank scan of h -> S(a h) - S(b h) over ordered monic pairs of degree k.

    Pairs whose reversal products coincide are excluded from the rank bound
    and collected per a as the coincidence set; every other pair is checked
    against the lower bound n - 2k - 1 (pass is rank >= bound), with the
    monic-slice rank recorded alongside.  The pairs and their forms are one
    bab_forms block ranked by form_ranks.
    """
    if 2 * k >= n:
        raise DegreeBoundError(f"need 2k = {2 * k} < n = {n}")
    ring.check_cap(ring.cardinality(PolySet.MONIC, k) ** 2)
    m = n - k + 1
    bound = n - 2 * k - 1
    names = multipliers(ring, k)[1]
    same, forms = bab_forms(ring, n, k)
    ranks, monic_ranks = form_ranks(ring.ctx, forms)
    reports = [
        RankReport(
            q=ring.ctx.q, n=n, k=k, form="bab", a=names[a], b=names[b],
            rank=rank, kernel_dim=m - rank, bound=bound,
            monic_rank=mrank, passed=rank >= bound,
        )
        for a, b, rank, mrank in zip(*np.nonzero(~same), ranks.tolist(),
                                     monic_ranks.tolist())
    ]
    return {
        "reports": reports,
        "coincidence_sets": [{"a": name, "size": size} for name, size
                             in zip(names, same.sum(axis=1).tolist())],
        "pairs_checked": len(reports),
        "pairs_excluded": len(names) ** 2 - len(reports),
    }
