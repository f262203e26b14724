"""Exact arithmetic in F_q = F_{p^e} for an odd prime p.

Every element is its counting index, an int in [0, q).  The base-p digits
of the index, least significant first, are the element's coordinates in
the power basis of the modulus: index sum_j c_j p^j stands for
c_0 + c_1 w + ... + c_(e-1) w^(e-1), w a root of the modulus.  A prime
field is F_p[t]/(t), so its index is the residue itself.  Counting order
is canonical everywhere (reports, golden files, enumeration).  The digits
are spelled out only where elements are read or written as text, as
"c_0+c_1+..." (e.g. "1+2" in F_9).

An extension field is F_p[t]/(m), and rsfq.poly's PolyRing over the prime
field is the one polynomial arithmetic behind it: the default modulus m is
the first monic irreducible of degree e in counting order, a given one is
checked by PolyRing.is_irreducible, and the powers of w are t^k mod m.
The prime field comes from shared_ctx, so building F_(p^e) also keeps F_p.

Arithmetic is table lookup.  For q <= TABLE_Q the constructor builds the
q x q add/mul tables and the size-q neg/inv tables once, as nested lists,
from field_tables; up to TABLE_Q every entry is a cached small int,
so a table costs 8 bytes per entry.  Above TABLE_Q the same attributes are
views that compute each entry from base-p digits (digit_add, digit_mul,
digit_neg, and power(x, q - 2) for inv), so callers index add_table[x][y]
alike for every field.

A FieldCtx is immutable after construction and safe to share across worker
processes; every operation is a pure function of its arguments.

A process keeps, per field, what this module builds once: field_tables
holds the read-only index tables of the 4 most recently used fields, and
shared_ctx the FieldCtx of the 4 most recently used (p, e, modulus), which
verify cells and the CLI take instead of building their own.  FieldCtx(...)
itself always builds a new instance.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .errors import ConfigError, ExactTraceError, ZeroInversionError
from .vecenum import basis_products, index_tables

MAX_Q = 1 << 20
TABLE_Q = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_ring(p: int):
    """F_p[t] over the shared prime field: the ring in which an
    extension's modulus is found or checked and the powers of w reduced."""
    from .poly import PolyRing      # poly imports this module

    return PolyRing(shared_ctx(p, 1, None))


def _w_powers(p: int, e: int, modulus: tuple) -> list:
    """Digits of w^k, k = 0..2e-2, w the root of the modulus (t for F_p)."""
    if e == 1:
        return [[1]]
    ring = _prime_ring(p)
    powers = [list(ring.mod((0,) * k + (1,), modulus)) for k in range(2 * e - 1)]
    return [w + [0] * (e - len(w)) for w in powers]


@lru_cache(maxsize=4)
def field_tables(key: tuple) -> tuple[np.ndarray, np.ndarray]:
    """vecenum.index_tables of the field whose FieldCtx.key() is key.

    Built once per key and read-only; the 4 most recently used fields are
    kept.  FieldCtx reads its tables off it up to TABLE_Q, and charsum's
    Gauss counts call it instead of building their own.
    """
    p, e, modulus = key
    tables = index_tables(p, basis_products(_w_powers(p, e, modulus)))
    for table in tables:
        table.setflags(write=False)
    return tables


def basis_key(p: int, basis: np.ndarray) -> tuple:
    """(p, e, the bytes of the int64 basis): what the bulk kernels read of
    a field, and so the key of every per-process table built from it.  A
    ctx whose basis differs gets tables of its own."""
    return p, basis.shape[0], basis.tobytes()


def _default_modulus(p: int, e: int) -> tuple:
    """Smallest monic irreducible of degree e over F_p in counting order."""
    from .poly import PolySet

    return next(_prime_ring(p).enumerate(PolySet.MONIC_IRREDUCIBLE, e))


class _Entries:
    """Read-only view[x] of fn(x), shaped like a size-q table."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, x):
        return self.fn(x)


class _Rows(_Entries):
    """Read-only view[x][y] of fn(x, y), shaped like a q x q table."""

    __slots__ = ()

    def __getitem__(self, x):
        return _Entries(partial(self.fn, x))


class FieldCtx:
    """Field description plus all element-level operations for F_{p^e}."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not isinstance(p, int) or not is_prime(p) or p < 3:
            raise ConfigError(f"p must be an odd prime >= 3, got {p!r}")
        if not isinstance(e, int) or e < 1:
            raise ConfigError(f"extension degree must be >= 1, got {e!r}")
        q = p**e
        if q > MAX_Q:
            raise ConfigError(f"q = {p}^{e} = {q} exceeds the supported cap {MAX_Q}")
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            if modulus:
                raise ConfigError("modulus only applies to extension fields (e > 1)")
            self.modulus = ()
        elif modulus is None:
            self.modulus = _default_modulus(p, e)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != e + 1 or mod[-1] != 1:
                raise ConfigError(
                    f"modulus must be monic of degree {e} "
                    f"(constant-first residue list of length {e + 1})"
                )
            if not _prime_ring(p).is_irreducible(mod):
                raise ConfigError("modulus is reducible over F_p")
            self.modulus = mod
        self._w_powers = _w_powers(p, e, self.modulus)
        self.basis = basis_products(self._w_powers)
        self.basis.setflags(write=False)
        if q <= TABLE_Q:
            add, mul = field_tables(self.key())
            self.add_table = add.tolist()
            self.mul_table = mul.tolist()
            self.neg_table = (add == 0).argmax(axis=1).tolist()
            self.inv_table = (mul == 1).argmax(axis=1).tolist()
        else:
            self.add_table = _Rows(self.digit_add)
            self.mul_table = _Rows(self.digit_mul)
            self.neg_table = _Entries(self.digit_neg)
            self.inv_table = _Entries(partial(self.power, k=q - 2))

    # -- identity and serialization -------------------------------------

    def key(self) -> tuple:
        return (self.p, self.e, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.e == 1:
            return f"FieldCtx(p={self.p})"
        return f"FieldCtx(p={self.p}, e={self.e}, modulus={list(self.modulus)})"

    # -- element constructors --------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def scalar(self, c: int):
        """Embed the integer residue c into the field."""
        return c % self.p

    def is_element(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.q

    # -- arithmetic --------------------------------------------------------

    def add(self, x, y):
        return self.add_table[x][y]

    def sub(self, x, y):
        return self.add_table[x][self.neg_table[y]]

    def neg(self, x):
        return self.neg_table[x]

    def mul(self, x, y):
        return self.mul_table[x][y]

    def inv(self, x):
        if x == 0:
            raise ZeroInversionError("inverse of zero")
        return self.inv_table[x]

    def power(self, x, k: int):
        result = 1
        base = x
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def trace(self, x) -> int:
        """Absolute trace to F_p: sum of the e Frobenius conjugates."""
        acc = x
        tot = x
        for _ in range(self.e - 1):
            acc = self.power(acc, self.p)
            tot = self.add(tot, acc)
        if tot >= self.p:
            raise ExactTraceError(self.element_str(tot))
        return tot

    # -- the per-element digit path ----------------------------------------

    def digits(self, x) -> list:
        """Base-p digits of the element x, constant coordinate first."""
        out = []
        for _ in range(self.e):
            x, c = divmod(x, self.p)
            out.append(c)
        return out

    def _index(self, coords) -> int:
        """Element whose coordinates are `coords` reduced mod p."""
        p = self.p
        idx = 0
        for c in reversed(coords):
            idx = idx * p + c % p
        return idx

    # Indices below p are the prime subfield F_p, where carry-free digit
    # arithmetic is integer arithmetic mod p: every element of a prime
    # field and the scalars of an extension take that short way.

    def digit_add(self, x, y):
        p = self.p
        if x < p and y < p:
            return (x + y) % p
        return self._index([a + b for a, b in zip(self.digits(x), self.digits(y))])

    def digit_neg(self, x):
        return self._index([-c for c in self.digits(x)])

    def digit_mul(self, x, y):
        p, e = self.p, self.e
        if x < p and y < p:
            return x * y % p
        conv = [0] * (2 * e - 1)
        for i in range(e):
            x, xi = divmod(x, p)
            if xi:
                rest = y
                for k in range(i, i + e):
                    rest, yj = divmod(rest, p)
                    conv[k] += xi * yj
        # Coefficients at t^k, k >= e, fold back through w^k mod modulus.
        for k in range(e, 2 * e - 1):
            c = conv[k] % p
            if c:
                for j, wj in enumerate(self._w_powers[k]):
                    conv[j] += c * wj
        return self._index(conv[:e])

    # -- enumeration and formatting ----------------------------------------

    def elements(self) -> tuple:
        """All q elements in counting order."""
        return tuple(range(self.q))

    def element_str(self, x) -> str:
        return "+".join(str(c) for c in self.digits(x))

    def parse_element(self, s: str):
        parts = s.strip().split("+")
        if self.e == 1:
            if len(parts) != 1:
                raise ConfigError(f"bad element {s!r} for a prime field")
        elif len(parts) != self.e:
            raise ConfigError(f"element {s!r} needs {self.e} '+'-joined residues")
        return self._index([self._residue(part, s) for part in parts])

    def _residue(self, part: str, full: str) -> int:
        try:
            c = int(part)
        except ValueError:
            raise ConfigError(f"bad residue in element {full!r}") from None
        if not 0 <= c < self.p:
            raise ConfigError(f"residue {c} out of range [0, {self.p}) in {full!r}")
        return c


@lru_cache(maxsize=4)
def shared_ctx(p: int, e: int, modulus: tuple | None) -> FieldCtx:
    """FieldCtx(p, e, modulus), built once per key and shared.

    The modulus search, the powers of w, the basis and the tables of a
    field are then built once per process, not once per verify cell; the
    4 most recently used keys are kept.  Callers must not change the
    instance; one that does builds its own FieldCtx.
    """
    return FieldCtx(p, e, modulus)
