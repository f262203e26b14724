"""Exact arithmetic in F_q = F_{p^e} for an odd prime p.

Prime-field elements (e = 1) are plain ints in [0, p).  Extension elements
are length-e tuples of ints, little-endian in the power basis of the
modulus: (c0, ..., c_{e-1}) stands for c0 + c1*w + ... + c_{e-1}*w^(e-1)
where w is a root of the modulus polynomial.

Elements are enumerated in counting order: element number k has the base-p
digits of k as its residue vector, constant coordinate least significant.
This order is canonical everywhere (reports, golden files, enumeration).

A FieldCtx is immutable after construction and safe to share across worker
processes; every operation is a pure function of its arguments.
"""

from __future__ import annotations

from .errors import ConfigError, ExactTraceError, ZeroInversionError

MAX_Q = 1 << 20


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


# Helpers on F_p coefficient lists (little-endian ints), used only for
# modulus validation and the default-modulus search.

def _pf_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pf_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pf_trim(out)


def _pf_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    rem = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * (len(a) - db)
    for sh in range(len(a) - db - 1, -1, -1):
        c = rem[sh + db]
        if c:
            c = (c * inv_lead) % p
            quot[sh] = c
            for i, bi in enumerate(b):
                if bi:
                    rem[sh + i] = (rem[sh + i] - c * bi) % p
    return _pf_trim(quot), _pf_trim(rem)


def _pf_monic_polys(p: int, deg: int):
    """All monic degree-deg polynomials over F_p in counting order."""
    for idx in range(p**deg):
        coeffs = []
        k = idx
        for _ in range(deg):
            coeffs.append(k % p)
            k //= p
        coeffs.append(1)
        yield coeffs


def _pf_is_irreducible(f: list, p: int) -> bool:
    deg = len(f) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for g in _pf_monic_polys(p, d):
            if not _pf_divmod(f, g, p)[1]:
                return False
    return True


def _default_modulus(p: int, e: int) -> tuple:
    """Smallest monic irreducible of degree e over F_p in counting order."""
    for cand in _pf_monic_polys(p, e):
        if _pf_is_irreducible(cand, p):
            return tuple(cand)
    raise ConfigError(f"no irreducible modulus of degree {e} over F_{p}")


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
        else:
            if modulus is None:
                self.modulus = _default_modulus(p, e)
            else:
                mod = tuple(int(c) % p for c in modulus)
                if len(mod) != e + 1 or mod[-1] != 1:
                    raise ConfigError(
                        f"modulus must be monic of degree {e} "
                        f"(constant-first residue list of length {e + 1})"
                    )
                if not _pf_is_irreducible(list(mod), p):
                    raise ConfigError("modulus is reducible over F_p")
                self.modulus = mod
        # Reduction rows: t^(e+i) mod modulus as length-e residue tuples.
        if e > 1:
            rows = []
            for i in range(e - 1):
                t_pow = [0] * (e + i) + [1]
                _, rem = _pf_divmod(t_pow, list(self.modulus), p)
                rows.append(tuple(rem + [0] * (e - len(rem))))
            self._reduction = tuple(rows)
        else:
            self._reduction = ()
        self._elements = None

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
        return 0 if self.e == 1 else (0,) * self.e

    def one(self):
        return 1 if self.e == 1 else (1,) + (0,) * (self.e - 1)

    def scalar(self, c: int):
        """Embed the integer residue c into the field."""
        c %= self.p
        return c if self.e == 1 else (c,) + (0,) * (self.e - 1)

    def is_element(self, x) -> bool:
        if self.e == 1:
            return isinstance(x, int) and 0 <= x < self.p
        return (
            isinstance(x, tuple)
            and len(x) == self.e
            and all(isinstance(c, int) and 0 <= c < self.p for c in x)
        )

    # -- arithmetic --------------------------------------------------------

    def add(self, x, y):
        if self.e == 1:
            return (x + y) % self.p
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def sub(self, x, y):
        if self.e == 1:
            return (x - y) % self.p
        p = self.p
        return tuple((a - b) % p for a, b in zip(x, y))

    def neg(self, x):
        if self.e == 1:
            return (-x) % self.p
        p = self.p
        return tuple((-a) % p for a in x)

    def mul(self, x, y):
        if self.e == 1:
            return (x * y) % self.p
        p, e = self.p, self.e
        conv = [0] * (2 * e - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    conv[i + j] += xi * yj
        # Coefficients at t^(e+i) fold back below degree e.
        for i in range(2 * e - 2, e - 1, -1):
            c = conv[i] % p
            if c:
                row = self._reduction[i - e]
                for j, rj in enumerate(row):
                    if rj:
                        conv[j] += c * rj
        return tuple(conv[j] % p for j in range(e))

    def inv(self, x):
        if self.e == 1:
            if x == 0:
                raise ZeroInversionError("inverse of zero")
            return pow(x, self.p - 2, self.p)
        if not any(x):
            raise ZeroInversionError("inverse of zero")
        p = self.p
        # Extended Euclid on (x, modulus) over F_p[t].
        r0, r1 = list(self.modulus), _pf_trim(list(x))
        s0, s1 = [], [1]
        while r1:
            q, r = _pf_divmod(r0, r1, p)
            r0, r1 = r1, r
            s_next = [(a - b) % p for a, b in _zip_pad(s0, _pf_mul(q, s1, p))]
            s0, s1 = s1, _pf_trim(s_next)
        # r0 is a nonzero constant gcd.
        scale = pow(r0[0], p - 2, p)
        out = [(c * scale) % p for c in s0]
        out += [0] * (self.e - len(out))
        return tuple(out[: self.e])

    def power(self, x, k: int):
        result = self.one()
        base = x
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def trace(self, x) -> int:
        """Absolute trace to F_p: sum of the e Frobenius conjugates."""
        if self.e == 1:
            return x
        acc = x
        tot = x
        for _ in range(self.e - 1):
            acc = self.power(acc, self.p)
            tot = self.add(tot, acc)
        if any(tot[1:]):
            raise ExactTraceError(tot)
        return tot[0]

    # -- enumeration and formatting ----------------------------------------

    def elements(self) -> tuple:
        """All q elements in counting order (cached)."""
        if self._elements is None:
            if self.e == 1:
                self._elements = tuple(range(self.p))
            else:
                self._elements = tuple(self.element_at(i) for i in range(self.q))
        return self._elements

    def element_at(self, i: int):
        if self.e == 1:
            return i
        digits = []
        k = i
        for _ in range(self.e):
            digits.append(k % self.p)
            k //= self.p
        return tuple(digits)

    def element_index(self, x) -> int:
        if self.e == 1:
            return x
        idx = 0
        for c in reversed(x):
            idx = idx * self.p + c
        return idx

    def element_str(self, x) -> str:
        if self.e == 1:
            return str(x)
        return "+".join(str(c) for c in x)

    def parse_element(self, s: str):
        parts = s.strip().split("+")
        if self.e == 1:
            if len(parts) != 1:
                raise ConfigError(f"bad element {s!r} for a prime field")
            return self._residue(parts[0], s)
        if len(parts) != self.e:
            raise ConfigError(f"element {s!r} needs {self.e} '+'-joined residues")
        return tuple(self._residue(part, s) for part in parts)

    def _residue(self, part: str, full: str) -> int:
        try:
            c = int(part)
        except ValueError:
            raise ConfigError(f"bad residue in element {full!r}") from None
        if not 0 <= c < self.p:
            raise ConfigError(f"residue {c} out of range [0, {self.p}) in {full!r}")
        return c


def _zip_pad(a: list, b: list):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return zip(a, b)
