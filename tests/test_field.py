import random

import pytest

import rsfq.field
from rsfq import (
    ConfigError,
    ExactTraceError,
    FieldCtx,
    RsfqError,
    ZeroInversionError,
)
from rsfq.field import TABLE_Q

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]


def all_ctxs():
    return [FieldCtx(p, e) for p, e in SMALL_FIELDS]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_rejects_non_odd_prime():
    for bad in (2, 4, 9, 15, 1, 0, -3):
        with pytest.raises(ConfigError):
            FieldCtx(bad)


def test_rejects_oversized_field():
    with pytest.raises(ConfigError):
        FieldCtx(3, 20)


def test_rejects_reducible_modulus():
    # t^2 + 2 = (t+1)(t+2) over F_3
    with pytest.raises(ConfigError):
        FieldCtx(3, 2, modulus=(2, 0, 1))


def test_rejects_non_monic_modulus():
    with pytest.raises(ConfigError):
        FieldCtx(3, 2, modulus=(1, 0, 2))


def test_default_modulus_is_smallest():
    assert FieldCtx(3, 2).modulus == (1, 0, 1)


# The default modulus of each field, constant first: the smallest monic
# irreducible of degree e over F_p in counting order.
DEFAULT_MODULI = {
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 11): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (257, 2): (3, 0, 1),
    (1021, 2): (2, 0, 1),
}


@pytest.mark.parametrize("p, e", sorted(DEFAULT_MODULI))
def test_default_moduli_are_pinned(p, e):
    """The modulus, and w^e = -(m_0 + ... + m_(e-1) w^(e-1)) for w, whose
    index is p, by the field's own multiplication."""
    ctx = FieldCtx(p, e)
    m = DEFAULT_MODULI[p, e]
    assert ctx.modulus == m
    assert ctx.power(p, e) == sum(-c % p * p**j for j, c in enumerate(m[:e]))


def test_modulus_override():
    ctx = FieldCtx(3, 2, modulus=(2, 1, 1))  # t^2 + t + 2, irreducible
    assert ctx.modulus == (2, 1, 1)
    t = 3
    # t^2 = -t - 2 = 2t + 1
    assert ctx.mul(t, t) == 7


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_prime_field_basics():
    ctx = FieldCtx(3)
    assert ctx.add(2, 2) == 1
    assert ctx.mul(2, 2) == 1
    assert ctx.inv(2) == 2
    assert FieldCtx(5).inv(2) == 3


def test_extension_basics():
    ctx = FieldCtx(3, 2)  # modulus t^2 + 1
    t = 3
    assert ctx.mul(t, t) == 2               # t^2 = -1
    assert ctx.inv(t) == 6                  # found by exhaustive search
    assert ctx.mul(t, ctx.inv(t)) == ctx.one()


def test_field_axioms_exhaustive():
    """Associativity, commutativity, distributivity for q <= 25."""
    for ctx in all_ctxs():
        elements = ctx.elements()
        for x in elements:
            for y in elements:
                assert ctx.add(x, y) == ctx.add(y, x)
                assert ctx.mul(x, y) == ctx.mul(y, x)
                for z in elements:
                    assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
                    assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
                    lhs = ctx.mul(x, ctx.add(y, z))
                    rhs = ctx.add(ctx.mul(x, y), ctx.mul(x, z))
                    assert lhs == rhs


def test_inverse_is_involution():
    for ctx in all_ctxs():
        for x in ctx.elements():
            if x == ctx.zero():
                with pytest.raises(ZeroInversionError):
                    ctx.inv(x)
            else:
                assert ctx.mul(x, ctx.inv(x)) == ctx.one()
                assert ctx.inv(ctx.inv(x)) == x


def test_sub_and_neg():
    for ctx in all_ctxs():
        for x in ctx.elements():
            for y in ctx.elements():
                assert ctx.add(ctx.sub(x, y), y) == x
            assert ctx.add(x, ctx.neg(x)) == ctx.zero()


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_values_frozen():
    assert FieldCtx(3).trace(2) == 2              # identity on prime fields
    ctx = FieldCtx(3, 2)
    assert ctx.trace(ctx.one()) == 2              # e mod p
    assert ctx.trace(3) == 0                      # t + t^3 reduces to 0


def test_trace_linear_and_surjective():
    for ctx in all_ctxs():
        hit = set()
        for x in ctx.elements():
            tx = ctx.trace(x)
            hit.add(tx)
            assert 0 <= tx < ctx.p
            for y in ctx.elements():
                want = (ctx.trace(x) + ctx.trace(y)) % ctx.p
                assert ctx.trace(ctx.add(x, y)) == want
        assert hit == set(range(ctx.p))


def test_trace_outside_prime_field_raises(monkeypatch):
    """A broken Frobenius leaves F_p; the error is an RsfqError and an
    AssertionError, importable from rsfq.field as before."""
    assert rsfq.field.ExactTraceError is ExactTraceError
    ctx = FieldCtx(3, 2)
    monkeypatch.setattr(ctx, "power", lambda x, k: x)
    with pytest.raises(ExactTraceError) as info:
        ctx.trace(3)
    assert isinstance(info.value, RsfqError)
    assert isinstance(info.value, AssertionError)


# ---------------------------------------------------------------------------
# enumeration and formatting
# ---------------------------------------------------------------------------

def test_enumeration_order_and_distinctness():
    assert FieldCtx(3).elements() == (0, 1, 2)
    assert FieldCtx(5).elements() == (0, 1, 2, 3, 4)
    ctx = FieldCtx(3, 2)
    elements = ctx.elements()
    assert len(set(elements)) == 9
    assert elements[0] == 0
    assert elements[-1] == 8


def test_element_strings_round_trip():
    for ctx in (FieldCtx(3), FieldCtx(3, 2), FieldCtx(5, 2)):
        for x in ctx.elements():
            assert ctx.parse_element(ctx.element_str(x)) == x
    with pytest.raises(ConfigError):
        FieldCtx(3).parse_element("7")
    with pytest.raises(ConfigError):
        FieldCtx(3, 2).parse_element("1")


def test_view_path_above_table_q():
    """Fields above TABLE_Q compute each entry from base-p digits; seeded
    samples check the axioms, inverses, negation and the trace range, and
    prime fields also check against plain integer arithmetic mod p."""
    rng = random.Random(4093)
    for p, e in ((257, 1), (3, 6), (4093, 1), (1048573, 1)):
        ctx = FieldCtx(p, e)
        assert ctx.q > TABLE_Q
        assert not isinstance(ctx.add_table, list)
        for _ in range(200):
            x, y, z = (rng.randrange(ctx.q) for _ in range(3))
            assert ctx.add(x, y) == ctx.add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
            assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
            assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
            assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y),
                                                        ctx.mul(x, z))
            assert ctx.add(x, ctx.neg(x)) == 0
            assert ctx.add(ctx.sub(x, y), y) == x
            if x:
                assert ctx.mul(x, ctx.inv(x)) == 1
            assert 0 <= ctx.trace(x) < p
            if e == 1:
                assert ctx.add(x, y) == (x + y) % p
                assert ctx.mul(x, y) == x * y % p
                if x:
                    assert ctx.inv(x) == pow(x, p - 2, p)
        with pytest.raises(ZeroInversionError):
            ctx.inv(0)
