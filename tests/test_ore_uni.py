"""Univariate skew polynomial arithmetic, division, and GCRD."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oreelim import (
    Automorphism,
    BothZero,
    DivisionByZero,
    NEG_INF,
    OreRing,
    RingMismatch,
    ZeroPolynomial,
    field_new,
    gcrd,
)
from oracles import naive_ore_mul, pmul, uni_to_list
from support import rand_orepoly, rand_orepoly_exact, ring_for, untabled


def gf4_ring():
    ctx = field_new(2, 2)
    return ctx, OreRing(ctx, Automorphism(ctx, 1))


def test_add_characteristic_two_cancels():
    ctx, ring = gf4_ring()
    w = ctx.from_coords([0, 1])
    f = ring.x() + w
    assert (f + f).is_zero


def test_add_identity_and_disjoint_support():
    _, ring = gf4_ring()
    f = ring.x(2) + ring.x() + 1
    assert f + ring.zero() == f
    assert ring.x(2) + (ring.x() + 1) == f


def test_mul_commutation_rule():
    ctx, ring = gf4_ring()
    w = ctx.from_coords([0, 1])
    # x * w = sigma(w) * x = (w+1) x
    assert ring.x() * ring.constant(w) == ring.poly([0, w + 1])


def test_mul_example_wx_squared():
    ctx, ring = gf4_ring()
    w = ctx.from_coords([0, 1])
    wx = ring.poly([0, w])
    assert wx * wx == ring.x(2)  # w * sigma(w) = 1


def test_mul_identity():
    _, ring = gf4_ring()
    rng = random.Random(0)
    f = rand_orepoly(ring, rng, 4)
    assert f * ring.one() == f


def test_degree_adds_under_mul():
    ring = ring_for(3, 2, 1)
    rng = random.Random(1)
    for _ in range(300):
        f = rand_orepoly(ring, rng, 4, nonzero=True)
        g = rand_orepoly(ring, rng, 4, nonzero=True)
        assert (f * g).degree == f.degree + g.degree
    assert (ring.zero() * ring.x()).degree == NEG_INF


def test_right_divmod_simple():
    _, ring = gf4_ring()
    q, r = ring.x(2).right_divmod(ring.x())
    assert q == ring.x() and r.is_zero


def test_right_divmod_twisted_example():
    # a = x^2 + 1, b = w*x: need q1 * sigma(w) = 1, so q1 = (w+1)^-1 = w
    ctx, ring = gf4_ring()
    w = ctx.from_coords([0, 1])
    a = ring.x(2) + 1
    b = ring.poly([0, w])
    q, r = a.right_divmod(b)
    assert q == ring.poly([0, w])
    assert r == ring.one()
    assert q * b + r == a and r.degree < b.degree


def test_right_divmod_low_degree():
    _, ring = gf4_ring()
    q, r = ring.x().right_divmod(ring.x(2))
    assert q.is_zero and r == ring.x()


def test_divmod_by_zero():
    _, ring = gf4_ring()
    with pytest.raises(DivisionByZero):
        ring.x().right_divmod(ring.zero())


def test_division_identity_random_sweep():
    ring = ring_for(2, 4, 1)
    rng = random.Random(2)
    for _ in range(10_000):
        a = rand_orepoly(ring, rng, 6)
        b = rand_orepoly(ring, rng, 4, nonzero=True)
        q, r = a.right_divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_mul_associative_and_distributive():
    ring = ring_for(3, 2, 1)
    rng = random.Random(3)
    for _ in range(1000):
        f = rand_orepoly(ring, rng, 3)
        g = rand_orepoly(ring, rng, 3)
        h = rand_orepoly(ring, rng, 3)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_identity_sigma_matches_commutative_mul():
    ring = ring_for(7, 1, 0)
    rng = random.Random(4)
    for _ in range(1000):
        f = rand_orepoly(ring, rng, 4)
        g = rand_orepoly(ring, rng, 4)
        assert uni_to_list(f * g) == pmul(uni_to_list(f), uni_to_list(g), 7)


def test_naive_oracle_matches_op_mul():
    ring = ring_for(2, 4, 1)
    rng = random.Random(5)
    for _ in range(1000):
        f = rand_orepoly(ring, rng, 4)
        g = rand_orepoly(ring, rng, 4)
        assert naive_ore_mul(f, g) == f * g
    assert naive_ore_mul(ring.one(), ring.one()) == ring.one()


@pytest.mark.parametrize("p, m", [(3, 4), (2, 8), (7, 1)])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_addmul_matches_add_of_product(p, m, e):
    ring = ring_for(p, m, e)
    rng = random.Random(7 + e)
    zero = ring.zero()
    for _ in range(300):
        b = rand_orepoly(ring, rng, 6)
        q = rand_orepoly(ring, rng, 3)
        a = rand_orepoly(ring, rng, 3)
        qa = naive_ore_mul(q, a)
        assert b.addmul(q, a) == b + qa == b + q * a
        # zero operands, and b cancelling q*a in full or above degree 1
        assert b.addmul(zero, a) == b == b.addmul(q, zero)
        assert zero.addmul(q, a) == qa
        low = rand_orepoly(ring, rng, 1)
        assert (-qa).addmul(q, a) == zero
        assert (low - qa).addmul(q, a) == low


@functools.lru_cache(maxsize=None)
def _table_and_poly_rings(p, m, e):
    """A[x; frob^e] over the table-backend GF(p^m) and over the same field,
    same modulus, without tables (``bits`` for p = 2, ``poly`` for odd p)."""
    table = field_new(p, m)
    poly = untabled(p, m, modulus=table.modulus)
    assert table.backend == "table" and poly.backend != "table"
    return tuple(OreRing(ctx, Automorphism(ctx, e)) for ctx in (table, poly))


def _kernel_case(pm):
    p, m = pm
    q = p**m
    # zero coefficients are drawn often: the kernel skips them on both sides
    coeffs = st.lists(st.one_of(st.just(0), st.integers(0, q - 1)), max_size=7)
    return st.tuples(st.just(pm), st.integers(0, m - 1), coeffs, coeffs, coeffs, coeffs)


# GF(2) and GF(3) reach q - 1 = 1 and 2, where every log and twist wraps
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from([(2, 1), (2, 4), (2, 8), (3, 1), (3, 4), (5, 2), (7, 1)]).flatmap(
        _kernel_case
    )
)
def test_skew_kernel_table_matches_poly_backend(case):
    """addmul, * and right_divmod give the same packed coefficients on the
    table backend's log-domain kernel as on the untabled add/mul/frob loop,
    for every Frobenius power e."""
    (p, m), e, bc, qc, ac, dc = case
    results = []
    for ring in _table_and_poly_rings(p, m, e):
        b, q, a, d = (ring.from_packed(c) for c in (bc, qc, ac, dc))
        got = [b.addmul(q, a), q * a, a * q, b.addmul(q, a)]  # the last reuses a's memo
        if not d.is_zero:
            quo, rem = b.right_divmod(d)
            assert quo * d + rem == b and rem.degree < d.degree
            got += [quo, rem, d * quo]
        results.append([f.coeffs for f in got])
    assert results[0] == results[1]


def test_addmul_ring_mismatch():
    r1 = ring_for(2, 2, 1)
    r2 = ring_for(2, 2, 0)
    with pytest.raises(RingMismatch):
        r1.x().addmul(r2.x(), r1.x())
    with pytest.raises(RingMismatch):
        r1.x().addmul(r1.x(), r2.x())
    with pytest.raises(RingMismatch):
        r1.x().addmul(1, r1.x())


def test_monic_examples():
    ctx, ring = gf4_ring()
    w = ctx.from_coords([0, 1])
    assert ring.poly([1, w]).monic() == ring.poly([w + 1, 1])  # w^-1 = w + 1
    assert ring.x().monic() == ring.x()
    assert ring.constant(w).monic() == ring.one()
    with pytest.raises(ZeroPolynomial):
        ring.zero().monic()


def test_gcrd_examples():
    ctx, ring = gf4_ring()
    w = ctx.from_coords([0, 1])
    f = ring.poly([w, 0, 1])
    assert gcrd(f, ring.zero()) == f.monic()
    gf2 = ring_for(2, 1, 0)
    assert gcrd(gf2.x(), gf2.x() + 1) == gf2.one()
    with pytest.raises(BothZero):
        gcrd(ring.zero(), ring.zero())


def test_gcrd_common_right_factor():
    ring = ring_for(2, 4, 1)
    rng = random.Random(6)
    for _ in range(300):
        u = rand_orepoly_exact(ring, rng, rng.randrange(1, 3))
        h = rand_orepoly(ring, rng, 2, nonzero=True)
        hp = rand_orepoly(ring, rng, 2, nonzero=True)
        d = gcrd(h * u, hp * u)
        assert d.degree >= u.degree
        assert (h * u).right_divmod(d)[1].is_zero
        assert (hp * u).right_divmod(d)[1].is_zero


def test_ring_mismatch():
    r1 = ring_for(2, 2, 1)
    r2 = ring_for(2, 2, 0)
    with pytest.raises(RingMismatch):
        r1.x() + r2.x()
    with pytest.raises(RingMismatch):
        r1.x() * r2.one()


def test_text_rendering():
    ctx, ring = gf4_ring()
    w = ctx.from_coords([0, 1])
    f = ring.poly([1, w, w + 1])
    assert f.text() == "(t + 1)*x^2 + t*x + 1"
    assert ring.zero().text() == "0"


# -- the dense-polynomial core shared with BivarOrePoly -----------------------


def twisted_ring():
    ring = ring_for(5, 2, 1)
    c = ring.ctx.elem(7)  # t + 2, moved by sigma
    return ring, c, ring.x(2) + ring.constant(c) * ring.x() + 3


def test_reflected_operators_with_scalars():
    ring, c, f = twisted_ring()
    assert c * f != f * c  # the scalar multiplies from the left
    for s in (3, c):
        k = ring.constant(s)
        assert s + f == k + f
        assert s - f == k - f
        assert s * f == k * f


def test_pow_is_repeated_multiplication():
    ring, _, f = twisted_ring()
    assert f**0 == ring.one()
    assert f**1 == f
    assert f**3 == f * f * f
    with pytest.raises(DivisionByZero):
        f**-1


def test_equal_values_hash_equal():
    ring, c, f = twisted_ring()
    g = ring.poly([3, c, 1])
    assert g == f and g is not f
    assert hash(g) == hash(f)
    assert len({f, g, ring.poly([3, c])}) == 2
