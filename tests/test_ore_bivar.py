"""Bivariate Ore algebra: commuting indeterminates and left x2-shifts."""

import random

import pytest

from oreelim import (
    Automorphism,
    DivisionByZero,
    NEG_INF,
    RingMismatch,
    ZeroPolynomial,
    field_new,
)
from oracles import bivar_mul_commutative, bivar_to_lists
from support import bivar_for, rand_bivar


def gf4_bivar():
    ctx = field_new(2, 2)
    return ctx, bivar_for(2, 2, 1, 1)


def test_mul_commutation_with_constant():
    ctx, ring = gf4_bivar()
    w = ctx.from_coords([0, 1])
    # x2 * w = sigma2(w) * x2
    assert ring.x2() * ring.constant(w) == ring.poly([0, w + 1])


def test_mul_sigma2_fixes_x1():
    ctx, ring = gf4_bivar()
    w = ctx.from_coords([0, 1])
    lhs = ring.x2() * (ring.constant(w) * ring.x1())
    expected = (ring.constant(w + 1) * ring.x1()) * ring.x2()
    assert lhs == expected


def test_mul_identity():
    _, ring = gf4_bivar()
    rng = random.Random(0)
    f = rand_bivar(ring, rng, 3, 2)
    assert f * ring.one() == f


def test_indeterminates_commute():
    _, ring = gf4_bivar()
    assert ring.x1() * ring.x2() == ring.x2() * ring.x1()


def test_shift_left_zero_is_identity():
    _, ring = gf4_bivar()
    rng = random.Random(1)
    f = rand_bivar(ring, rng, 3, 2)
    assert f.shift_left(0) == f


def test_shift_left_single_step():
    ctx, ring = gf4_bivar()
    w = ctx.from_coords([0, 1])
    shifted = ring.constant(w).shift_left(1)
    assert shifted == ring.poly([0, w + 1])


def test_shift_left_power_law_and_mul():
    _, ring = gf4_bivar()
    rng = random.Random(2)
    for _ in range(200):
        f = rand_bivar(ring, rng, 3, 2)
        j, k = rng.randrange(4), rng.randrange(4)
        assert f.shift_left(j + k) == f.shift_left(k).shift_left(j)
        assert f.shift_left(k) == ring.x2() ** k * f


def test_degree_and_coefficient_access():
    _, ring = gf4_bivar()
    f = ring.x1() * ring.x2() ** 2 + ring.x2()
    assert f.degree == 2
    assert f.lead_coeff == ring.inner.x()
    assert ring.zero().degree == NEG_INF
    assert f.coeff(5).is_zero


def test_zero_lead_coeff_raises_zero_polynomial():
    _, ring = gf4_bivar()
    with pytest.raises(ZeroPolynomial) as err:
        ring.zero().lead_coeff
    assert (err.value.code, err.value.exit_code) == ("zero-polynomial", 4)


def test_sigma_automorphisms_commute_on_elements():
    ctx = field_new(2, 6)
    s1, s2 = Automorphism(ctx, 2), Automorphism(ctx, 3)
    rng = random.Random(3)
    for _ in range(1000):
        a = ctx.elem(rng.randrange(ctx.q))
        assert s1(s2(a)) == s2(s1(a))


def test_mul_associative():
    ring = bivar_for(3, 2, 1, 1)
    rng = random.Random(4)
    for _ in range(1000):
        f = rand_bivar(ring, rng, 3, 1)
        g = rand_bivar(ring, rng, 3, 1)
        h = rand_bivar(ring, rng, 3, 1)
        assert (f * g) * h == f * (g * h)


def test_identity_sigmas_match_commutative_oracle():
    ring = bivar_for(5, 1, 0, 0)
    rng = random.Random(5)
    for _ in range(1000):
        f = rand_bivar(ring, rng, 2, 2)
        g = rand_bivar(ring, rng, 2, 2)
        assert bivar_to_lists(f * g) == bivar_mul_commutative(
            bivar_to_lists(f), bivar_to_lists(g), 5
        )


def test_ring_mismatch():
    r1 = bivar_for(2, 2, 1, 1)
    r2 = bivar_for(2, 2, 1, 0)
    with pytest.raises(RingMismatch):
        r1.x2() * r2.x2()


# -- the dense-polynomial core shared with OrePoly ------------------------------


def twisted_bivar():
    ring = bivar_for(5, 2, 1, 1)
    c = ring.ctx.elem(7)  # t + 2, moved by both sigmas
    f = ring.poly([[1, c], [2], [0, 1]])  # x1*x2^2 + 2*x2 + c*x1 + 1
    return ring, c, f


def test_reflected_operators_with_scalars_and_inner_polynomials():
    ring, c, f = twisted_bivar()
    u = ring.inner.poly([c, 0, 1])
    assert u * f != f * u  # the inner polynomial multiplies from the left
    for s in (3, c, u):
        k = ring.from_uni(u) if s is u else ring.constant(s)
        assert s + f == k + f
        assert s - f == k - f
        assert s * f == k * f


def test_pow_is_repeated_multiplication():
    ring, _, f = twisted_bivar()
    assert f**0 == ring.one()
    assert f**1 == f
    assert f**3 == f * f * f
    with pytest.raises(DivisionByZero):
        f**-1


@pytest.mark.parametrize(
    "power",
    [
        lambda ring: ring.inner.x(-1),
        lambda ring: ring.x1(-1),
        lambda ring: ring.x2(-2),
        lambda ring: ring.x1() ** -1,
    ],
    ids=["x", "x1", "x2", "pow"],
)
def test_negative_powers_are_not_polynomials(power):
    # the constructors refuse a negative exponent as `**` does, where
    # (0,) * k would make it the polynomial 1
    with pytest.raises(DivisionByZero, match="negative powers"):
        power(bivar_for(3, 2, 1, 1))


def test_never_equal_to_a_univariate_polynomial():
    ring = bivar_for(5, 2, 1, 1)
    for u in (ring.inner.zero(), ring.inner.one(), ring.inner.x()):
        assert ring.from_uni(u) != u and u != ring.from_uni(u)
        assert not ring.from_uni(u) == u


def test_equal_values_hash_equal():
    ring, c, f = twisted_bivar()
    g = ring.poly([[1, c], [2], [0, 1]])
    assert g == f and g is not f
    assert hash(g) == hash(f)
    assert len({f, g, f + 1}) == 2
