"""Operator evaluation: `modres.apply_formal` reads a skew polynomial under the
renaming x -> sigma as the additive map a -> sum(c_i * sigma^i(a)).  Every
check here is at map level, on field elements."""

import random

from oreelim import Automorphism, OreRing, field_new
from oracles import bivar_product_coeff_apply, sigma_apply
from support import apply_op, bivar_for, rand_bivar, rand_elem, rand_orepoly, ring_for


def gf4_ring():
    ctx = field_new(2, 2)
    return ctx, OreRing(ctx, Automorphism(ctx, 1))


def test_eval_uni_generator_acts_as_sigma():
    ctx, ring = gf4_ring()
    sigma = ring.sigma
    for a in ctx.elements():
        assert apply_op(ring.x(), a) == sigma(a)


def test_eval_uni_one_is_identity_operator():
    ctx, ring = gf4_ring()
    for a in ctx.elements():
        assert apply_op(ring.one(), a) == a


def test_eval_uni_x_squared_on_gf4():
    # sigma has order 2 on GF(4), so x^2 evaluates to the identity map
    ctx, ring = gf4_ring()
    for a in ctx.elements():
        assert apply_op(ring.x(2), a) == a


def test_op_apply_examples():
    ctx, ring = gf4_ring()
    w = ctx.from_coords([0, 1])
    assert apply_op(ring.x(), w) == w + 1
    # y = 1 solves (x - 1)(y) = 0
    assert apply_op(ring.x() - 1, ctx.one) == ctx.zero
    for a in ctx.elements():
        assert apply_op(ring.zero(), a) == ctx.zero


def test_op_apply_additive():
    # exhaustive on fields up to order 64
    for p, m in [(2, 2), (2, 4), (3, 2), (2, 6)]:
        ctx = field_new(p, m)
        ring = OreRing(ctx, Automorphism(ctx, 1))
        rng = random.Random(0)
        f = rand_orepoly(ring, rng, 3)
        elems = list(ctx.elements())
        for a in elems:
            for b in elems:
                assert apply_op(f, a + b) == apply_op(f, a) + apply_op(f, b)


def test_eval_uni_is_ring_morphism():
    # as maps, on every element of GF(8): sums add and products compose
    ring = ring_for(2, 3, 1)
    elems = list(ring.ctx.elements())
    rng = random.Random(1)
    for _ in range(200):
        f = rand_orepoly(ring, rng, 4)
        g = rand_orepoly(ring, rng, 4)
        for a in elems:
            assert apply_op(f + g, a) == apply_op(f, a) + apply_op(g, a)
            assert apply_op(f * g, a) == apply_op(f, apply_op(g, a))


def test_operator_product_law():
    # the package's map on a product equals the oracle's composition
    ring = ring_for(2, 3, 1)
    ctx = ring.ctx
    rng = random.Random(2)
    for _ in range(1000):
        f = rand_orepoly(ring, rng, 3)
        g = rand_orepoly(ring, rng, 3)
        a = rand_elem(ctx, rng)
        assert apply_op(f * g, a) == sigma_apply(f, sigma_apply(g, a))


def test_eval_bivar_is_ring_morphism():
    # each x2-coefficient of f*g, as a map on every element of GF(8), is the
    # sum of the coefficient operators composed with sigma2's twist
    ring = bivar_for(2, 3, 1, 1)
    elems = list(ring.ctx.elements())
    rng = random.Random(3)
    for _ in range(200):
        f = rand_bivar(ring, rng, 3, 2)
        g = rand_bivar(ring, rng, 3, 2)
        fg = f * g
        for k in range(len(fg.coeffs)):
            for a in elems:
                want = bivar_product_coeff_apply(f, g, k, a)
                assert apply_op(fg.coeff(k), a) == want
