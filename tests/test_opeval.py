"""Operator evaluation: the x -> sigma renaming and the induced additive maps."""

import random

import pytest

from oreelim import (
    Automorphism,
    ContextMismatch,
    OreRing,
    eval_bivar,
    eval_uni,
    field_new,
)
from support import bivar_for, rand_bivar, rand_elem, rand_orepoly, ring_for


def gf4_ring():
    ctx = field_new(2, 2)
    return ctx, OreRing(ctx, Automorphism(ctx, 1))


def test_eval_uni_generator_acts_as_sigma():
    ctx, ring = gf4_ring()
    sigma = ring.sigma
    op = eval_uni(ring.x())
    for a in ctx.elements():
        assert op(a) == sigma(a)


def test_eval_uni_one_is_identity_operator():
    ctx, ring = gf4_ring()
    op = eval_uni(ring.one())
    for a in ctx.elements():
        assert op(a) == a


def test_eval_uni_x_squared_on_gf4():
    # sigma has order 2 on GF(4), so x^2 evaluates to the identity map
    ctx, ring = gf4_ring()
    op = eval_uni(ring.x(2))
    for a in ctx.elements():
        assert op(a) == a


def test_op_apply_examples():
    ctx, ring = gf4_ring()
    w = ctx.from_coords([0, 1])
    assert eval_uni(ring.x())(w) == w + 1
    # y = 1 solves (x - 1)(y) = 0
    assert eval_uni(ring.x() - 1)(ctx.one) == ctx.zero
    zero_op = eval_uni(ring.zero())
    for a in ctx.elements():
        assert zero_op(a) == ctx.zero


def test_op_apply_additive():
    # exhaustive on fields up to order 64
    for p, m in [(2, 2), (2, 4), (3, 2), (2, 6)]:
        ctx = field_new(p, m)
        ring = OreRing(ctx, Automorphism(ctx, 1))
        rng = random.Random(0)
        op = eval_uni(rand_orepoly(ring, rng, 3))
        elems = list(ctx.elements())
        for a in elems:
            for b in elems:
                assert op(a + b) == op(a) + op(b)


def test_op_apply_context_mismatch():
    _, ring = gf4_ring()
    with pytest.raises(ContextMismatch):
        eval_uni(ring.x())(field_new(3, 2).one)


def test_eval_uni_is_ring_morphism():
    ring = ring_for(2, 3, 1)
    rng = random.Random(1)
    for _ in range(200):
        f = rand_orepoly(ring, rng, 4)
        g = rand_orepoly(ring, rng, 4)
        assert eval_uni(f + g) == eval_uni(f) + eval_uni(g)
        assert eval_uni(f * g) == eval_uni(f).compose(eval_uni(g))


def test_operator_product_law():
    ring = ring_for(2, 3, 1)
    ctx = ring.ctx
    rng = random.Random(2)
    for _ in range(1000):
        f = rand_orepoly(ring, rng, 3)
        g = rand_orepoly(ring, rng, 3)
        a = rand_elem(ctx, rng)
        assert eval_uni(f * g)(a) == eval_uni(f)(eval_uni(g)(a))


def test_eval_bivar_examples():
    _, ring4 = gf4_ring()
    ring = bivar_for(2, 2, 1, 1)
    f = ring.x1() * ring.x2()
    op = eval_bivar(f)
    assert op.coeff(1).formal == ring.inner.x()
    const = ring.constant(1)
    assert eval_bivar(const).inner == const


def test_eval_bivar_is_ring_morphism():
    ring = bivar_for(2, 3, 1, 1)
    rng = random.Random(3)
    for _ in range(200):
        f = rand_bivar(ring, rng, 3, 2)
        g = rand_bivar(ring, rng, 3, 2)
        assert eval_bivar(f * g) == eval_bivar(f) * eval_bivar(g)
