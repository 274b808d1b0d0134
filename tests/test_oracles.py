"""The brute-force oracles themselves, pinned to their worked examples."""

import pytest

from oreelim import Automorphism, field_new
from oracles import (
    FieldTooLarge,
    brute_conjugacy,
    classical_resultant,
    naive_ore_mul,
    sigma_apply,
    solve_dense,
)
from support import ring_for


def test_classical_resultant_linear_pair():
    # res(x2 - x1, x2 - 2) over GF(5) = x1 - 2
    f = [[0, 4], [1]]
    g = [[3], [1]]
    assert classical_resultant(f, g, 5) == [3, 1]


def test_classical_resultant_common_factor_vanishes():
    f = [[1], [2], [1]]
    assert classical_resultant(f, f, 5) == []


def test_classical_resultant_constant_convention():
    # res(f, c) = c^n for deg-n f and nonzero constant c
    f = [[0], [0], [1]]  # x2^2
    assert classical_resultant(f, [[3]], 5) == [pow(3, 2, 5)]


def test_naive_mul_degenerate_cases():
    ring = ring_for(2, 2, 1)
    w = ring.ctx.from_coords([0, 1])
    f = ring.constant(w)
    assert naive_ore_mul(f, ring.one()) == f
    assert naive_ore_mul(f, f) == ring.constant(w * w)
    assert naive_ore_mul(ring.zero(), f).is_zero


def test_brute_conjugacy_gf4_single_class():
    ctx = field_new(2, 2)
    assert brute_conjugacy(ctx, Automorphism(ctx, 1)) == frozenset(
        [frozenset({1, 2, 3})]
    )


def test_brute_conjugacy_identity_is_equality():
    ctx = field_new(5, 1)
    assert brute_conjugacy(ctx, Automorphism(ctx, 0)) == frozenset(
        frozenset([v]) for v in range(1, 5)
    )


def test_brute_conjugacy_gf9_two_classes():
    ctx = field_new(3, 2)
    classes = brute_conjugacy(ctx, Automorphism(ctx, 1))
    assert sorted(len(c) for c in classes) == [4, 4]


def test_brute_conjugacy_guards_field_size():
    ctx = field_new(2, 13)
    with pytest.raises(FieldTooLarge):
        brute_conjugacy(ctx, Automorphism(ctx, 1))


def test_sigma_apply_examples():
    ring = ring_for(2, 2, 1)
    w = ring.ctx.from_coords([0, 1])
    # x acts as sigma: w -> w^2 = w + 1; (x + w)(1) = 1 + w
    assert sigma_apply(ring.x(), w) == w + 1
    assert sigma_apply(ring.poly([w, 1]), ring.ctx.one) == w + 1
    assert sigma_apply(ring.zero(), w) == ring.ctx.zero


def test_solve_dense_hand_checked():
    # over GF(5): x + y = 3, x + 2y = 4 give x = 2, y = 1, and the leftover
    # equation 3x + y = 7 = 2 holds
    ctx = field_new(5, 1)
    e = ctx.elem
    rows = [[e(1), e(1)], [e(1), e(2)], [e(3), e(1)]]
    assert solve_dense(rows, [e(3), e(4), e(2)]) == [e(2), e(1)]
    with pytest.raises(ValueError, match="inconsistent"):
        solve_dense(rows, [e(3), e(4), e(3)])
    with pytest.raises(ValueError, match="no pivot"):
        solve_dense([[e(1), e(2)], [e(2), e(4)]], [e(1), e(2)])
