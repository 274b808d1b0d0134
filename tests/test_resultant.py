"""The skew Sylvester matrix and direct elimination."""

import random
from unittest import mock

import pytest

from oreelim import (
    BothConstant,
    OreMatrix,
    RingMismatch,
    ZeroPolynomial,
    res_x2_direct,
    res_x2_modular,
    skewdet,
    sylvester_degree_bound,
    sylvester_matrix,
)
from oreelim.resultant import sylvester_shifts
from oreelim.skewdet import _ByteRows
from oracles import classical_resultant, bivar_to_lists, uni_to_list
from support import bivar_for, rand_bivar, rand_bivar_exact, rand_orepoly


def test_sylvester_classical_shape():
    ring = bivar_for(5, 1, 0, 0)
    f = ring.x2() - ring.x1()
    g = ring.x2() - ring.constant(2)
    syl = sylvester_matrix(f, g)
    assert syl.n == 2
    inner = ring.inner
    assert syl.rows == (
        (inner.one(), -inner.x()),
        (inner.one(), inner.constant(-2)),
    )


def test_sylvester_rows_carry_sigma2_twists():
    ring = bivar_for(2, 2, 1, 1)
    ctx = ring.ctx
    w = ctx.from_coords([0, 1])
    # f of x2-degree 2, g of degree 1: the shifted f-row is twisted
    a0, a1, a2 = ring.inner.poly([w, 1]), ring.inner.poly([1, w]), ring.inner.poly([w])
    f = ring.poly([a0, a1, a2])
    g = ring.poly([ring.inner.poly([0, 1]), ring.inner.one()])
    syl = sylvester_matrix(f, g)
    assert syl.n == 3
    # row 0 is f's coefficient run (no shift for m = 1)
    assert syl.rows[0] == (a2, a1, a0)
    # row 1 is x2*g: coefficients twisted by sigma2
    tw = lambda c: c.coeff_twist(1)
    assert syl.rows[1] == (tw(ring.inner.one()), tw(ring.inner.poly([0, 1])), ring.inner.zero())
    # row 2 is g untouched
    assert syl.rows[2] == (ring.inner.zero(), ring.inner.one(), ring.inner.poly([0, 1]))
    # rows are exactly what shift_left reports
    for r, shift, poly in ((0, 0, f), (1, 1, g), (2, 0, g)):
        s = poly.shift_left(shift)
        assert syl.rows[r] == tuple(s.coeff(2 - j) for j in range(3))


def test_sylvester_errors():
    ring = bivar_for(5, 1, 0, 0)
    f = ring.x2() - ring.x1()
    with pytest.raises(ZeroPolynomial):
        sylvester_matrix(f, ring.zero())
    with pytest.raises(BothConstant):
        sylvester_matrix(ring.constant(1), ring.constant(2))
    twisted = bivar_for(2, 2, 1, 1)
    untwisted = bivar_for(2, 2, 1, 0)
    with pytest.raises(RingMismatch):
        sylvester_matrix(twisted.x2(), untwisted.x2())


def _sylvester_from_shift_left(f, g):
    """The Sylvester matrix built entry by entry from `shift_left`."""
    n, m = f.degree, g.degree
    size = n + m
    rows = [
        [h.shift_left(k).coeff(size - 1 - j) for j in range(size)]
        for h, count in ((f, m), (g, n))
        for k in range(count - 1, -1, -1)
    ]
    return OreMatrix(f.ring.inner, rows)


# (p, m, e1, e2): GF(2^m), GF(3^m) and GF(p) for p < 128, each with sigma2
# the identity, and the first two with sigma2 a nontrivial Frobenius power
SHIFT_FIELDS = (
    (2, 4, 1, 0),
    (2, 8, 1, 3),
    (3, 2, 0, 1),
    (3, 4, 1, 0),
    (3, 4, 1, 2),
    (5, 1, 0, 0),
    (127, 1, 0, 0),
)


@pytest.mark.parametrize("p, m, e1, e2", SHIFT_FIELDS)
def test_shift_built_rows_equal_the_encoded_sylvester_matrix(p, m, e1, e2):
    ring = bivar_for(p, m, e1, e2)
    inner, tables = ring.inner, ring.ctx.byte_tables()
    assert tables is not None
    rng = random.Random(f"shift-rows/{p}/{m}/{e2}")

    def constant_in_x2():
        return ring.poly([rand_orepoly(inner, rng, 3, nonzero=True)])

    pairs = [
        (rand_bivar(ring, rng, 4, 3, min_d2=1), rand_bivar(ring, rng, 4, 3, min_d2=1))
        for _ in range(8)
    ]
    # zero inner coefficients between nonzero ones, and both degenerate
    # shapes: g, then f, of x2-degree 0
    gappy = ring.poly([inner.x(2), inner.zero(), inner.zero(), inner.one() + inner.x()])
    pairs += [
        (gappy, rand_bivar_exact(ring, rng, 2, 2)),
        (rand_bivar_exact(ring, rng, 3, 2), constant_in_x2()),
        (constant_in_x2(), rand_bivar_exact(ring, rng, 2, 3)),
    ]
    for f, g in pairs:
        matrix = sylvester_matrix(f, g)
        assert matrix == _sylvester_from_shift_left(f, g)
        shifted, encoded = _ByteRows(sylvester_shifts(f, g), tables), _ByteRows(matrix, tables)
        assert shifted.rows == encoded.rows
        assert shifted.nbytes == encoded.nbytes


def test_routes_check_the_pair_before_building_a_store():
    ring = bivar_for(3, 4, 1, 2)
    f = ring.x2() - ring.x1()
    cases = [
        ((f, ring.zero()), ZeroPolynomial),
        ((ring.zero(), f), ZeroPolynomial),
        ((ring.constant(1), ring.constant(2)), BothConstant),
        ((f, bivar_for(3, 4, 1, 0).x2()), RingMismatch),
        ((f, ring.inner.x()), RingMismatch),
    ]
    no_store = AssertionError("a row store was built")
    with (
        mock.patch.object(skewdet, "_ByteRows", side_effect=no_store),
        mock.patch.object(skewdet, "_TupleRows", side_effect=no_store),
    ):
        for args, error in cases:
            for call in (sylvester_shifts, sylvester_matrix, res_x2_direct, res_x2_modular):
                with pytest.raises(error):
                    call(*args)


def test_direct_classical_example():
    ring = bivar_for(5, 1, 0, 0)
    f = ring.x2() - ring.x1()
    g = ring.x2() - ring.constant(2)
    d = res_x2_direct(f, g)
    expected = ring.inner.x() + 3
    assert d.rep == expected or d.rep == -expected
    assert d.degree == 1 and not d.is_zero


def test_direct_common_right_factor_vanishes():
    ring = bivar_for(2, 4, 1, 1)
    rng = random.Random(0)
    for _ in range(30):
        h = rand_bivar(ring, rng, 2, 1, min_d2=1)
        u = rand_bivar(ring, rng, 1, 1)
        v = rand_bivar(ring, rng, 1, 1)
        f, g = u * h, v * h
        if f.degree < 1 or g.degree < 1:
            continue
        assert res_x2_direct(f, g).is_zero


def test_direct_matches_classical_oracle():
    ring = bivar_for(7, 1, 0, 0)
    rng = random.Random(1)
    for _ in range(50):
        f = rand_bivar(ring, rng, 3, 3, min_d2=1)
        g = rand_bivar(ring, rng, 3, 3, min_d2=1)
        d = res_x2_direct(f, g)
        oracle = classical_resultant(bivar_to_lists(f), bivar_to_lists(g), 7)
        rep = uni_to_list(d.rep)
        assert rep == oracle or [(-c) % 7 for c in rep] == oracle


def test_direct_degenerate_constant_g():
    ring = bivar_for(5, 1, 0, 0)
    f = rand_bivar_exact(ring, random.Random(2), 3, 2)
    d = res_x2_direct(f, ring.constant(3))
    # res(f, c) = c^n for constant c
    assert d.rep == ring.inner.constant(3) ** 3
    d2 = res_x2_direct(ring.constant(3), f)
    assert d2.rep == ring.inner.constant(3) ** 3


def test_direct_degenerate_constant_twisted():
    ring = bivar_for(2, 2, 1, 1)
    w = ring.ctx.from_coords([0, 1])
    f = ring.x2() ** 2 + ring.x2() + 1
    d = res_x2_direct(f, ring.constant(w))
    # diag(sigma2(w), w) -> sigma2(w) * w = (w+1)*w = 1
    assert d.rep == ring.inner.one()


def test_degree_bound_holds():
    ring = bivar_for(2, 4, 1, 1)
    rng = random.Random(3)
    for _ in range(40):
        f = rand_bivar(ring, rng, 2, 2, min_d2=1)
        g = rand_bivar(ring, rng, 2, 2, min_d2=1)
        d = res_x2_direct(f, g)
        if not d.is_zero:
            assert d.degree <= sylvester_degree_bound(f, g)


def test_direct_deterministic():
    ring = bivar_for(2, 4, 1, 1)
    rng = random.Random(4)
    f = rand_bivar(ring, rng, 2, 2, min_d2=1)
    g = rand_bivar(ring, rng, 2, 2, min_d2=1)
    assert res_x2_direct(f, g).rep == res_x2_direct(f, g).rep


def test_monic_rep_convenience():
    ring = bivar_for(5, 1, 0, 0)
    f = ring.constant(2) * ring.x2() - ring.x1()
    g = ring.x2() - ring.constant(2)
    d = res_x2_direct(f, g)
    assert not d.is_zero
    assert d.monic_rep.lead_coeff == ring.ctx.one
