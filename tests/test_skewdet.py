"""Row operations, triangularization, and the Dieudonne determinant."""

import json
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from oreelim import (
    Automorphism,
    EqualRows,
    IndexOutOfRange,
    OreMatrix,
    OreRing,
    RingMismatch,
    apply_op_log,
    dieudonne_det,
    res_x2_direct,
    surrogates_equal,
    triangularize_with_log,
)
from oreelim.field import FieldCtx
from oreelim.skewdet import PIVOT_RULES
from oracles import det_poly_matrix, triangularize_reference, uni_to_list
from support import bivar_for, rand_orepoly, ring_for


def rand_matrix(ring, rng, n, max_deg=3):
    return OreMatrix(
        ring, [[rand_orepoly(ring, rng, max_deg) for _ in range(n)] for _ in range(n)]
    )


def test_row_addmul_zero_multiplier_is_identity():
    ring = ring_for(5, 1, 0)
    m = OreMatrix.identity(ring, 3)
    assert m.row_addmul(0, 1, ring.zero()) == m


def test_row_addmul_on_identity():
    ring = ring_for(5, 1, 0)
    m = OreMatrix.identity(ring, 2).row_addmul(0, 1, ring.x())
    assert m.rows[1] == (ring.x(), ring.one())


def test_row_addmul_inverse_restores():
    ring = ring_for(3, 2, 1)
    rng = random.Random(0)
    m = rand_matrix(ring, rng, 3)
    q = rand_orepoly(ring, rng, 2)
    assert m.row_addmul(0, 2, q).row_addmul(0, 2, -q) == m


def test_row_addmul_errors():
    ring = ring_for(5, 1, 0)
    m = OreMatrix.identity(ring, 2)
    with pytest.raises(EqualRows):
        m.row_addmul(1, 1, ring.x())
    with pytest.raises(IndexOutOfRange):
        m.row_addmul(0, 2, ring.x())


def test_row_swap_signed_identity():
    ring = ring_for(5, 1, 0)
    m = OreMatrix.identity(ring, 2).row_swap_signed(0, 1)
    minus_one = ring.constant(-1)
    assert m.rows == ((ring.zero(), minus_one), (ring.one(), ring.zero()))


def test_row_swap_signed_twice():
    ring = ring_for(5, 1, 0)
    m = OreMatrix.identity(ring, 2).row_swap_signed(0, 1).row_swap_signed(0, 1)
    minus_one = ring.constant(-1)
    assert m.rows == ((minus_one, ring.zero()), (ring.zero(), minus_one))
    # in characteristic 2 the double swap is exactly the identity
    ring2 = ring_for(2, 2, 1)
    m2 = OreMatrix.identity(ring2, 2).row_swap_signed(0, 1).row_swap_signed(0, 1)
    assert m2 == OreMatrix.identity(ring2, 2)


def test_row_swap_signed_errors():
    ring = ring_for(5, 1, 0)
    m = OreMatrix.identity(ring, 2)
    with pytest.raises(IndexOutOfRange):
        m.row_swap_signed(1, 1)


def test_triangularize_diagonal_input_unchanged():
    ring = ring_for(3, 2, 1)
    m = OreMatrix(
        ring,
        [
            [ring.x(), ring.zero(), ring.zero()],
            [ring.zero(), ring.one(), ring.zero()],
            [ring.zero(), ring.zero(), ring.x(2)],
        ],
    )
    assert triangularize_with_log(m)[0] == m


def test_triangularize_euclidean_example():
    # [[x, 0], [1, x]]: degree 2 and nonzero regardless of pivoting
    for ring in (ring_for(5, 1, 0), ring_for(2, 2, 1)):
        m = OreMatrix(ring, [[ring.x(), ring.zero()], [ring.one(), ring.x()]])
        for rule in ("min_degree", "first_nonzero", "random"):
            d = dieudonne_det(m, rule=rule)
            assert not d.is_zero and d.degree == 2


def test_triangularize_zero_column():
    ring = ring_for(5, 1, 0)
    m = OreMatrix(ring, [[ring.zero(), ring.x()], [ring.zero(), ring.one()]])
    tri = triangularize_with_log(m)[0]
    assert tri.rows[0][0].is_zero or tri.rows[1][1].is_zero
    assert dieudonne_det(m).is_zero


def test_det_diag_examples():
    ring = ring_for(3, 2, 1)
    d = ring.x() + 1
    m = OreMatrix(
        ring,
        [
            [ring.one(), ring.zero(), ring.zero()],
            [ring.zero(), ring.one(), ring.zero()],
            [ring.zero(), ring.zero(), d],
        ],
    )
    assert dieudonne_det(m).rep == d
    m2 = OreMatrix(ring, [[ring.x(), ring.zero()], [ring.zero(), ring.x()]])
    assert dieudonne_det(m2).rep == ring.x(2)
    # 1 x 1
    m3 = OreMatrix(ring, [[d]])
    assert dieudonne_det(m3).rep == d


def test_det_identical_rows_vanish():
    ring = ring_for(3, 2, 1)
    m = OreMatrix(ring, [[ring.x(), ring.x()], [ring.x(), ring.x()]])
    res = dieudonne_det(m)
    assert res.is_zero and res.rep.is_zero


def test_det_degree_is_diagonal_degree_sum():
    ring = ring_for(3, 2, 1)
    rng = random.Random(1)
    for _ in range(50):
        m = rand_matrix(ring, rng, rng.randrange(1, 5))
        tri, _ = triangularize_with_log(m)
        d = dieudonne_det(m)
        if not d.is_zero:
            assert d.degree == sum(tri.rows[i][i].degree for i in range(m.n))


def test_replay_op_log():
    ring = ring_for(3, 2, 1)
    rng = random.Random(2)
    for _ in range(40):
        m = rand_matrix(ring, rng, rng.randrange(1, 5))
        for rule in PIVOT_RULES:
            tri, ops = triangularize_with_log(m, rule=rule, seed=3)
            assert apply_op_log(m, ops) == tri
            for i in range(m.n):
                for j in range(i):
                    assert tri.rows[i][j].is_zero


def test_pivot_rule_invariance():
    ring = ring_for(3, 2, 1)
    rng = random.Random(3)
    for seed in range(30):
        m = rand_matrix(ring, rng, rng.randrange(1, 6))
        dets = [
            dieudonne_det(m, rule="min_degree"),
            dieudonne_det(m, rule="first_nonzero"),
            dieudonne_det(m, rule="random", seed=seed),
        ]
        assert len({d.is_zero for d in dets}) == 1
        assert len({d.degree for d in dets}) == 1


def test_unknown_pivot_rule_rejected_on_every_input():
    # a 1x1 or already-triangular matrix never picks a pivot; the rule is
    # still checked before any work
    ring = ring_for(5, 1, 0)
    matrices = [
        OreMatrix(ring, [[ring.x()]]),
        OreMatrix(ring, [[ring.x(), ring.one()], [ring.zero(), ring.x()]]),
        rand_matrix(ring, random.Random(0), 3),
    ]
    for m in matrices:
        with pytest.raises(RingMismatch, match="unknown pivot rule 'bogus'"):
            triangularize_with_log(m, rule="bogus")
    bring = bivar_for(5, 1, 0, 0)
    with pytest.raises(RingMismatch, match="unknown pivot rule"):
        res_x2_direct(bring.x2() - bring.x1(), bring.x1() + 1, rule="bogus")


def test_commutative_case_matches_classical_determinant():
    ring = ring_for(7, 1, 0)
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(1, 5)
        m = rand_matrix(ring, rng, n)
        d = dieudonne_det(m)
        classical = det_poly_matrix(
            [[uni_to_list(e) for e in row] for row in m.rows], 7
        )
        rep = uni_to_list(d.rep)
        neg = [(-c) % 7 for c in rep]
        assert rep == classical or neg == classical


def test_surrogates_equal_verdicts():
    ring = ring_for(7, 1, 0)
    rng = random.Random(5)
    m = rand_matrix(ring, rng, 3)
    d1 = dieudonne_det(m, rule="min_degree")
    d2 = dieudonne_det(m, rule="first_nonzero")
    v = surrogates_equal(d1, d2)
    assert v.is_zero_agree and v.degree_agree and v.agree
    zero = dieudonne_det(OreMatrix(ring, [[ring.zero()]]))
    one = dieudonne_det(OreMatrix(ring, [[ring.one()]]))
    assert not surrogates_equal(zero, one).agree


def test_scalar_row_multiple_keeps_surrogates():
    # multiplying one row by a nonzero scalar cannot change degree or
    # vanishing; commutatively the representative scales exactly
    ring = ring_for(7, 1, 0)
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randrange(1, 4)
        m = rand_matrix(ring, rng, n)
        u = ring.constant(rng.randrange(1, 7))
        i = rng.randrange(n)
        rows = [list(r) for r in m.rows]
        rows[i] = [u * e for e in rows[i]]
        scaled = OreMatrix(ring, rows)
        d, ds = dieudonne_det(m), dieudonne_det(scaled)
        assert d.is_zero == ds.is_zero and d.degree == ds.degree
        if not d.is_zero:
            assert ds.rep == u * d.rep or ds.rep == -(u * d.rep)


def test_op_log_serializes_to_json():
    ring = ring_for(3, 2, 1)
    rng = random.Random(7)
    m = rand_matrix(ring, rng, 3)
    d = dieudonne_det(m)
    payload = json.dumps(d.to_jsonable())
    assert "op_log" in payload


# -- packed rows against the OrePoly-level reference ---------------------------

# (p, m, backend): p = 2 and odd p, every backend's kernel loop, and m > 1
# so that sigma can be a nontrivial Frobenius power
REFERENCE_FIELDS = (
    (2, 1, "table"),
    (2, 3, "table"),
    (2, 3, "bits"),
    (3, 2, "table"),
    (3, 2, "poly"),
    (5, 1, "table"),
    (7, 2, "table"),
)


@cache
def _reference_ring(p, m, backend, e):
    ctx = FieldCtx(p, m, backend=backend)
    return OreRing(ctx, Automorphism(ctx, e))


@st.composite
def reference_matrices(draw):
    """A square matrix of size 1-6 with entries of degree <= 3, reshaped to
    have a zero column, a row that is a left multiple of another (singular),
    or rows that repeat entry objects the way Sylvester rows do."""
    p, m, backend = draw(st.sampled_from(REFERENCE_FIELDS))
    ring = _reference_ring(p, m, backend, draw(st.integers(0, m - 1)))
    n = draw(st.integers(1, 6))
    entry = st.lists(st.integers(0, ring.ctx.q - 1), max_size=4).map(ring.from_packed)
    row = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    shape = draw(st.sampled_from(("plain", "zero_column", "singular", "repeats")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if shape == "zero_column":
        for row in rows:
            row[i] = ring.zero()
    elif shape == "singular" and i != j:
        q = draw(entry)
        rows[j] = [q * a for a in rows[i]]
    elif shape == "repeats" and i != j:
        rows[j] = rows[i][1:] + [ring.zero()]
    return OreMatrix(ring, rows)


def _fresh_copy(matrix):
    """The same matrix over new entry objects (so no twist memo is shared
    with the original), repeated objects still repeated."""
    new = {}
    rows = [
        [new.setdefault(id(a), matrix.ring.from_packed(a.coeffs)) for a in row]
        for row in matrix.rows
    ]
    return OreMatrix(matrix.ring, rows)


@pytest.mark.parametrize("rule", PIVOT_RULES)
@settings(max_examples=150, deadline=None, database=None)
@given(matrix=reference_matrices(), seed=st.integers(0, 5))
def test_triangularize_equals_reference(rule, matrix, seed):
    expected = triangularize_reference(_fresh_copy(matrix), rule=rule, seed=seed)
    assert triangularize_with_log(matrix, rule=rule, seed=seed) == expected
