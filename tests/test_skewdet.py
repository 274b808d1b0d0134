"""Row operations, triangularization, and the Dieudonne determinant."""

import json
import random
from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oreelim import (
    Automorphism,
    EqualRows,
    FieldCtx,
    IndexOutOfRange,
    OreMatrix,
    OreRing,
    RingMismatch,
    apply_op_log,
    dieudonne_det,
    field_new,
    res_x2_direct,
    surrogates_equal,
    sylvester_matrix,
    triangularize_with_log,
)
from oreelim import skewdet
from oreelim.resultant import sylvester_shifts
from oreelim.skewdet import PIVOT_RULES, ShiftMatrix, SwapSignedOp
from oracles import det_poly_matrix, triangularize_reference, uni_to_list
from support import (
    bivar_for,
    rand_bivar_exact,
    rand_orepoly,
    rand_orepoly_exact,
    ring_for,
    untabled,
)


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


@pytest.mark.parametrize("p, m, e", [(3, 2, 1), (2, 4, 1)])  # tuple and byte rows
def test_det_of_the_empty_matrix_is_the_empty_product(p, m, e):
    ring = ring_for(p, m, e)
    empty = OreMatrix(ring, [])
    assert triangularize_with_log(empty) == (empty, ())
    d = dieudonne_det(empty)
    assert (d.rep, d.is_zero, d.degree, d.op_log) == (ring.one(), False, 0, ())


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


def test_op_records_compare_hash_and_print_by_fields():
    ring = ring_for(3, 2, 1)
    q = ring.x() + 1
    add, swap = skewdet.AddMulOp(0, 2, q), skewdet.SwapSignedOp(1, 2)
    assert add == skewdet.AddMulOp(src=0, dst=2, q=ring.x() + 1)
    assert hash(add) == hash(skewdet.AddMulOp(0, 2, ring.x() + 1))
    assert add != skewdet.AddMulOp(2, 0, q) and swap != skewdet.SwapSignedOp(2, 1)
    assert repr(add) == f"AddMulOp(src=0, dst=2, q={q!r})"
    assert repr(swap) == "SwapSignedOp(i=1, j=2)"
    assert add.to_jsonable() == {"op": "addmul", "src": 0, "dst": 2, "q": [1, 1]}
    assert swap.to_jsonable() == {"op": "swap_signed", "i": 1, "j": 2}


# -- packed rows against the OrePoly-level reference ---------------------------

# (p, m, backend): p = 2 and odd p, the log tables and the arithmetic
# outside them, and m > 1 so that sigma can be a nontrivial Frobenius power.
# Fields with byte tables triangularize on byte rows: GF(2^m) up to GF(2^8),
# GF(3^m) up to GF(3^4) with e = 0..3, and GF(p) up to GF(127).  The others
# keep coefficient tuples: GF(2^9), GF(3^5) (q = 243 but m = 5), GF(7^2)
# and GF(131).
BYTE_FIELDS = (
    (2, 1, "table"),
    (2, 3, "table"),
    (2, 3, "bits"),
    (2, 4, "table"),
    (2, 8, "table"),
    (3, 1, "table"),
    (3, 2, "table"),
    (3, 2, "poly"),
    (3, 3, "table"),
    (3, 4, "table"),
    (5, 1, "table"),
    (7, 1, "table"),
    (127, 1, "table"),
)
TUPLE_FIELDS = (
    (2, 9, "table"),
    (3, 5, "table"),
    (3, 5, "poly"),
    (7, 2, "table"),
    (131, 1, "table"),
)
REFERENCE_FIELDS = BYTE_FIELDS + TUPLE_FIELDS


@cache
def _reference_ring(p, m, backend, e):
    ctx = field_new(p, m) if backend == "table" else untabled(p, m)
    assert ctx.backend == backend
    return OreRing(ctx, Automorphism(ctx, e))


@pytest.mark.parametrize("p, m, backend", REFERENCE_FIELDS)
def test_reference_fields_run_both_stores(p, m, backend):
    tables = _reference_ring(p, m, backend, 0).ctx.byte_tables()
    assert (tables is not None) == ((p, m, backend) in BYTE_FIELDS)


@st.composite
def reference_matrices(draw):
    """A shape and a square matrix of size 0-6 with entries of degree <= 3,
    reshaped to have a zero column, a row that is a left multiple of another
    (singular), or rows that repeat entry objects the way Sylvester rows do;
    or, for the shape "outgrow", the 3 x 3 matrix

        [a,       b x^3, 0      ]
        [c x^3,   0,     0      ]
        [0,       d,     f x^3  ]

    for nonzero constants a..f, whose products outgrow the first width of
    the byte rows' row sum under every pivot rule: column 0 leaves an entry
    of degree 6 in row 1, which the constant d then divides."""
    p, m, backend = draw(st.sampled_from(REFERENCE_FIELDS))
    ring = _reference_ring(p, m, backend, draw(st.integers(0, m - 1)))
    shape = draw(
        st.sampled_from(("plain", "zero_column", "singular", "repeats", "outgrow"))
    )
    if shape == "outgrow":
        a, b, c, d, f = (
            ring.from_packed((0,) * k + (draw(st.integers(1, ring.ctx.q - 1)),))
            for k in (0, 3, 3, 0, 3)
        )
        zero = ring.zero()
        return shape, OreMatrix(ring, [[a, b, zero], [c, zero, zero], [zero, d, f]])
    n = draw(st.integers(0, 6))
    entry = st.lists(st.integers(0, ring.ctx.q - 1), max_size=4).map(ring.from_packed)
    row = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    i, j = draw(st.integers(0, max(n - 1, 0))), draw(st.integers(0, max(n - 1, 0)))
    if shape == "zero_column":
        for row in rows:
            row[i] = ring.zero()
    elif shape == "singular" and i != j:
        q = draw(entry)
        rows[j] = [q * a for a in rows[i]]
    elif shape == "repeats" and i != j:
        rows[j] = rows[i][1:] + [ring.zero()]
    return shape, OreMatrix(ring, rows)


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
@given(case=reference_matrices(), seed=st.integers(0, 5))
def test_triangularize_equals_reference(rule, case, seed):
    shape, matrix = case
    expected = triangularize_reference(_fresh_copy(matrix), rule=rule, seed=seed)
    tables = matrix.ring.ctx.byte_tables()
    widths = []  # every width the byte store asks of the row sum

    def adder(nbytes):
        widths.append(nbytes)
        return tables.adder(nbytes)

    spied = tables and tables._replace(adder=adder)
    with mock.patch.object(FieldCtx, "byte_tables", return_value=spied):
        assert triangularize_with_log(matrix, rule=rule, seed=seed) == expected
    if shape == "outgrow" and tables:
        assert max(widths) > widths[0]


def _as_shifts(matrix):
    """The matrix as a `ShiftMatrix`: each row its own base row, shifted 0
    times."""
    return ShiftMatrix(matrix.ring, 0, tuple((row, 1) for row in matrix.rows))


def _final_signs(ops, n):
    """The row signs the signed swaps of an op log leave."""
    signs = [1] * n
    for op in ops:
        if isinstance(op, SwapSignedOp):
            signs[op.i], signs[op.j] = -signs[op.j], signs[op.i]
    return signs


@pytest.mark.parametrize("rule", PIVOT_RULES)
@settings(max_examples=100, deadline=None, database=None)
@given(case=reference_matrices(), seed=st.integers(0, 5))
def test_route_path_gives_the_diagonal_and_op_log_of_the_matrix(rule, case, seed):
    # the routes' input, a ShiftMatrix, is decoded on the diagonal only, rows
    # of sign -1 through the negating decoder; singular matrices included
    _, matrix = case
    tri, ops = triangularize_reference(_fresh_copy(matrix), rule=rule, seed=seed)
    assert triangularize_with_log(matrix, rule=rule, seed=seed) == (tri, ops)
    shifts = _as_shifts(matrix)
    diag, route_ops = triangularize_with_log(shifts, rule=rule, seed=seed)
    assert diag == tuple(tri.rows[i][i] for i in range(matrix.n))
    assert route_ops == ops
    assert dieudonne_det(shifts, rule=rule, seed=seed) == dieudonne_det(
        matrix, rule=rule, seed=seed
    )


# (p, m, e1, e2, deg x2, deg x1): the benchmark's shapes, with full degrees,
# whose Sylvester matrices reach entries of degree ~40 and descents of 20-36
# division passes in one column, far past the small matrices drawn above.
BENCHMARK_SHAPES = (
    (3, 4, 1, 2, 5, 4),
    (2, 8, 1, 1, 4, 3),
    (7, 1, 0, 0, 5, 4),
    (127, 1, 0, 0, 4, 4),
)


@pytest.mark.parametrize("p, m, e1, e2, d2, d1", BENCHMARK_SHAPES)
def test_benchmark_sized_matrices_equal_reference(p, m, e1, e2, d2, d1):
    ring = bivar_for(p, m, e1, e2)
    rng = random.Random(f"benchmark-sized/{p}/{m}")

    def full():  # full x2-degree, and full x1-degree in every coefficient
        coeffs = [rand_orepoly_exact(ring.inner, rng, d1) for _ in range(d2 + 1)]
        return ring.poly(coeffs)

    for _ in range(3):
        matrix = sylvester_matrix(full(), full())
        for rule in PIVOT_RULES:
            expected = triangularize_reference(_fresh_copy(matrix), rule=rule, seed=1)
            assert triangularize_with_log(matrix, rule=rule, seed=1) == expected


@pytest.mark.parametrize("p, m, e1, e2, d2, d1", BENCHMARK_SHAPES)
def test_route_path_equals_the_sylvester_matrix_path(p, m, e1, e2, d2, d1):
    ring = bivar_for(p, m, e1, e2)
    rng = random.Random(f"route-path/{p}/{m}")

    def full():
        coeffs = [rand_orepoly_exact(ring.inner, rng, d1) for _ in range(d2 + 1)]
        return ring.poly(coeffs)

    # two full pairs, and a pair with a common right factor: singular
    h = rand_bivar_exact(ring, rng, 2, 2)
    common = (rand_bivar_exact(ring, rng, 1, 1) * h, rand_bivar_exact(ring, rng, 1, 1) * h)
    negated = 0  # nonzero diagonal entries of rows of sign -1
    for f, g in [(full(), full()), (full(), full()), common]:
        matrix = sylvester_matrix(f, g)
        for rule in PIVOT_RULES:
            tri, ops = triangularize_reference(_fresh_copy(matrix), rule=rule, seed=1)
            assert triangularize_with_log(matrix, rule=rule, seed=1) == (tri, ops)
            diag, route_ops = triangularize_with_log(sylvester_shifts(f, g), rule=rule, seed=1)
            assert diag == tuple(tri.rows[i][i] for i in range(matrix.n))
            assert route_ops == ops
            det = res_x2_direct(f, g, rule=rule, seed=1)
            assert det == dieudonne_det(matrix, rule=rule, seed=1)
            assert det.is_zero == ((f, g) == common)
            signs = _final_signs(ops, matrix.n)
            negated += sum(1 for s, d in zip(signs, diag) if s < 0 and d)
    assert negated or p == 2


def _dropping_row_sum(nbytes):
    """A broken row sum: it returns its first operand and drops the second."""
    return lambda x, y: x


def test_a_division_pass_that_makes_no_progress_raises():
    # with the products dropped, every row stays as it was, and the descent
    # would divide the same entries forever; the elimination loop's check
    # after the pass raises instead
    ring = ring_for(3, 4, 1)
    broken = ring.ctx.byte_tables()._replace(adder=_dropping_row_sum)
    matrix = OreMatrix(
        ring,
        [
            [ring.from_packed((1, 1)), ring.one()],
            [ring.from_packed((2, 0, 1)), ring.x()],
        ],
    )
    with (
        mock.patch.object(FieldCtx, "byte_tables", return_value=broken),
        pytest.raises(AssertionError, match="division pass made no progress"),
    ):
        triangularize_with_log(matrix)


def test_a_route_whose_division_pass_makes_no_progress_raises():
    # the same broken row sum on the direct route, whose rows are built from
    # the x2-shifts: the check stops the descent instead of a loop
    ring = bivar_for(3, 4, 1, 2)
    inner = ring.inner
    f = ring.poly([inner.from_packed((1, 2)), inner.from_packed((0, 1))])
    g = ring.poly([inner.from_packed((5, 0, 1)), inner.from_packed((7, 1))])
    broken = ring.ctx.byte_tables()._replace(adder=_dropping_row_sum)
    with (
        mock.patch.object(FieldCtx, "byte_tables", return_value=broken),
        pytest.raises(AssertionError, match="division pass made no progress"),
    ):
        res_x2_direct(f, g)
