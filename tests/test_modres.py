"""The evaluation/interpolation pipeline and its plan machinery."""

import dataclasses
import functools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oreelim import (
    AddMulOp,
    Automorphism,
    BadEvaluation,
    BivarRing,
    BothConstant,
    CoefficientOutsideBaseField,
    ModularPlan,
    PlanFailure,
    RingMismatch,
    SingularMooreSystem,
    ZeroPolynomial,
    check_bad_eval,
    embed_uni,
    extend_field,
    field_new,
    make_rings,
    partial_evaluations,
    plan_modular,
    res_x2_direct,
    res_x2_modular,
)
from oreelim import modres
from oreelim.field import FieldCtx
from oreelim.skewdet import PIVOT_RULES
from oracles import (
    bivar_to_lists,
    classical_resultant,
    point_actions,
    point_bad_eval,
    point_chain,
    recorded_elimination_recover,
    sigma_apply,
    solve_dense,
    uni_to_list,
    working_field_triangularization,
)
from support import bivar_for, rand_bivar, rand_bivar_exact, rand_orepoly_exact


def test_plan_no_extension_when_bound_small():
    ring = bivar_for(2, 2, 1, 1)
    # coefficients constant in x1 except one linear term: bound = 1
    f = ring.poly([ring.inner.poly([0, 1]), ring.inner.one()])  # x1 + x2
    g = ring.poly([ring.inner.one(), ring.inner.one()])
    plan = plan_modular(f, g)
    assert plan.degree_bound == 1
    assert plan.work_ctx == ring.ctx
    assert [pt.val for pt in plan.points] == [1, 2]


def test_plan_extends_beyond_bound():
    ring = bivar_for(2, 2, 1, 1)
    # f: n=1 with inner degree 1; g: m=1 with inner degree 2 -> D = 3
    f = ring.poly([ring.inner.poly([0, 1]), ring.inner.one()])
    g = ring.poly([ring.inner.poly([0, 0, 1]), ring.inner.one()])
    plan = plan_modular(f, g)
    assert plan.degree_bound == 3
    assert plan.work_ctx.m == 4
    assert len(plan.points) == 4


def test_plan_constant_coefficients_full_basis():
    ring = bivar_for(2, 2, 1, 1)
    f = ring.poly([1, 1])
    g = ring.poly([ring.ctx.from_coords([0, 1]), ring.ctx.one])
    plan = plan_modular(f, g)
    assert plan.degree_bound == 0
    assert len(plan.points) == ring.ctx.m


def test_plan_rejects_constant_inputs():
    ring = bivar_for(2, 2, 1, 1)
    with pytest.raises(PlanFailure):
        plan_modular(ring.constant(1), ring.x2())


def test_plan_rejects_malformed_inputs():
    ring = bivar_for(2, 2, 1, 1)
    with pytest.raises(RingMismatch):
        plan_modular(ring.inner.x(), ring.x2())
    with pytest.raises(RingMismatch):
        plan_modular(ring.x2(), bivar_for(2, 2, 1, 0).x2())
    with pytest.raises(ZeroPolynomial):
        plan_modular(ring.zero(), ring.x2())


def test_plan_respects_sigma_order():
    # sigma1 = Frobenius(2) on GF(2^4) has order 2; a bound of 2 needs a
    # working field whose sigma1-order exceeds it, not just M > D
    ring = bivar_for(2, 4, 2, 1)
    f = ring.poly([ring.inner.poly([0, 1]), ring.inner.one()])
    g = ring.poly([ring.inner.poly([0, 1]), ring.inner.one()])
    plan = plan_modular(f, g)
    d = plan.degree_bound
    m_work = plan.work_ctx.m
    order = m_work // __import__("math").gcd(2, m_work)
    assert order > d >= 2


def test_check_bad_eval_structurally_false():
    ring = bivar_for(2, 8, 1, 1)
    rng = random.Random(0)
    f = rand_bivar(ring, rng, 2, 2, min_d2=1)
    g = rand_bivar(ring, rng, 2, 2, min_d2=1)
    plan = plan_modular(f, g)
    assert not check_bad_eval(f, plan)
    assert not check_bad_eval(g, plan)
    const_lead = ring.poly([ring.inner.x(), ring.inner.one()])
    assert not check_bad_eval(const_lead, plan)
    # a plug-in plan: its D + 1 points outnumber the leading coefficient's roots
    ring7 = bivar_for(7, 1, 0, 0)
    f7 = rand_bivar(ring7, rng, 2, 2, min_d2=1)
    g7 = rand_bivar(ring7, rng, 2, 2, min_d2=1)
    plan7 = plan_modular(f7, g7)
    assert plan7.mode == "plugin"
    assert not check_bad_eval(f7, plan7)
    assert not check_bad_eval(g7, plan7)


def collision_plan():
    """A hand-built Frobenius plan over GF(2^4) itself, with D = 4 = M, and
    an input whose leading coefficient x1^4 - 1 acts there as sigma^4 - id,
    the zero map."""
    ctx = field_new(2, 4)
    ring = bivar_for(2, 4, 1, 1)
    _, emb = extend_field(ctx, 4)
    plan = ModularPlan(
        base_ring=ring,
        work_ring=ring,
        embedding=emb,
        points=tuple(ctx.prime_basis()),
        degree_bound=4,
    )
    return plan, ring.poly([ring.inner.one(), ring.inner.x(4) - 1])


def test_check_bad_eval_flags_artificial_collision():
    # over a plan whose working field is the input field itself, the formal
    # polynomial x1^m - 1 acts as sigma^m - id = 0 on GF(p^m)
    plan, f_bad = collision_plan()
    assert check_bad_eval(f_bad, plan)
    assert check_bad_eval(plan.base_ring.zero(), plan)


def test_check_bad_eval_flags_plugin_roots():
    # plug-in regime over GF(7): a leading coefficient vanishing at every
    # plan point evaluates to zero there, so the evaluation is bad
    ctx = field_new(7, 1)
    ring = bivar_for(7, 1, 0, 0)
    _, emb = extend_field(ctx, 1)
    plan = ModularPlan(
        base_ring=ring,
        work_ring=ring,
        embedding=emb,
        points=tuple(ctx.elem(v) for v in range(3)),
        degree_bound=2,
    )
    assert plan.mode == "plugin"
    x1 = ring.inner.x()
    roots = x1 * (x1 - 1) * (x1 - 2)
    assert check_bad_eval(ring.poly([ring.inner.one(), roots]), plan)
    assert not check_bad_eval(ring.poly([ring.inner.one(), roots + 1]), plan)


# (p, m, e1, D) of Frobenius plans, one per kind of batch: GF(2^8) ->
# GF(2^32) (bits), GF(2^4) -> GF(2^16) (table), GF(3^4) -> GF(3^16) (poly),
# GF(5^9) -> GF(5^27) with sigma1 = Frobenius^2, and GF(251^2) -> GF(251^4),
# whose large p makes the widest slots per digit
BATCH_SHAPES = [(2, 8, 1, 24), (2, 4, 1, 13), (3, 4, 1, 12), (5, 9, 2, 10), (251, 2, 1, 3)]


@pytest.mark.parametrize("shape", BATCH_SHAPES + ["collision"], ids=str)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_chain_equals_point_chain(shape, seed):
    # the chain and check_bad_eval evaluate every plan point at once, on one
    # FieldBatch; the former per-point chain is the reference, on random
    # diagonals (zero entries and constants included) and random inputs.
    # x1^M - 1 acts as sigma1^M - id = 0 on GF(p^M), a bad evaluation on
    # every Frobenius plan.
    if shape == "collision":
        plan, f_bad = collision_plan()
        ring = plan.base_ring
    else:
        p, m, e1, bound = shape
        ring = bivar_for(p, m, e1, e1)
        plan = modres._plan(ring, ring.ctx.backend, bound)
        f_bad = ring.zero()
    rng = random.Random(seed)
    work = plan.work_ring.inner
    q = plan.work_ctx.q
    diag = [
        work.from_packed([rng.randrange(q) for _ in range(rng.randrange(4))])
        for _ in range(rng.randrange(1, 4))
    ]
    evals = modres.chain_evaluate(diag, plan)
    want = point_chain(diag, plan)
    assert [pe.point for pe in evals] == list(plan.points)
    assert [pe.value.val for pe in evals] == want
    assert evals.packed == plan.pack(want)
    f = rand_bivar(ring, rng, 2, 3, min_d2=1)
    collapsing = ring.poly([ring.inner.one(), ring.inner.x(plan.work_ctx.m) - 1])
    for h in (f, f_bad, collapsing):
        assert check_bad_eval(h, plan) == point_bad_eval(h, plan)


def test_modular_equals_direct_frobenius():
    ring = bivar_for(2, 8, 1, 1)
    rng = random.Random(1)
    for _ in range(10):
        f = rand_bivar(ring, rng, 2, 2, min_d2=1)
        g = rand_bivar(ring, rng, 2, 2, min_d2=1)
        assert res_x2_modular(f, g).rep == res_x2_direct(f, g).rep


def test_modular_identity_sigmas_match_classical():
    ring = bivar_for(7, 1, 0, 0)
    rng = random.Random(2)
    for _ in range(25):
        f = rand_bivar(ring, rng, 2, 2, min_d2=1)
        g = rand_bivar(ring, rng, 2, 2, min_d2=1)
        d = res_x2_modular(f, g)
        oracle = classical_resultant(bivar_to_lists(f), bivar_to_lists(g), 7)
        if d.is_zero:
            assert oracle == []
            continue
        rep = uni_to_list(d.rep)
        assert rep == oracle or [(-c) % 7 for c in rep] == oracle


def test_modular_common_right_factor_vanishes():
    ring = bivar_for(2, 4, 1, 1)
    rng = random.Random(3)
    hits = 0
    while hits < 10:
        h = rand_bivar_exact(ring, rng, 1, 1)
        u = rand_bivar(ring, rng, 1, 1)
        v = rand_bivar(ring, rng, 1, 1)
        f, g = u * h, v * h
        if f.is_zero or g.is_zero or f.degree < 1 or g.degree < 1:
            continue
        assert res_x2_modular(f, g).is_zero
        hits += 1


def test_partial_evaluations_match_direct_rep():
    # the chain value at each point equals the operator evaluation of the
    # embedded direct representative
    ring = bivar_for(2, 8, 1, 1)
    rng = random.Random(4)
    for _ in range(5):
        f = rand_bivar(ring, rng, 2, 2, min_d2=1)
        g = rand_bivar(ring, rng, 2, 2, min_d2=1)
        plan, evals = partial_evaluations(f, g)
        rep_w = embed_uni(res_x2_direct(f, g).rep, plan)
        for pe in evals:
            assert sigma_apply(rep_w, pe.point) == pe.value


@pytest.mark.parametrize("d1, work_m", [(2, 2), (1, 1)])
def test_plugin_chain_values_match_direct_rep(d1, work_m):
    # sigma = (0, 0) over GF(7): D = 2 * 2 * d1 is 8 (q < D + 1, so the
    # points need GF(7^2)) or 4 (the points lie in GF(7) itself); the chain
    # value at each point is the embedded direct representative's value there
    ring = bivar_for(7, 1, 0, 0)
    rng = random.Random(15)
    for _ in range(5):
        f, g = full_pair(ring, rng, 2, d1)
        plan, evals = partial_evaluations(f, g)
        assert plan.mode == "plugin"
        assert (plan.degree_bound, plan.work_ctx.m) == (4 * d1, work_m)
        rep_w = embed_uni(res_x2_direct(f, g).rep, plan)
        assert [pe.point for pe in evals] == list(plan.points)
        for pe in evals:
            acc = plan.work_ctx.zero
            for i in range(rep_w.degree, -1, -1):
                acc = acc * pe.point + rep_w.coeff(i)
            assert acc == pe.value


@pytest.mark.parametrize("p, m, e1", [(2, 4, 1), (7, 1, 0)])
def test_partial_evaluations_vanish_on_common_right_factor(p, m, e1):
    # a common right factor leaves a zero on the diagonal; the chain then
    # evaluates to zero at every plan point, in both regimes
    ring = bivar_for(p, m, e1, e1)
    rng = random.Random(11)
    hits = 0
    while hits < 5:
        h = rand_bivar_exact(ring, rng, 1, 1)
        f = rand_bivar(ring, rng, 1, 1) * h
        g = rand_bivar(ring, rng, 1, 1) * h
        if f.is_zero or g.is_zero or f.degree < 1 or g.degree < 1:
            continue
        plan, evals = partial_evaluations(f, g)
        got, diag, _ = modres._pipeline(f, g, "min_degree", 0)
        assert got is plan
        assert any(d.is_zero for d in diag)
        assert [pe.point for pe in evals] == list(plan.points)
        assert all(pe.value == plan.work_ctx.zero for pe in evals)
        hits += 1


def test_moore_recovery_reproduces_chain_values():
    ring = bivar_for(2, 8, 1, 1)
    rng = random.Random(5)
    f = rand_bivar(ring, rng, 2, 2, min_d2=1)
    g = rand_bivar(ring, rng, 2, 2, min_d2=1)
    plan, evals = partial_evaluations(f, g)
    det = res_x2_modular(f, g)
    rep_w = embed_uni(det.rep, plan)
    for pe in evals:
        assert sigma_apply(rep_w, pe.point) == pe.value


def test_plan_serializes_to_json():
    ring = bivar_for(2, 2, 1, 1)
    f = ring.poly([ring.inner.poly([0, 1]), ring.inner.one()])
    plan = plan_modular(f, f)
    payload = json.loads(json.dumps(plan.to_jsonable()))
    assert payload["mode"] == "frobenius"
    assert payload["degree_bound"] == plan.degree_bound


def full_pair(ring, rng, d2, d1):
    """Two inputs of x2-degree d2 whose x2-coefficients all have x1-degree
    d1, so the degree bound is 2 * d2 * d1."""
    return tuple(
        ring.poly([rand_orepoly_exact(ring.inner, rng, d1) for _ in range(d2 + 1)])
        for _ in range(2)
    )


@pytest.mark.parametrize(
    "p, m, e1, e2", [(2, 2, 1, 1), (2, 8, 1, 1), (3, 4, 1, 2), (7, 1, 0, 0)]
)
def test_base_diagonal_equals_working_field_triangularization(p, m, e1, e2):
    # the embedding commutes with Frobenius and the pivot rules see only
    # degrees, zero-ness and their seeded rng: the base-field run must mirror
    # the working-field run step for step
    ring = bivar_for(p, m, e1, e2)
    for rule in PIVOT_RULES:
        for seed in range(3):
            rng = random.Random(f"{p}^{m}/{rule}/{seed}")
            f = rand_bivar(ring, rng, 2, 2, min_d2=1)
            g = rand_bivar(ring, rng, 2, 2, min_d2=1)
            plan, diag, ops = modres._pipeline(f, g, rule, seed)
            assert plan is plan_modular(f, g)
            want_diag, want_ops = working_field_triangularization(
                f, g, plan, rule, seed
            )
            assert diag == want_diag
            assert len(ops) == len(want_ops)
            for op, want in zip(ops, want_ops):
                assert type(op) is type(want)
                if isinstance(op, AddMulOp):
                    assert (op.src, op.dst) == (want.src, want.dst)
                    assert embed_uni(op.q, plan) == want.q
                else:
                    assert (op.i, op.j) == (want.i, want.j)


def test_modular_op_log_equals_direct():
    ring = bivar_for(3, 4, 1, 2)
    rng = random.Random(8)
    for rule in PIVOT_RULES:
        f = rand_bivar(ring, rng, 2, 2, min_d2=1)
        g = rand_bivar(ring, rng, 2, 2, min_d2=1)
        modular = res_x2_modular(f, g, rule=rule, seed=5)
        assert modular.op_log == res_x2_direct(f, g, rule=rule, seed=5).op_log


@pytest.fixture
def builds(monkeypatch):
    """A fresh plan memo, and a list that grows by one per recovery map
    built."""
    monkeypatch.setattr(modres, "_plan", functools.cache(modres._plan.__wrapped__))
    built = []

    def counting(ctx, rows):
        built.append(rows)
        return matrix_columns(ctx, rows)

    matrix_columns = FieldCtx._matrix_columns
    monkeypatch.setattr(FieldCtx, "_matrix_columns", counting)
    return built


def system_rows(plan):
    """The row [S^i(start)], i = 0..D, at each plan point, by FieldElem
    arithmetic: sigma1-powers of the point, or powers of the point."""
    ctx, e1 = plan.work_ctx, plan.work_ring.sigma1.e
    rows = []
    for pt in plan.points:
        if e1:
            sigma, cur = Automorphism(ctx, e1), pt
            row = [cur]
            for _ in range(plan.degree_bound):
                cur = sigma(cur)
                row.append(cur)
        else:
            row = [pt**i for i in range(plan.degree_bound + 1)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("p, m, e1", [(2, 8, 1), (7, 1, 0)])
def test_cached_recovery_equals_solve_exact(p, m, e1, builds):
    ring = bivar_for(p, m, e1, e1)
    rng = random.Random(9)
    for _ in range(3):
        f, g = full_pair(ring, rng, 2, 2)
        plan, evals = partial_evaluations(f, g)
        ctx = plan.work_ctx
        rows = system_rows(plan)
        rhs = [pe.value for pe in evals]
        want = solve_dense(rows, rhs)
        # the first call builds the plan's recovery map, later ones apply it
        assert plan.recover(plan.pack([b.val for b in rhs])) == [x.val for x in want]
        for row, b in zip(rows, rhs):
            assert sum((a * x for a, x in zip(row, want)), ctx.zero) == b
    assert len(builds) == 1


def test_perturbed_chain_value_is_inconsistent():
    # with M > D + 1 points every chain value is checked: a linearized
    # polynomial of sigma-degree <= D cannot vanish on M - 1 basis elements
    ring = bivar_for(2, 8, 1, 1)
    f, g = full_pair(ring, random.Random(10), 1, 2)
    plan, evals = partial_evaluations(f, g)
    assert len(evals) > plan.degree_bound + 1
    one = plan.work_ctx.one
    for k, pe in enumerate(evals):
        bad = [e.value for e in evals]
        bad[k] = pe.value + one
        with pytest.raises(SingularMooreSystem):
            plan.recover(plan.pack([b.val for b in bad]))


def test_recovery_cache_key_separates_plan_shapes(builds):
    # D = 10 and D = 12 over GF(2^8) with sigma1 = Frobenius share the working
    # field GF(2^16) and its power basis; only the degree bound tells the
    # two Moore systems apart, so they are two plans with one recovery map
    # each.  A hand-built plan with the basis reversed differs from the first
    # shape in its points alone and builds its own.
    ring = bivar_for(2, 8, 1, 1)
    rng = random.Random(11)
    pairs = [full_pair(ring, rng, 1, d1) for d1 in (5, 5, 6)]
    plans = [plan_modular(f, g) for f, g in pairs]
    assert [pl.degree_bound for pl in plans] == [10, 10, 12]
    assert plans[0] is plans[1] and plans[2] is not plans[0]
    assert len({(pl.work_ctx, pl.points) for pl in plans}) == 1
    for f, g in pairs:
        assert res_x2_modular(f, g).rep == res_x2_direct(f, g).rep
    assert len(builds) == 2
    _, evals = partial_evaluations(*pairs[0])
    values = [pe.value.val for pe in evals]
    flipped = dataclasses.replace(plans[0], points=plans[0].points[::-1])
    assert flipped.recover(flipped.pack(values[::-1])) == plans[0].recover(
        plans[0].pack(values)
    )
    assert len(builds) == 3


# (p, m, e1, D): input field GF(p^m), sigma1 = Frobenius^e1, degree bound D
RECOVERY_SHAPES = [
    (2, 8, 1, 24),  # GF(2^8) -> GF(2^32), the modular-char2 shape
    (3, 4, 1, 12),  # GF(3^4) -> GF(3^16), the modular-odd shape
    (5, 9, 2, 10),  # GF(5^9) -> GF(5^27), sigma1 = Frobenius^2
    (7, 1, 0, 40),  # GF(7) -> GF(7^2), plug-in, the modular-plugin shape
    (2, 4, 0, 20),  # GF(2^4) -> GF(2^8), plug-in
    (1000003, 2, 0, 6),  # GF(1000003^2), plug-in: slots wider than 40 bits
]


def plan_and_values(p, m, e1, bound):
    """The plan of one shape, random working-field coefficients r_0..r_D and
    the chain values sum(r_i * S^i(start)) at its points."""
    ring = bivar_for(p, m, e1, e1)
    plan = modres._plan(ring, ring.ctx.backend, bound)
    ctx = plan.work_ctx
    rng = random.Random(f"{p}^{m}/{e1}/{bound}")
    coeffs = [rng.randrange(ctx.q) for _ in range(bound + 1)]
    values = [
        modres.apply_formal(ctx, step, arg, coeffs, start)
        for step, arg, start in point_actions(plan)
    ]
    return plan, coeffs, values


@pytest.mark.parametrize("p, m, e1, bound", RECOVERY_SHAPES)
def test_recovery_equals_recorded_elimination_and_dense_solve(p, m, e1, bound):
    plan, coeffs, values = plan_and_values(p, m, e1, bound)
    ctx = plan.work_ctx
    assert plan.mode == ("frobenius" if e1 else "plugin")
    assert plan.recover(plan.pack(values)) == coeffs
    assert recorded_elimination_recover(plan, values) == coeffs
    dense = solve_dense(system_rows(plan), [ctx.elem(v) for v in values])
    assert [x.val for x in dense] == coeffs


@pytest.mark.parametrize("p, m, e1, bound", [s for s in RECOVERY_SHAPES if s[2]])
def test_one_digit_perturbation_is_inconsistent(p, m, e1, bound):
    # sigma1 = Frobenius^e1 with g = gcd(e1, M): a linearized polynomial of
    # sigma1-degree <= D has a kernel of GF(p)-dimension at most g * D < M - 1,
    # so it cannot vanish on M - 1 basis elements and take a nonzero value
    # on the last: a change of any one digit of any one chain value leaves
    # the Moore system inconsistent
    plan, _, values = plan_and_values(p, m, e1, bound)
    ctx = plan.work_ctx
    for k in range(len(values)):
        bad = list(values)
        bad[k] = ctx.add(bad[k], (1 + k % (p - 1)) * p ** (k * 7 % ctx.m))
        with pytest.raises(SingularMooreSystem):
            plan.recover(plan.pack(bad))
        if k == 0:
            with pytest.raises(SingularMooreSystem):
                recorded_elimination_recover(plan, bad)


@pytest.mark.parametrize(
    "ctx",
    [
        field_new(2, 4),
        field_new(2, 32),
        field_new(3, 16),
        FieldCtx(3, 4, modulus=(1, 1, 1, 1, 1)),
        field_new(7, 1),
        field_new(7, 2),
        field_new(1000003, 2),
    ],
    ids=str,
)
def test_trace_dual_basis(ctx):
    # Tr(b_j* * t^k) = delta_jk, the trace the sum of all Frobenius images
    dual = modres._trace_dual_basis(ctx)
    t = ctx.elem(ctx.t_packed)
    for j, b in enumerate(dual):
        for k in range(ctx.m):
            x = ctx.elem(b) * t**k
            trace = sum((Automorphism(ctx, e)(x) for e in range(ctx.m)), ctx.zero)
            assert trace == (1 if j == k else 0)


def test_frobenius_plan_off_the_power_basis_is_refused():
    # a hand-built Frobenius plan recovers only over the power basis, in any
    # order, and with sigma1^0..sigma1^D distinct; anything else is a typed
    # error on its first recovery, never a wrong answer
    plan, _, values = plan_and_values(2, 8, 1, 24)
    basis = plan.points
    one = plan.work_ctx.one
    for points in (
        basis[:1] + tuple(b + one for b in basis[1:]),  # another basis
        basis[:-1],  # too few points
        basis[:-1] + basis[:1],  # a repeated point
    ):
        bad = dataclasses.replace(plan, points=points)
        with pytest.raises(PlanFailure):
            bad.recover(bad.pack(values[: len(points)]))
    wide = dataclasses.replace(plan, degree_bound=len(basis))  # sigma1^M = id
    with pytest.raises(SingularMooreSystem):
        wide.recover(wide.pack(values))


def test_plugin_plan_with_extra_points_checks_them():
    # with more points than D + 1 the Lagrange coefficients past D are the
    # leftovers: zero on consistent values, and a repeated point is refused
    plan, coeffs, _ = plan_and_values(7, 1, 0, 40)
    ctx = plan.work_ctx
    more = dataclasses.replace(plan, points=plan.points + (ctx.elem(41), ctx.elem(42)))
    values = [
        modres.apply_formal(ctx, step, arg, coeffs, start)
        for step, arg, start in point_actions(more)
    ]
    assert more.recover(more.pack(values)) == coeffs
    values[-1] = ctx.add(values[-1], 1)
    with pytest.raises(SingularMooreSystem):
        more.recover(more.pack(values))
    repeated = dataclasses.replace(plan, points=plan.points[:-1] + plan.points[:1])
    with pytest.raises(SingularMooreSystem):
        repeated.recover(repeated.pack(values[: len(plan.points)]))


def test_memo_keys_respect_the_backend():
    # contexts compare by (p, m, modulus); the memos of extend_field and of
    # the plan must not answer one backend's call with another's context
    table = field_new(2, 4)
    f, g = full_pair(bivar_for(2, 4, 1, 1), random.Random(17), 1, 1)
    for backend in ("table", "bits", "poly"):
        ctx = table if backend == "table" else FieldCtx(2, 4, backend=backend)
        assert ctx == table and ctx.backend == backend
        assert extend_field(ctx, 4)[0] is ctx
        ring = BivarRing(ctx, Automorphism(ctx, 1), Automorphism(ctx, 1))
        fb, gb = (
            ring.poly([ring.inner.from_packed(c.coeffs) for c in h.coeffs])
            for h in (f, g)
        )
        plan = plan_modular(fb, gb)
        assert plan.degree_bound == 2
        assert plan.work_ctx.backend == plan.base_ring.ctx.backend == backend
        assert res_x2_modular(fb, gb).rep.coeffs == res_x2_direct(f, g).rep.coeffs


def test_recovered_coefficient_outside_base_field_raises(monkeypatch):
    ring = bivar_for(2, 8, 1, 1)
    f, g = full_pair(ring, random.Random(12), 1, 5)
    plan = plan_modular(f, g)
    emb = plan.embedding
    outside = next(v for v in range(plan.work_ctx.q) if emb.inverse_packed(v) is None)
    monkeypatch.setattr(ModularPlan, "recover", lambda plan, values: [outside])
    with pytest.raises(CoefficientOutsideBaseField) as info:
        res_x2_modular(f, g)
    assert info.value.code == "coefficient-outside-base-field"
    assert info.value.exit_code == 5


def test_route_asserts_the_degree_bound_without_evaluating(monkeypatch):
    # check_bad_eval is off the route: a plan from plan_modular bounds both
    # leading coefficients' x1-degrees, and only a plan whose D is too small
    # raises BadEvaluation
    def no_eval(f, plan):
        raise AssertionError("check_bad_eval called")

    monkeypatch.setattr(modres, "check_bad_eval", no_eval)
    ring = bivar_for(2, 8, 1, 1)
    f, g = full_pair(ring, random.Random(17), 3, 3)
    assert res_x2_modular(f, g).rep == res_x2_direct(f, g).rep
    small = modres._plan(f.ring, f.ring.ctx.backend, 2)
    monkeypatch.setattr(modres, "plan_modular", lambda f, g: small)
    with pytest.raises(BadEvaluation) as info:
        res_x2_modular(f, g)
    assert info.value.code == "bad-evaluation"


@pytest.mark.parametrize("route", [res_x2_modular, partial_evaluations])
def test_unknown_rule_fails_before_planning(route, monkeypatch):
    # the pivot rule is checked by the triangularization, which runs before
    # any working field is built
    def no_plan(f, g):
        raise AssertionError("plan_modular called")

    monkeypatch.setattr(modres, "plan_modular", no_plan)
    ring = bivar_for(2, 8, 1, 1)
    f, g = full_pair(ring, random.Random(16), 3, 3)
    with pytest.raises(RingMismatch, match="unknown pivot rule"):
        route(f, g, rule="bogus")


def test_constant_pair_is_both_constant_on_both_routes():
    ring = bivar_for(5, 1)
    f, g = ring.constant(3), ring.constant(4)
    for route in (res_x2_direct, res_x2_modular, partial_evaluations):
        with pytest.raises(BothConstant):
            route(f, g)
    # one side constant in x2 still has no modular plan
    with pytest.raises(PlanFailure):
        res_x2_modular(f, ring.x2() + ring.x1())


def test_plugin_plan_keeps_large_prime_modulus():
    """Plug-in regime with M = m over a large prime and a non-default
    modulus: the working field is the input field itself."""
    ctx = field_new(1000003, 2, modulus=[833821, 723986, 1])
    ring = make_rings(ctx, 0, 0)
    f, g = full_pair(ring, random.Random(14), 1, 2)
    plan = plan_modular(f, g)
    assert plan.work_ctx is ctx
    assert res_x2_modular(f, g).rep == res_x2_direct(f, g).rep


def test_plan_gf5_9_sigma2_finishes():
    """sigma1 = Frobenius^2 on GF(5^9) with D = 10 needs the working field
    GF(5^27); the root of the GF(5^9) modulus in it is found by trace
    splitting rather than by enumerating the 5^9 subfield elements."""
    ring = bivar_for(5, 9, 2, 1)
    f, g = full_pair(ring, random.Random(13), 1, 5)
    plan = plan_modular(f, g)
    work = plan.work_ctx
    assert plan.degree_bound == 10 and (work.p, work.m) == (5, 27)
    root = plan.embedding.root
    value = 0
    for c in reversed(ring.ctx.modulus):
        value = work.add(work.mul(value, root), c)
    assert value == 0
    assert all(root <= work.frob(root, i) for i in range(9))  # least of its orbit
    assert res_x2_modular(f, g).rep == res_x2_direct(f, g).rep
