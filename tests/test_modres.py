"""The evaluation/interpolation pipeline and its plan machinery."""

import dataclasses
import functools
import json
import random

import pytest

from oreelim import (
    AddMulOp,
    Automorphism,
    BothConstant,
    CoefficientOutsideBaseField,
    ModularPlan,
    PlanFailure,
    RingMismatch,
    SingularMooreSystem,
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
from oreelim.skewdet import PIVOT_RULES
from oracles import (
    bivar_to_lists,
    classical_resultant,
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


def test_check_bad_eval_flags_artificial_collision():
    # over a plan whose working field is the input field itself, the formal
    # polynomial x1^m - 1 acts as sigma^m - id = 0 on GF(p^m)
    ctx = field_new(2, 4)
    ring = bivar_for(2, 4, 1, 1)
    work, emb = extend_field(ctx, 4)
    plan = ModularPlan(
        base_ring=ring,
        work_ring=ring,
        embedding=emb,
        points=tuple(ctx.prime_basis()),
        degree_bound=4,
    )
    collapsing = ring.inner.x(4) - 1
    f_bad = ring.poly([ring.inner.one(), collapsing])
    assert check_bad_eval(f_bad, plan)


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
    """A fresh plan memo, and a list that grows by one per recovery
    elimination built."""
    monkeypatch.setattr(modres, "_plan", functools.cache(modres._plan.__wrapped__))
    built = []

    def counting(*args):
        built.append(args)
        return eliminate(*args)

    eliminate = modres._eliminate
    monkeypatch.setattr(modres, "_eliminate", counting)
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
        # the first call builds the shape's elimination, later ones replay it
        assert plan.recover([b.val for b in rhs]) == [x.val for x in want]
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
            plan.recover([b.val for b in bad])


def test_recovery_cache_key_separates_plan_shapes(builds):
    # D = 10 and D = 12 over GF(2^8) with sigma1 = Frobenius share the working
    # field GF(2^16) and its power basis; only the degree bound tells the
    # two Moore systems apart, so they are two plans with one elimination
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
    assert flipped.recover(values[::-1]) == plans[0].recover(values)
    assert len(builds) == 3


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
