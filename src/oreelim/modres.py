"""Elimination by evaluation and interpolation.

Instead of multiplying the triangularized diagonal into one polynomial, the
pipeline evaluates it at a deterministic set of points.  Evaluating a
polynomial in x1 at a point means letting x1 act on the working field by a
map S, chosen per point by the plan; d(x1) then evaluates to
sum(c_i * S^i(start)).  The diagonal's chain

    d_1(S)( d_2(S)( ... d_k(S)(start) ... ) )

equals r(S)(start) for the eliminant r = d_1 * ... * d_k, that is
sum(r_i * S^i(start)), so the chain values at the D + 1 or more points pin
down r_0..r_D through the system with rows [S^i(start)], i = 0..D.  Steps:

  1. triangularize the Sylvester matrix once, in the base field, by the
     direct method's own call (same pivot rule, op log and input errors);
  2. plan: bound the eliminant degree D from the Sylvester shape and, if
     the input field is too small, extend it (Frobenius exponents lift
     unchanged, and the embedding commutes with them); one plan object
     serves every pair of one ring and one D;
  3. embed the diagonal into the working field: the embedding is an
     injective ring map commuting with every Frobenius power, and the pivot
     rules see only degrees, zero-ness and their seeded rng, so this is
     exactly the embedded matrix's diagonal;
  4. evaluate the diagonal chain at every plan point, x1 acting there as
     the plan says (`ModularPlan.actions`, applied by `apply_formal`, the
     package's one evaluation map);
  5. recover the coefficients (`ModularPlan.recover` solves the system of
     rows [S^i(start)] by an elimination the plan records on its first
     recovery) and map them back through the inverse embedding (a
     coefficient outside the base field is an internal error).

The action of x1 has two regimes, and only `plan_modular` and the plan
itself tell them apart; every later step runs one loop for both.  With
sigma1 nontrivial, x1 acts as S = sigma1 started at the point, and the points
are a GF(p)-basis of the working field: the rows are a Moore system.  The
working degree M is chosen so that M > D and sigma1's order on GF(p^M)
exceeds D; distinct powers sigma1^0..sigma1^D are then distinct
automorphisms, which are linearly independent maps, so a well-formed plan
admits no bad evaluation and no singular Moore system (both remain
asserted).  With sigma1 the identity, x1 acts as multiplication by the point
started at 1, and the points are D + 1 distinct field values: the chain is
plain evaluation of the diagonal's product and the rows are a Vandermonde
system.  `ModularPlan.mode` names the regime, which sigma1 decides.

In either regime the route is the direct triangularization plus an
independent chain-and-recovery check: the diagonal's product is not
multiplied out but recovered from the chain values, and the leftover
equations and the map back to the base field must be consistent.  It costs
more than the direct route, never less.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd

from .errors import (
    BadEvaluation,
    CoefficientOutsideBaseField,
    PlanFailure,
    RingMismatch,
    SingularMooreSystem,
    ZeroPolynomial,
)
from .field import (
    NEG_INF,
    Automorphism,
    FieldElem,
    _eliminate,
    _replay,
    extend_field,
)
from .ore_bivar import BivarOrePoly, BivarRing
from .resultant import sylvester_degree_bound, sylvester_matrix
from .skewdet import DetResult, triangularize_with_log


def apply_formal(ctx, step, arg, coeffs, u):
    """sum(c_i * S^i(u)) on packed values, where S(v) = step(v, arg) is how x
    acts on the field: a Frobenius power (`ctx.frob`, e), or multiplication
    by a point (`ctx.mul`, a), which makes the sum the plain value f(a) * u."""
    add, mul = ctx.add, ctx.mul
    acc = 0
    cur = u
    for i, c in enumerate(coeffs):
        if i:
            cur = step(cur, arg)
        if c:
            acc = add(acc, mul(c, cur))
    return acc


@dataclass(frozen=True)
class ModularPlan:
    """Working field, embedding, evaluation points, and the recovery of the
    eliminant's coefficients from chain values at those points."""

    base_ring: BivarRing
    work_ring: BivarRing
    embedding: object  # FieldEmbedding
    points: tuple  # FieldElem values in the working field
    degree_bound: int

    @property
    def mode(self):
        """The regime: plug-in exactly when sigma1 is the identity."""
        return "plugin" if self.work_ring.sigma1.e == 0 else "frobenius"

    @property
    def work_ctx(self):
        return self.work_ring.ctx

    @cached_property
    def actions(self):
        """How x1 acts on the working field at each point, as (step, arg,
        start) with S(v) = step(v, arg): sigma1 started at the point, or
        multiplication by the point started at 1 when sigma1 is the
        identity."""
        ctx, e1 = self.work_ctx, self.work_ring.sigma1.e
        if e1:
            return tuple((ctx.frob, e1, pt.val) for pt in self.points)
        return tuple((ctx.mul, pt.val, 1) for pt in self.points)

    @cached_property
    def _elimination(self):
        """The recorded elimination of the rows [S^i(start)], i = 0..D, one
        per point: a Moore system in the Frobenius regime, a Vandermonde
        system in the plug-in one.  Built on the first recovery, so planning
        stays cheap, and shared by every pair of this plan."""
        rows = []
        for step, arg, cur in self.actions:
            row = [cur]
            for _ in range(self.degree_bound):
                cur = step(cur, arg)
                row.append(cur)
            rows.append(row)
        return _eliminate(self.work_ctx, rows, self.degree_bound + 1)

    def recover(self, values):
        """The coefficients r_0..r_D (packed) with sum(r_i * S^i(start)) equal
        to the packed chain value at every point; the leftover equations must
        reduce to zero."""
        steps = self._elimination
        v = _replay(self.work_ctx, steps, values)
        if any(v[len(steps) :]):
            raise SingularMooreSystem("chain values are inconsistent")
        return v[: len(steps)]

    def to_jsonable(self):
        return {
            "base_field": self.base_ring.ctx.spec_string(),
            "work_field": self.work_ctx.spec_string(),
            "mode": self.mode,
            "degree_bound": self.degree_bound,
            "points": [str(pt) for pt in self.points],
        }


@dataclass(frozen=True)
class PartialEval:
    """The chain evaluation of the diagonal operators at one point."""

    point: FieldElem
    value: FieldElem


def plan_modular(f, g):
    """Choose the working field and evaluation points for a pair of inputs.

    The degree bound D comes from the Sylvester shape.  In the Frobenius
    regime the working degree M is the least multiple of the input degree m
    with M > D and order(sigma1 on GF(p^M)) > D, and the points are the power
    basis; in the plug-in regime (sigma1 = id) M is the least multiple of m
    with p^M >= D + 1 and the points are the first D + 1 field values.
    Pairs of one ring and one D get the same plan object."""
    if not isinstance(f, BivarOrePoly) or not isinstance(g, BivarOrePoly):
        raise RingMismatch("plan_modular expects bivariate Ore polynomials")
    if f.ring != g.ring:
        raise RingMismatch("f and g must share one Ore algebra")
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("cannot plan elimination for a zero polynomial")
    if f.degree < 1 or g.degree < 1:
        raise PlanFailure(
            "evaluation/interpolation needs x2-degree >= 1 on both inputs "
            "(the direct method handles constant-in-x2 inputs)"
        )
    return _plan(f.ring, sylvester_degree_bound(f, g))


@cache
def _plan(ring, bound):
    """The plan of one ring and one D, which determine it; memoized, so every
    pair of that shape shares its actions and its recovery."""
    ctx = ring.ctx
    m = ctx.m
    e1 = ring.sigma1.e
    if e1 == 0:
        big_m = m
        while ctx.p**big_m < bound + 1:
            big_m += m
    else:
        big_m = m
        while not (bound < big_m and big_m // gcd(e1, big_m) > bound):
            big_m += m
    work_ctx, emb = extend_field(ctx, big_m)
    work_ring = BivarRing(
        work_ctx, Automorphism(work_ctx, e1), Automorphism(work_ctx, ring.sigma2.e)
    )
    if e1:
        points = tuple(work_ctx.prime_basis())
    else:
        points = tuple(work_ctx.elem(v) for v in range(bound + 1))
    return ModularPlan(
        base_ring=ring,
        work_ring=work_ring,
        embedding=emb,
        points=points,
        degree_bound=bound,
    )


def embed_uni(f, plan):
    """Map an inner polynomial into the working field, coefficient-wise."""
    emb = plan.embedding.map_packed
    return plan.work_ring.inner.from_packed([emb(c) for c in f.coeffs])


def embed_bivar(f, plan):
    emb = plan.embedding.map_packed
    inner = plan.work_ring.inner
    return plan.work_ring.poly(
        [inner.from_packed([emb(v) for v in c.coeffs]) for c in f.coeffs]
    )


def check_bad_eval(f, plan):
    """True iff f is zero or its leading x2-coefficient evaluates to zero at
    every plan point, x1 acting as `plan.actions` says.  In the Frobenius
    regime the points are a GF(p)-basis, so the coefficient, read as an
    operator, is the zero map, which the linear independence of sigma1^0..
    sigma1^D rules out on a well-formed plan.  In the plug-in regime the
    coefficient vanishes at all D + 1 points, which its degree, at most D,
    rules out.  The check exists to assert exactly that."""
    if f.is_zero:
        return True
    coeffs = embed_uni(f.lead_coeff, plan).coeffs
    ctx = plan.work_ctx
    return not any(
        apply_formal(ctx, step, arg, coeffs, start)
        for step, arg, start in plan.actions
    )


def chain_evaluate(diag, plan):
    """PartialEval at every plan point of the diagonal chain per the
    composition formula: the row-order product d_1 * ... * d_k acts as
    d_1 applied last.  Output is in the plan's point order."""
    ctx = plan.work_ctx
    coeff_rows = [d.coeffs for d in reversed(diag)]
    out = []
    for pt, (step, arg, u) in zip(plan.points, plan.actions):
        for coeffs in coeff_rows:
            u = apply_formal(ctx, step, arg, coeffs, u)
        out.append(PartialEval(point=pt, value=FieldElem(ctx, u)))
    return tuple(out)


def _pipeline(f, g, rule, seed):
    """Steps 1-3: triangularize the Sylvester matrix in the base field, plan,
    then embed the diagonal.  Returns the plan, the diagonal (inner
    polynomials over the working field) and the base-field op log."""
    tri, ops = triangularize_with_log(sylvester_matrix(f, g), rule=rule, seed=seed)
    plan = plan_modular(f, g)
    return plan, [embed_uni(tri.rows[i][i], plan) for i in range(tri.n)], ops


def partial_evaluations(f, g, rule="min_degree", seed=0):
    """Run the pipeline through step 4 and return (plan, partial evals)."""
    plan, diag, _ = _pipeline(f, g, rule, seed)
    return plan, chain_evaluate(diag, plan)


def res_x2_modular(f, g, rule="min_degree", seed=0) -> DetResult:
    """res_{x2}(f, g) by evaluation and interpolation.

    Equals the direct representative coefficient-for-coefficient when both
    use the same pivot rule: the diagonal is the direct route's, embedded,
    and Moore recovery is exact for degree bound < working degree.  The op
    log is the direct route's too.

    In the Frobenius regime (sigma1 not the identity) this is the direct
    triangularization plus an independent chain-and-recovery check of its
    diagonal, so it costs more than `res_x2_direct`, never less."""
    plan, diag, ops = _pipeline(f, g, rule, seed)
    if check_bad_eval(f, plan):
        raise BadEvaluation("leading coefficient of f acts as the zero map")
    if check_bad_eval(g, plan):
        raise BadEvaluation("leading coefficient of g acts as the zero map")
    base_inner = plan.base_ring.inner
    if any(d.is_zero for d in diag):
        return DetResult(
            rep=base_inner.zero(), is_zero=True, degree=NEG_INF, op_log=ops
        )
    deg_r = sum(d.degree for d in diag)
    if deg_r > plan.degree_bound:
        raise PlanFailure(
            f"diagonal degree {deg_r} exceeds the planned bound {plan.degree_bound}"
        )
    coeffs = plan.recover([pe.value.val for pe in chain_evaluate(diag, plan)])
    back = [plan.embedding.inverse_packed(c) for c in coeffs]
    if any(b is None for b in back):
        raise CoefficientOutsideBaseField(
            "a recovered coefficient has no preimage in the base field"
        )
    rep = base_inner.from_packed(back)
    return DetResult(rep=rep, is_zero=rep.is_zero, degree=rep.degree, op_log=ops)
