"""Elimination by evaluation and interpolation.

Instead of multiplying the triangularized diagonal into one polynomial, the
pipeline treats the diagonal entries as operators, applies the composition
chain

    d_1(sigma1)( d_2(sigma1)( ... d_k(sigma1)(a) ... ) )

to a deterministic set of points a, and recovers the eliminant's coefficients
by coefficient comparison: the chain value at a equals sum(r_i * sigma1^i(a)),
so values on a GF(p)-basis of the working field pin down r_0..r_D through an
invertible Moore system.  Steps:

  1. bound the eliminant degree D from the Sylvester shape and, if the input
     field is too small, extend it (Frobenius exponents lift unchanged, and
     the embedding commutes with them);
  2. triangularize the Sylvester matrix once, in the base field, by the
     direct method's own call (same pivot rule, same op log);
  3. embed the diagonal into the working field and read it under x1 ->
     sigma1: the embedding is an injective ring map commuting with every
     Frobenius power, and the pivot rules see only degrees, zero-ness and
     their seeded rng, so this is exactly the embedded matrix's diagonal;
  4. evaluate the diagonal chain at every plan point;
  5. solve the Moore system, whose elimination depends only on the plan
     shape and is recorded once per shape, and map the coefficients back
     through the inverse embedding (a coefficient outside the base field is
     an internal error).

The working degree M is chosen so that M > D and sigma1's order on GF(p^M)
exceeds D; distinct powers sigma1^0..sigma1^D are then distinct automorphisms,
which are linearly independent maps, so a well-formed plan admits no bad
evaluation and no singular Moore system (both remain asserted).

With sigma1 the identity the operator reading collapses (every sigma-power is
the same map), and the pipeline degenerates to its commutative special case:
plug-in evaluation of the diagonal at D+1 distinct points and Vandermonde
recovery.  `ModularPlan.mode` names the regime, which sigma1 decides.

In the Frobenius regime the route is the direct triangularization plus an
independent chain-and-recovery check: the diagonal's product is not
multiplied out but recovered from the chain values, and the leftover Moore
equations and the map back to the base field must be consistent.  It costs
more than the direct route, never less.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .opeval import apply_formal, eval_uni
from .resultant import sylvester_degree_bound, sylvester_matrix
from .skewdet import DetResult, triangularize_with_log


@dataclass(frozen=True)
class ModularPlan:
    """Working field, embedding, evaluation points, and recovery shape."""

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
    with p^M >= D + 1 and the points are the first D + 1 field values."""
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
    ring = f.ring
    ctx = ring.ctx
    m = ctx.m
    e1 = ring.sigma1.e
    bound = sylvester_degree_bound(f, g)
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
    """True iff the leading x2-coefficient, read as an operator over the
    working field, is the zero map.  A well-formed plan keeps sigma1-powers
    below the field order linearly independent, so a nonzero leading
    coefficient can never be flagged; the check exists to assert exactly
    that.  In the plug-in regime the renaming is trivial and only a zero
    polynomial could degrade the degree, so the flag is structurally false."""
    lead = embed_uni(f.lead_coeff, plan) if not f.is_zero else None
    if lead is None or lead.is_zero:
        return True
    if plan.mode == "plugin":
        return False
    return eval_uni(lead).is_zero_map()


def _eval_plugin(ctx, coeffs, u):
    """Ordinary Horner evaluation (commutative regime)."""
    add, mul = ctx.add, ctx.mul
    acc = 0
    for c in reversed(coeffs):
        acc = add(mul(acc, u), c)
    return acc


def chain_evaluate(diag, plan):
    """PartialEval at every plan point of the diagonal chain per the
    composition formula: the row-order product d_1 * ... * d_k acts as
    d_1 applied last.  Output is in the plan's point order."""
    ctx = plan.work_ctx
    e = plan.work_ring.sigma1.e
    coeff_rows = [d.coeffs for d in diag]

    out = []
    for pt in plan.points:
        if plan.mode == "frobenius":
            u = pt.val
            for coeffs in reversed(coeff_rows):
                u = apply_formal(ctx, e, coeffs, u)
        else:
            u = 1
            for coeffs in coeff_rows:
                u = ctx.mul(u, _eval_plugin(ctx, coeffs, pt.val))
        out.append(PartialEval(point=pt, value=FieldElem(ctx, u)))
    return tuple(out)


def _solve(ctx, steps, rhs):
    """Replay a recorded elimination on a right-hand side; the leftover
    equations must reduce to zero."""
    v = _replay(ctx, steps, rhs)
    if any(v[len(steps) :]):
        raise SingularMooreSystem("chain values are inconsistent")
    return v[: len(steps)]


def _solve_exact(ctx, rows, rhs, ncols):
    """Gauss-Jordan over the working field; rows may exceed ncols, in which
    case the leftover equations are checked for consistency."""
    return _solve(ctx, _eliminate(ctx, rows, ncols), rhs)


def _system_rows(plan):
    """The Moore (sigma-power) or Vandermonde (power) rows at the plan
    points, D + 1 columns each."""
    ctx = plan.work_ctx
    d = plan.degree_bound
    e = plan.work_ring.sigma1.e
    rows = []
    for pt in plan.points:
        cur = pt.val if plan.mode == "frobenius" else 1
        row = [cur]
        for _ in range(d):
            cur = ctx.frob(cur, e) if plan.mode == "frobenius" else ctx.mul(cur, pt.val)
            row.append(cur)
        rows.append(row)
    return rows


# (working field, e1, D) -> recorded elimination.  `plan_modular` derives
# the mode from e1 and the points from the working field and D, so the system
# depends on nothing else and every pair of one plan shape shares it.
_MOORE_CACHE = {}


def _recover_coefficients(plan, evals):
    ctx = plan.work_ctx
    key = (ctx, plan.work_ring.sigma1.e, plan.degree_bound)
    steps = _MOORE_CACHE.get(key)
    if steps is None:
        steps = _eliminate(ctx, _system_rows(plan), plan.degree_bound + 1)
        _MOORE_CACHE[key] = steps
    return _solve(ctx, steps, [pe.value.val for pe in evals])


def _pipeline(f, g, plan, rule, seed):
    """Steps 2-3: triangularize the Sylvester matrix in the base field, then
    embed the diagonal.  Returns the diagonal (inner polynomials over the
    working field) and the base-field op log."""
    syl = sylvester_matrix(f, g)
    tri, ops = triangularize_with_log(syl.inner, rule=rule, seed=seed)
    return [embed_uni(tri.rows[i][i], plan) for i in range(tri.n)], ops


def partial_evaluations(f, g, rule="min_degree", seed=0):
    """Run the pipeline through step 4 and return (plan, partial evals)."""
    plan = plan_modular(f, g)
    diag, _ = _pipeline(f, g, plan, rule, seed)
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
    plan = plan_modular(f, g)
    if check_bad_eval(f, plan):
        raise BadEvaluation("leading coefficient of f acts as the zero map")
    if check_bad_eval(g, plan):
        raise BadEvaluation("leading coefficient of g acts as the zero map")
    diag, ops = _pipeline(f, g, plan, rule, seed)
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
    coeffs = _recover_coefficients(plan, chain_evaluate(diag, plan))
    back = [plan.embedding.inverse_packed(c) for c in coeffs]
    if any(b is None for b in back):
        raise CoefficientOutsideBaseField(
            "a recovered coefficient has no preimage in the base field"
        )
    rep = base_inner.from_packed(back)
    return DetResult(rep=rep, is_zero=rep.is_zero, degree=rep.degree, op_log=ops)
