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
     serves every pair of one ring and one D.  This module alone chooses
     the working field: `_plan` its degree M, `extend_field` its modulus
     and the root that the embedding sends t to;
  3. embed the diagonal into the working field: the embedding is an
     injective ring map commuting with every Frobenius power, and the pivot
     rules see only degrees, zero-ness and their seeded rng, so this is
     exactly the embedded matrix's diagonal;
  4. evaluate the diagonal chain at every plan point, x1 acting there as
     the plan says (`ModularPlan.actions`, applied by `apply_formal`, the
     package's one evaluation map).  In the Frobenius regime sigma1 and a
     product by a diagonal coefficient are the same GF(p)-linear map at
     every point, so all points are evaluated at once, on one `FieldBatch`
     holding every chain value; in the plug-in regime x1's multiplier
     differs per point, and the chain runs point by point;
  5. recover the coefficients and map them back through the inverse
     embedding (a coefficient outside the base field is an internal error).
     The system of rows [S^i(start)] has a closed-form inverse, the
     trace-dual basis for a Moore system and the Lagrange basis for a
     Vandermonde one, so no elimination runs.  Recovery is GF(p)-linear in
     the chain values, and the plan builds its map once, on its first
     recovery, as the images of the unit inputs (`FieldCtx._matrix_columns`);
     each `ModularPlan.recover` is then one pass of `FieldCtx._combine` over
     all chain values at once.

The action of x1 has two regimes, and only `plan_modular` and the plan
itself tell them apart; every later step runs one loop for both.  With
sigma1 nontrivial, x1 acts as S = sigma1 started at the point, and the points
are a GF(p)-basis of the working field: the rows are a Moore system.  The
working degree M is chosen so that M > D and sigma1's order on GF(p^M)
exceeds D; distinct powers sigma1^0..sigma1^D are then distinct
automorphisms, which are linearly independent maps, so a well-formed plan
admits no bad evaluation and no singular Moore system (the route asserts
both: the first as the leading coefficients' x1-degree being at most D, the
second through recovery's leftover equations).  With sigma1 the identity,
x1 acts as multiplication by the point started at 1, and the points are
D + 1 distinct field values: the chain is plain evaluation of the
diagonal's product and the rows are a Vandermonde system.
`ModularPlan.mode` names the regime, which sigma1 decides.

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
    NotAnExtension,
    PlanFailure,
    RingMismatch,
    SingularMooreSystem,
    ZeroPolynomial,
)
from .field import (
    NEG_INF,
    Automorphism,
    FieldBatch,
    FieldElem,
    FieldEmbedding,
    _gfp_powmod,
    field_new,
)
from .ore_bivar import BivarOrePoly, BivarRing
from .ore_uni import OreRing, gcrd
from .resultant import sylvester_degree_bound, sylvester_matrix
from .skewdet import DetResult, triangularize_with_log


def apply_formal(ctx, step, arg, coeffs, u):
    """sum(c_i * S^i(u)), where S(v) = step(v, arg) is how x acts on the
    field: a Frobenius power (`ctx.frob`, e), or multiplication by a point
    (`ctx.mul`, a), which makes the sum the plain value f(a) * u.  The sum is
    taken by ctx's add and mul: a `FieldCtx` on packed values, or a
    `FieldBatch` on a batch of them, whose mul multiplies every value by the
    coefficient."""
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
        """How x1 acts on the working field, as (ctx, step, arg, start) for
        `apply_formal`, with S(v) = step(v, arg).  With sigma1 the identity,
        x1 is multiplication by the point started at 1, one action per point.
        Otherwise it is sigma1 started at the point, the same GF(p)-linear map
        at every point, so one action on a `FieldBatch` of all the points
        serves them all."""
        ctx, e1 = self.work_ctx, self.work_ring.sigma1.e
        if e1:
            batch = self._batch
            start = batch.spread([pt.val for pt in self.points])
            return ((batch, batch.frob, e1, start),)
        return tuple((ctx, ctx.mul, pt.val, 1) for pt in self.points)

    @cached_property
    def _batch(self):
        return FieldBatch(self.work_ctx, len(self.points))

    def pack(self, values):
        """Chain values, one per point, packed as sum(v_j * q^j)."""
        q = self.work_ctx.q
        packed = 0
        for v in reversed(values):
            packed = packed * q + v
        return packed

    def _packed(self, results):
        """All chain values packed as sum(v_j * q^j), from the results of
        `actions` in order."""
        if self.mode == "frobenius":
            return self._batch.packed(results[0])
        return self.pack(results)

    @cached_property
    def _recovery(self):
        """The columns of the recovery map, a GF(p)-linear map from the chain
        values to the coefficients followed by the leftovers, whose matrix
        over the working field is the closed-form inverse of the system:
        `_moore_rows` or `_lagrange_rows`.  Built on the first recovery, so
        planning stays cheap, and shared by every pair of this plan."""
        ctx, e1 = self.work_ctx, self.work_ring.sigma1.e
        if e1:
            rows = _moore_rows(ctx, e1, self.degree_bound, self.points)
        else:
            rows = _lagrange_rows(ctx, self.degree_bound, self.points)
        return ctx._matrix_columns(rows)

    def recover(self, packed):
        """The coefficients r_0..r_D (packed) with sum(r_i * S^i(start)) equal
        to the chain value v_j at every point j, from all chain values packed
        as sum(v_j * q^j) (`pack`, or `ChainValues.packed`).  One pass of the
        recovery map gives sum(r_i * q^i) plus the leftovers times
        q^(D + 1); the system is consistent exactly when the leftovers are
        all zero."""
        ctx = self.work_ctx
        q = ctx.q
        out = ctx._combine(self._recovery, packed)
        if out >= q ** (self.degree_bound + 1):
            raise SingularMooreSystem("chain values are inconsistent")
        coeffs = []
        for _ in range(self.degree_bound + 1):
            out, r = divmod(out, q)
            coeffs.append(r)
        return coeffs

    def to_jsonable(self):
        return {
            "base_field": self.base_ring.ctx.spec_string(),
            "work_field": self.work_ctx.spec_string(),
            "mode": self.mode,
            "degree_bound": self.degree_bound,
            "points": [str(pt) for pt in self.points],
        }


def _deflate(ctx, poly, a):
    """The quotient of a monic polynomial (packed coefficients, lowest
    first) by x - a, for a root a, by synthetic division."""
    add, mul = ctx.add, ctx.mul
    quo = [1]
    for c in poly[-2:0:-1]:
        quo.append(add(c, mul(a, quo[-1])))
    return quo[::-1]


def _trace_dual_basis(ctx):
    """The trace-dual basis b_0*, ..., b_{m-1}* of the power basis t^j, with
    Tr(b_j* * t^k) = delta_jk.  If the modulus is f(x) = (x - t) * g(x), g =
    beta_0 + ... + beta_{m-1} x^{m-1}, then b_j* = beta_j / f'(t) and
    f'(t) = g(t) (Lidl-Niederreiter, Finite Fields, ch. 2)."""
    t = ctx.t_packed
    beta = _deflate(ctx, ctx.modulus, t)
    scale = ctx.inv(apply_formal(ctx, ctx.mul, t, beta, 1))
    return [ctx.mul(b, scale) for b in beta]


def _moore_rows(ctx, e1, bound, points):
    """The inverse of the Moore system, one row per point t^j: its entries
    are phi(b_j*) for the automorphisms phi = sigma1^0..sigma1^D, then for
    the other Frobenius powers in increasing order (the leftovers).  Since
    sum_j phi(t^j) * psi(b_j*) = delta_{phi, psi}, the values v_j =
    sum_i r_i * sigma1^i(t^j) give r_i = sum_j sigma1^i(b_j*) * v_j and a
    zero leftover for every other phi, and they are of that form exactly
    when every leftover is zero."""
    p, m = ctx.p, ctx.m
    exps = [i * e1 % m for i in range(bound + 1)]
    if len(set(exps)) <= bound:
        raise SingularMooreSystem(
            "evaluation points do not determine the coefficients"
        )
    exps += sorted(set(range(m)) - set(exps))
    basis = {p**j: j for j in range(m)}
    index = [basis.get(pt.val) for pt in points]
    if len(index) != m or set(index) != set(range(m)):
        raise PlanFailure("Frobenius-mode points must be the power basis")
    conj = [_trace_dual_basis(ctx)]  # conj[e][j] = frob(b_j*, e)
    for _ in range(m - 1):
        conj.append([ctx.frob(b, 1) for b in conj[-1]])
    return [[conj[e][j] for e in exps] for j in index]


def _lagrange_rows(ctx, bound, points):
    """The inverse of the Vandermonde system, one row per point a_k: the
    coefficients of L_k(x) = P(x) / ((x - a_k) * P'(a_k)) for P the product
    of all (x - a_l), so that r = sum_k v_k * L_k.  Coefficients past D are
    leftovers, present only when a plan has more than D + 1 points."""
    mul, sub = ctx.mul, ctx.sub
    pts = [pt.val for pt in points]
    if len(pts) <= bound:
        raise SingularMooreSystem(
            "evaluation points do not determine the coefficients"
        )
    prod = [1]
    for a in pts:
        prod = [sub(x, mul(a, y)) for x, y in zip([0] + prod, prod + [0])]
    rows = []
    for a in pts:
        quo = _deflate(ctx, prod, a)
        deriv = apply_formal(ctx, mul, a, quo, 1)  # P'(a)
        if not deriv:
            raise SingularMooreSystem("evaluation points are not distinct")
        scale = ctx.inv(deriv)
        rows.append([mul(scale, c) for c in quo])
    return rows


@dataclass(frozen=True)
class PartialEval:
    """The chain evaluation of the diagonal operators at one point."""

    point: FieldElem
    value: FieldElem


class ChainValues(tuple):
    """The PartialEval of every plan point, in point order, and `packed`, all
    chain values packed as sum(v_j * q^j): the input of
    `ModularPlan.recover`, read as computed, with no per-point repack."""

    def __new__(cls, evals, packed):
        self = super().__new__(cls, evals)
        self.packed = packed
        return self


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
    return _plan(f.ring, f.ring.ctx.backend, sylvester_degree_bound(f, g))


@cache
def _plan(ring, backend, bound):
    """The plan of one ring and one D, which determine it; memoized, so every
    pair of that shape shares its actions and its recovery.  Rings compare
    by their contexts, which ignore the backend, so it is part of the key:
    a ring over a hand-built context gets a plan on its own backend."""
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


def extend_field(ctx, M):
    """GF(p^M) together with the deterministic embedding from ctx = GF(p^m).

    Requires m | M.  For M = m it returns ctx itself, whatever its modulus
    and backend, with the identity embedding (t goes to t).  Otherwise
    GF(p^M) has its default modulus and t goes to the least packed root of
    ctx's modulus there, so the embedding is reproducible; that root is
    found by trace splitting in time polynomial in m, M and p, and memoized
    per (ctx, M)."""
    if M % ctx.m != 0:
        raise NotAnExtension(f"GF({ctx.p}^{M}) does not contain GF({ctx.p}^{ctx.m})")
    if M == ctx.m:
        return ctx, FieldEmbedding(ctx, ctx, ctx.t_packed)
    return _extension(ctx, M)


@cache
def _extension(ctx, M):
    big = field_new(ctx.p, M)
    return big, FieldEmbedding(ctx, big, _least_modulus_root(ctx, big))


def _least_modulus_root(ctx, big):
    """Least packed root in `big` of ctx's modulus h, by trace splitting
    (Cantor-Zassenhaus, Math. Comp. 1981).

    The roots of h lie in the subfield S of order p^m, and the relative traces
    delta_j = Tr_{M/m}(t^j) = sum_k (t^j)^(p^(k m)) span S over GF(p).  For
    delta in S, T = sum_i delta^(p^i) * (x^(p^i) mod h) takes the value
    Tr(delta * r) in GF(p) at every root r of h, so gcd(g, T - c) collects
    the roots of a factor g with trace value c.  The trace form is
    nondegenerate, so refining g by each nonzero delta_j in turn leaves a
    single root r after at most M rounds of at most p gcds, each `gcrd` in
    big[x] with sigma the identity.  The roots of h are the Frobenius orbit
    of r, and the least of them is returned."""
    p, m, M = ctx.p, ctx.m, big.m
    ring = OreRing(big, Automorphism(big, 0))
    h = ctx.modulus
    g = ring.from_packed(h)
    powers = [[0, 1]]  # x^(p^i) mod h, coefficients in GF(p)
    for _ in range(m - 1):
        powers.append(_gfp_powmod(powers[-1], p, h, p))
    for j in range(M):
        if g.degree == 1:
            break
        delta = conj = p**j  # t^j and its conjugates over S
        for _ in range(M // m - 1):
            conj = big.frob(conj, m)
            delta = big.add(delta, conj)
        if not delta:
            continue
        trace = [0] * m
        for i, xi in enumerate(powers):
            if i:
                delta = big.frob(delta, 1)
            for k, s in enumerate(xi):
                if s:
                    trace[k] = big.add(trace[k], big.mul(s, delta))
        trace = ring.from_packed(trace)
        for c in range(p):
            d = gcrd(g, trace - c)
            if d.degree > 0:
                g = d
                break
    if g.degree != 1:  # pragma: no cover
        raise AssertionError("modulus does not split in the extension")
    root = least = big.neg(g.coeffs[0])
    for _ in range(m - 1):
        root = big.frob(root, 1)
        least = min(least, root)
    return least


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
    rules out.  So `res_x2_modular` asserts that degree bound instead of
    evaluating."""
    if f.is_zero:
        return True
    coeffs = embed_uni(f.lead_coeff, plan).coeffs
    return not any(
        apply_formal(ctx, step, arg, coeffs, start)
        for ctx, step, arg, start in plan.actions
    )


def chain_evaluate(diag, plan):
    """PartialEval at every plan point of the diagonal chain per the
    composition formula: the row-order product d_1 * ... * d_k acts as
    d_1 applied last.  Output is in the plan's point order, as
    `ChainValues`."""
    coeff_rows = [d.coeffs for d in reversed(diag)]
    results = []
    for ctx, step, arg, u in plan.actions:
        for coeffs in coeff_rows:
            u = apply_formal(ctx, step, arg, coeffs, u)
        results.append(u)
    packed = rest = plan._packed(results)
    work, q = plan.work_ctx, plan.work_ctx.q
    evals = []
    for pt in plan.points:
        rest, v = divmod(rest, q)
        evals.append(PartialEval(point=pt, value=FieldElem(work, v)))
    return ChainValues(evals, packed)


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
    # a leading coefficient of x1-degree <= D is no bad evaluation (see
    # `check_bad_eval`), and plan_modular's D bounds both
    for name, h in (("f", f), ("g", g)):
        if h.lead_coeff.degree > plan.degree_bound:
            raise BadEvaluation(
                f"leading coefficient of {name} exceeds the planned degree bound"
            )
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
    coeffs = plan.recover(chain_evaluate(diag, plan).packed)
    back = [plan.embedding.inverse_packed(c) for c in coeffs]
    if any(b is None for b in back):
        raise CoefficientOutsideBaseField(
            "a recovered coefficient has no preimage in the base field"
        )
    rep = base_inner.from_packed(back)
    return DetResult(rep=rep, is_zero=rep.is_zero, degree=rep.degree, op_log=ops)
