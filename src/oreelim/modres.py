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
  3. fold each run of constant diagonal entries into one, in the base
     field (`_fold_constants`: the row-order product is unchanged), and
     embed the diagonal into the working field: the embedding is an
     injective ring map commuting with every Frobenius power, and the pivot
     rules see only degrees, zero-ness and their seeded rng, so this is
     exactly the embedded matrix's diagonal, folded;
  4. evaluate the diagonal chain at every plan point, x1 acting there as
     the plan says (`ModularPlan.actions`, applied by `apply_formal`, the
     package's one evaluation map).  `chain_evaluate` is the module's one
     evaluation loop: the bad-evaluation check runs it on a one-entry chain.
     In the Frobenius regime a diagonal entry sum(c_i * x1^i) acts as the
     linearized polynomial u -> sum(c_i * sigma1^i(u)), the same
     GF(p)-linear map at every point, so all points are evaluated at once,
     on one `FieldBatch` holding every chain value: one `FieldBatch.dot`
     over cached sigma1-power batches of the power basis builds the entry's
     M columns, and one pass of plane products applies them
     (`FieldBatch.linearized`); in the plug-in regime x1's multiplier
     differs per point, and the chain runs point by point.  Either way the
     chain values leave as the plan's `FieldBatch`, value j at point j;
  5. recover the coefficients, in the base field, from that batch, whose
     digit slots the solver reads as they are.  The chain values are a
     GF(p)-linear image of the base-field coordinates of r_0..r_D, and the
     plan builds that forward map once, on its first recovery, in one pass
     over its actions (`_forward_columns`), and reduces it with the
     package's one elimination (`field.GFpSolver`).  Each
     `ModularPlan.recover` then solves on the shortest leading run of
     points that determines the coefficients and checks the answer at
     every point; chain values it does not reproduce are inconsistent.

The action of x1 has two regimes, and `plan_modular` and the plan tell
them apart; every later step runs one loop for both, and only
`chain_evaluate` and `_forward_columns` read the mode, to collect the
per-point values of the plug-in regime into one batch.  With
sigma1 nontrivial, x1 acts as S = sigma1 started at the point, and the points
are a GF(p)-basis of the working field: the rows are a Moore system.  The
working degree M is chosen so that M > D and sigma1's order on GF(p^M)
exceeds D; distinct powers sigma1^0..sigma1^D are then distinct
automorphisms, which are linearly independent maps, so a well-formed plan
admits no bad evaluation and no singular Moore system (the route asserts
both: the first as the leading coefficients' x1-degree being at most D, the
second through the solver's rank).  With sigma1 the identity,
x1 acts as multiplication by the point started at 1, and the points are
D + 1 distinct field values: the chain is plain evaluation of the
diagonal's product and the rows are a Vandermonde system.
`ModularPlan.mode` names the regime, which sigma1 decides.

In either regime the route is the direct triangularization plus an
independent chain-and-recovery check: the diagonal's product is not
multiplied out but recovered from the chain values, which must all be those
of one base-field polynomial.  It costs more than the direct route, never
less.

The Frobenius-regime chain costs Theta(D * M^3 * w) bit operations, in
additions: an entry's columns are one `FieldBatch.dot` of its coefficients
with the sigma1-power batches, each of M values of M digits of w bits,
where every nonzero digit adds a batch into one of M accumulators, and one
Horner pass in t finishes them.  The chain batch is then mapped once per
non-constant folded entry, M plane passes.  The sigma1-power batches are
built on the first chain, one Frobenius map each, at most M of them per
working field and exponent.  A working field may exceed `field_new`'s
domain p^m < 2^63: GF(2^72) for D = 64 over GF(2^8), or GF(3^44) for
D = 40 over GF(3^4); the README gives their warm-pair times beside the
direct route's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd

from .errors import (
    BadEvaluation,
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
    GFpSolver,
    _context,
    _pow,
)
from .ore_bivar import BivarOrePoly, BivarRing
from .ore_uni import OreRing, gcrd
from .resultant import sylvester_degree_bound, sylvester_matrix
from .skewdet import DetResult, triangularize_with_log


def apply_formal(ctx, step, arg, coeffs, u):
    """sum(c_i * S^i(u)), where S(v) = step(v, arg) is how x acts on the
    field: a Frobenius power (`ctx.frob`, e), or multiplication by a point
    (`ctx.mul`, a), which makes the sum the plain value f(a) * u.  On a
    `FieldCtx` it takes u, S(u), ..., S^d(u) and returns `ctx.dot` of the
    coefficients with them, one mul and one add per nonzero coefficient.
    On a `FieldBatch`, where S is a Frobenius power, the sum is one
    GF(p)-linear map of the field, which `FieldBatch.linearized` builds
    with one `dot` and applies to every value at once.  A constant takes no
    powers: it is ctx's `mul` by the coefficient."""
    if len(coeffs) < 2:
        return ctx.mul(coeffs[0], u) if coeffs else 0
    if isinstance(ctx, FieldBatch):
        return ctx.linearized(coeffs, arg, u)
    powers = [u]
    for _ in coeffs[1:]:
        powers.append(u := step(u, arg))
    return ctx.dot(coeffs, powers)


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
        """Chain values, one per point, as the plan's `FieldBatch`: the input
        of `recover`.  DegreeMismatch for a value outside [0, q)."""
        return self._batch.spread(values)

    @cached_property
    def _solver(self):
        """The `GFpSolver` of the forward map (`_forward_columns`), built on
        the first recovery, so planning stays cheap, and shared by every
        pair of this plan.  Raises SingularMooreSystem when the points do
        not determine the coefficients."""
        return GFpSolver(self._batch, _forward_columns(self))

    def recover(self, values):
        """The coefficients r_0..r_D, packed base-field values, with
        sum(emb(r_i) * S^i(start)) equal to the chain value v_j at every
        point j, from all chain values as the plan's `FieldBatch` (`pack`,
        or `chain_evaluate`).  The solver reads the chain values of the
        shortest leading run of points that determines the coefficients and
        checks its answer at every point: chain values it does not
        reproduce, or slots outside [0, p), are inconsistent.  The batch
        reads r_i out of the answer's slots [i*m, (i+1)*m), m = deg base."""
        x = self._solver.solve(values)
        if x is None:
            raise SingularMooreSystem("chain values are inconsistent")
        return self._batch.values(x, self.degree_bound + 1, self.base_ring.ctx.m)

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


def extend_field(ctx, M):
    """GF(p^M) together with the deterministic embedding from ctx = GF(p^m).

    Requires m | M.  For M = m it returns ctx itself, whatever its modulus,
    with its Frobenius power 0, the identity.  Otherwise GF(p^M) has its
    default modulus and t goes to the least packed root of ctx's modulus
    there, so the embedding is reproducible; that root is found by trace
    splitting in time polynomial in m, M and log p, and memoized per
    (ctx, M).  p^M may exceed `field_new`'s domain p^m < 2^63."""
    if M % ctx.m != 0:
        raise NotAnExtension(f"GF({ctx.p}^{M}) does not contain GF({ctx.p}^{ctx.m})")
    if M == ctx.m:
        return ctx, ctx.frobenius(0)
    return _extension(ctx, M)


@cache
def _extension(ctx, M):
    big = _context(ctx.p, M)  # a working field may exceed field_new's domain
    return big, FieldEmbedding(ctx, big, _least_modulus_root(ctx, big))


def _least_modulus_root(ctx, big):
    """Least packed root in `big` of ctx's modulus h, by trace splitting
    (Cantor-Zassenhaus, Math. Comp. 1981).

    The roots of h lie in the subfield S of order p^m, and the relative traces
    delta_j = Tr_{M/m}(t^j) = sum_k (t^j)^(p^(k m)) span S over GF(p).  For
    delta in S, T = sum_i delta^(p^i) * (x^(p^i) mod h) takes the value
    Tr(delta * r) in GF(p) at every root r of h.  While T mod g is not
    constant, the roots of a factor g carry two trace values, and g is split
    by gcd(g, T) for p = 2, by gcd(g, (T + c)^((p-1)/2) - 1 mod g) for odd p
    and c = 0, 1, ... until the factor is proper; the smaller of it and its
    cofactor is kept.  The trace form is nondegenerate, so after every
    nonzero delta_j a single root r is left, every gcd a `gcrd` in big[x]
    with sigma the identity.  The roots of h are the Frobenius orbit of r,
    and the least of them is returned."""
    p, m, M = ctx.p, ctx.m, big.m
    ring = OreRing(big, Automorphism(big, 0))
    g = ring.from_packed(ctx.modulus)
    # x^(p^i) mod h, coefficients in GF(p): the i-th Frobenius of t in ctx;
    # u_k packs coefficient k of every x^(p^i), so that trace coefficient k
    # is the GF(p)-linear map with columns delta^(p^i) applied to u_k
    powers = [ctx.coords(ctx.frob(ctx.t_packed, i)) for i in range(m)]
    us = [ctx.pack(col) for col in zip(*powers)]
    single, one = big.single_batch(), ring.one()

    def mulmod(a, b):  # mod the current g
        return (a * b).right_divmod(g)[1]

    for j in range(M):
        if g.degree == 1:
            break
        delta = conj = p**j  # t^j and its conjugates over S
        for _ in range(M // m - 1):
            conj = big.frob(conj, m)
            delta = big.add(delta, conj)
        if not delta:
            continue
        conjugates = [delta]
        for _ in range(m - 1):
            conjugates.append(big.frob(conjugates[-1], 1))
        cols = single.columns(conjugates)
        rest = ring.from_packed([single.apply_packed(cols, u) for u in us])
        # T mod g; g shrinks to a factor, so T mod g is rest mod g after it
        while g.degree > 1 and (rest := rest.right_divmod(g)[1]).degree > 0:
            for c in range(p):
                h = rest if p == 2 else _pow(mulmod, one, rest + c, (p - 1) // 2) - 1
                if 0 < (d := gcrd(g, h)).degree < g.degree:
                    break
            g = d if 2 * d.degree <= g.degree else g.right_divmod(d)[0]
    if g.degree != 1:  # pragma: no cover
        raise AssertionError("modulus does not split in the extension")
    root = least = big.neg(g.coeffs[0])
    for _ in range(m - 1):
        root = big.frob(root, 1)
        least = min(least, root)
    return least


def embed_uni(f, plan):
    """Map an inner polynomial of the plan's base ring into the working
    field, coefficient-wise."""
    if f.ring != plan.base_ring.inner:
        raise RingMismatch("the polynomial is not over the plan's base ring")
    emb = plan.embedding.map_packed
    return plan.work_ring.inner.from_packed([emb(c) for c in f.coeffs])


def embed_bivar(f, plan):
    """Map a polynomial of the plan's base ring into the working field."""
    if f.ring != plan.base_ring:
        raise RingMismatch("the polynomial is not over the plan's base ring")
    return plan.work_ring.poly([embed_uni(c, plan) for c in f.coeffs])


def check_bad_eval(f, plan):
    """True iff f is zero or its leading x2-coefficient evaluates to zero at
    every plan point: the one-entry chain of that coefficient, embedded, is
    all zeros.  In the Frobenius regime the points are a GF(p)-basis, so the
    coefficient, read as an operator, is the zero map, which the linear
    independence of sigma1^0..sigma1^D rules out on a well-formed plan.  In
    the plug-in regime the coefficient vanishes at all D + 1 points, which
    its degree, at most D, rules out.  So `res_x2_modular` asserts that
    degree bound instead of evaluating."""
    if f.ring != plan.base_ring:
        raise RingMismatch("the polynomial is not over the plan's base ring")
    return f.is_zero or not chain_evaluate([embed_uni(f.lead_coeff, plan)], plan)


def chain_evaluate(diag, plan):
    """The diagonal chain's values at every plan point, per the composition
    formula (the row-order product d_1 * ... * d_k acts as d_1 applied
    last), as the plan's `FieldBatch`, value j at point j: the input of
    `ModularPlan.recover`.  Each entry is one `apply_formal`: in the
    Frobenius regime one GF(p)-linear map of the whole batch per
    non-constant entry and one batch product per constant, in the plug-in
    regime one evaluation per point.  The diagonal must lie over the plan's
    working field."""
    inner = plan.work_ring.inner
    if any(d.ring != inner for d in diag):
        raise RingMismatch("the diagonal is not over the plan's working field")
    coeff_rows = [d.coeffs for d in reversed(diag)]
    results = []
    for ctx, step, arg, u in plan.actions:
        for coeffs in coeff_rows:
            u = apply_formal(ctx, step, arg, coeffs, u)
        results.append(u)
    return results[0] if plan.mode == "frobenius" else plan.pack(results)


def _forward_columns(plan):
    """The columns of the forward map, from the base-field coordinates of
    r_0..r_D to the chain values of sum(emb(r_i) * x1^i): column i*m + k is
    emb(t^k) * S^i(start) at every plan point, as one value of the plan's
    `FieldBatch`, so slot i*m + k of the solver's x is digit k of r_i.  One
    pass over the actions takes each S-power once and multiplies it by each
    embedded basis element, where (D + 1) * m one-entry chains through
    `chain_evaluate` would take S^1..S^i again for every column."""
    emb = plan.embedding.map_packed
    basis = [emb(b.val) for b in plan.base_ring.ctx.prime_basis()]
    per_action = []
    for ctx, step, arg, u in plan.actions:
        out = []
        for i in range(plan.degree_bound + 1):
            if i:
                u = step(u, arg)
            out += [ctx.mul(b, u) for b in basis]
        per_action.append(out)
    if plan.mode == "frobenius":
        return per_action[0]
    return [plan.pack(col) for col in zip(*per_action)]


def _fold_constants(diag):
    """The diagonal with each run of constant entries (zero included)
    multiplied into one: a run left-multiplies the next non-constant entry,
    coefficient by coefficient, and a trailing run stays one constant.  The
    row-order product, and so every chain value, is unchanged, and a zero
    entry leaves a zero entry."""
    out, run = [], None  # run: the packed product of the current run
    for d in diag:
        ring, coeffs = d.ring, d.coeffs
        if d.degree > 0:
            if run is not None:
                d = ring.from_packed([ring.ctx.mul(run, c) for c in coeffs])
            out.append(d)
            run = None
        else:
            c = coeffs[0] if coeffs else 0
            run = c if run is None else ring.ctx.mul(run, c)
    return out if run is None else out + [ring.from_packed([run])]


def _pipeline(f, g, rule, seed):
    """Steps 1-3: triangularize the Sylvester matrix in the base field, plan,
    then fold the diagonal's constant runs (`_fold_constants`) and embed it.
    Returns the plan, the folded diagonal (inner polynomials over the
    working field) and the base-field op log."""
    tri, ops = triangularize_with_log(sylvester_matrix(f, g), rule=rule, seed=seed)
    plan = plan_modular(f, g)
    diag = _fold_constants([tri.rows[i][i] for i in range(tri.n)])
    return plan, [embed_uni(d, plan) for d in diag], ops


def partial_evaluations(f, g, rule="min_degree", seed=0):
    """Run the pipeline through step 4 and return (plan, partial evals): the
    PartialEval of every plan point, in point order, the batch's read-out
    of the chain values."""
    plan, diag, _ = _pipeline(f, g, rule, seed)
    values = plan._batch.values(chain_evaluate(diag, plan), len(plan.points))
    pairs = zip(plan.points, values, strict=True)
    return plan, tuple(PartialEval(pt, FieldElem(plan.work_ctx, v)) for pt, v in pairs)


def res_x2_modular(f, g, rule="min_degree", seed=0) -> DetResult:
    """res_{x2}(f, g) by evaluation and interpolation.

    Equals the direct representative coefficient-for-coefficient when both
    use the same pivot rule: the diagonal is the direct route's, embedded,
    and recovery returns the base-field coefficients of the one polynomial
    of degree at most D with those chain values.  The op log is the direct
    route's too.

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
    rep = base_inner.from_packed(plan.recover(chain_evaluate(diag, plan)))
    return DetResult(rep=rep, is_zero=rep.is_zero, degree=rep.degree, op_log=ops)
