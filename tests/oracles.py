"""Independent brute-force reference implementations, used only by tests.

These deliberately avoid the package's polynomial and matrix code paths:
commutative polynomial arithmetic is done on plain int lists, determinants by
cofactor expansion, Ore products by moving x past one coefficient at a time,
conjugacy by enumerating every conjugator, primality and factoring by trial
division, irreducibility by Rabin's test, operator evaluation by repeated
`Automorphism` calls, linear systems by dense Gauss-Jordan on `FieldElem`
values.  Only the validated base-field scalar operations are shared.  The
exceptions are former package code paths kept as references for their
replacements:
`working_field_triangularization`, the modular route's former pipeline,
`shift_left`, the bivariate ring's former left x2-shift,
`least_modulus_root_enum`, the embedding-root search by subfield
enumeration, `mul_schoolbook`, the `poly` backend's former product,
`default_modulus_full_scan`, the default-modulus search without its
binomial skip, `recorded_elimination_recover`, recovery in the working
field by a recorded Gauss-Jordan elimination (`_eliminate`/`_replay`, the
field layer's former elimination), `recorded_elimination_inverse`, the
embedding's inverse by the same elimination replayed on a value,
`trace_dual_basis`, the closed form of the former Moore recovery,
`point_chain`/`point_bad_eval`, the chain and the bad-evaluation check one
plan point at a time, and
`triangularize_reference`, triangularization on `OrePoly` entries with
eagerly negated swaps.  The first three and `solve_dense` are the
references for the package's one elimination, `field.GFpSolver`.
"""


class FieldTooLarge(Exception):
    pass


def is_prime_trial(n):
    """Primality by trial division: the field layer's former test, kept as
    the reference for its Miller-Rabin replacement.  Slow on large primes."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors_trial(n):
    """Distinct prime factors of n in increasing order by trial division: the
    field layer's former factorization, kept as the reference for its
    Pollard-Brent replacement.  Slow when n has a large prime factor."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# -- commutative GF(p)[x] on little-endian int lists -------------------------


def ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return ptrim(out)


def psub(a, b, p):
    return padd(a, [(-c) % p for c in b], p)


def pmod(a, f, p):
    """Remainder of a modulo the monic f."""
    a = [c % p for c in a]
    df = len(f) - 1
    while len(a) > df:
        c = a.pop()
        for i in range(df):
            a[len(a) - df + i] = (a[len(a) - df + i] - c * f[i]) % p
    return ptrim(a)


def pgcd(a, b, p):
    """Monic gcd of a and b (not both zero)."""
    a, b = ptrim([c % p for c in a]), ptrim([c % p for c in b])
    while b:
        inv = pow(b[-1], p - 2, p)
        a, b = b, pmod(a, [c * inv % p for c in b], p)
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def is_irreducible_rabin(f, p):
    """Rabin's test for a monic f of degree m over GF(p): f divides
    x^(p^m) - x and is coprime to x^(p^(m/l)) - x for every prime l | m.  The
    field layer's former test, kept as the reference for Ben-Or's."""
    m = len(f) - 1

    def frob_power(k):  # x^(p^k) - x mod f, each p-th power by binary powering
        h = [0, 1]
        for _ in range(k):
            out, e = [1], p
            while e:
                if e & 1:
                    out = pmod(pmul(out, h, p), f, p)
                h = pmod(pmul(h, h, p), f, p)
                e >>= 1
            h = out
        return psub(h, [0, 1], p)

    if pmod(frob_power(m), f, p):
        return False
    return all(pgcd(f, frob_power(m // ell), p) == [1] for ell in prime_factors_trial(m))


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return ptrim(out)


def det_poly_matrix(rows, p):
    """Determinant of a matrix of GF(p)[x] entries by cofactor expansion,
    memoized on the set of used columns."""
    n = len(rows)
    memo = {}

    def det(r, mask):
        if r == n:
            return [1]
        key = mask
        if key in memo:
            return memo[key]
        total = []
        parity = 0
        for j in range(n):
            if mask & (1 << j):
                continue
            entry = rows[r][j]
            if entry:
                term = pmul(entry, det(r + 1, mask | (1 << j)), p)
                total = padd(total, term, p) if parity % 2 == 0 else psub(total, term, p)
            parity += 1
        memo[key] = total
        return total

    return det(0, 0)


def classical_resultant(f, g, p):
    """Textbook Sylvester resultant with respect to x2 for commutative
    bivariate polynomials given as lists (x2-power index) of GF(p)[x1]
    coefficient lists, both nonzero."""
    if not f or not g:
        raise ValueError("zero polynomial")
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    if size == 0:
        raise ValueError("both constant in x2")
    rows = []
    for i in range(1, m + 1):
        shift = m - i
        row = []
        for j in range(size):
            idx = (size - 1 - j) - shift
            row.append(list(f[idx]) if 0 <= idx <= n else [])
        rows.append(row)
    for i in range(1, n + 1):
        shift = n - i
        row = []
        for j in range(size):
            idx = (size - 1 - j) - shift
            row.append(list(g[idx]) if 0 <= idx <= m else [])
        rows.append(row)
    return det_poly_matrix(rows, p)


def bivar_mul_commutative(f, g, p):
    """Commutative bivariate product on nested coefficient lists."""
    if not f or not g:
        return []
    out = [[] for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = padd(out[i + j], pmul(a, b, p), p)
    while out and not out[-1]:
        out.pop()
    return out


# -- conversions between package values and plain lists ----------------------


def uni_to_list(f):
    """Coefficients of an OrePoly over a prime field as a plain int list."""
    assert f.ring.ctx.m == 1
    return list(f.coeffs)


def bivar_to_lists(f):
    """Nested int lists for a bivariate polynomial over a prime field."""
    assert f.ring.ctx.m == 1
    return [list(c.coeffs) for c in f.coeffs]


# -- Ore structure oracles -----------------------------------------------------


def shift_left(f, k):
    """x2^k * f for a bivariate f, by twisting each x2-coefficient by
    sigma2^k and moving it k places up: the former
    `BivarOrePoly.shift_left`, kept as the reference for the left
    x2-shifts that the Sylvester rows are made of."""
    from oreelim import BivarOrePoly

    if f.is_zero:
        return f
    e2 = f.ring.sigma2.e
    zero = f.ring.inner.zero()
    return BivarOrePoly(f.ring, (zero,) * k + tuple(c.coeff_twist(k * e2) for c in f.coeffs))


def naive_ore_mul(f, g):
    """Term-by-term skew product, moving x past one coefficient at a time;
    must agree with the packaged multiplication."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    ring = f.ring
    if f.is_zero or g.is_zero:
        return ring.zero()
    ctx = ring.ctx
    e = ring.sigma.e
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        for j, b in enumerate(g.coeffs):
            if not b:
                continue
            c = b
            for _ in range(i):  # one x crosses one coefficient per step
                c = ctx.frob(c, e)
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, c))
    return ring.from_packed(out)


def sigma_apply(f, a):
    """sum(c_i * sigma^i(a)) for an Ore polynomial f and a field element a of
    its ring, by FieldElem arithmetic and one Automorphism call per power of
    sigma: the operator evaluation that `modres.apply_formal` computes on
    packed values."""
    sigma = f.ring.sigma
    acc, cur = a.ctx.zero, a
    for i in range(len(f.coeffs)):
        if i:
            cur = sigma(cur)
        acc = acc + f.coeff(i) * cur
    return acc


def bivar_product_coeff_apply(f, g, k, a):
    """The x2^k-coefficient of f*g applied to a, without forming f*g: for
    f = sum(a_i x2^i) and g = sum(b_j x2^j), the sum over i + j = k of a_i
    applied after b_j twisted by sigma2^i, since x2^i * b_j = sigma2^i(b_j) *
    x2^i.  The twist maps each coefficient of b_j through the Automorphism
    sigma2, i times; the operators are applied by `sigma_apply`."""
    sigma2 = f.ring.sigma2
    acc = a.ctx.zero
    for i in range(k + 1):
        b = g.coeff(k - i)
        cs = [b.coeff(n) for n in range(len(b.coeffs))]
        for _ in range(i):
            cs = [sigma2(c) for c in cs]
        acc = acc + sigma_apply(f.coeff(i), sigma_apply(b.ring.poly(cs), a))
    return acc


def solve_dense(rows, rhs):
    """The unique x with rows * x = rhs, by dense Gauss-Jordan on FieldElem
    values.  Rows may outnumber columns; the leftover equations must reduce
    to 0 = 0.  Raises ValueError on a singular or inconsistent system."""
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(ncols):
        sel = next((k for k in range(col, len(aug)) if aug[k][col]), None)
        if sel is None:
            raise ValueError(f"no pivot in column {col}")
        aug[col], aug[sel] = aug[sel], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for k, row in enumerate(aug):
            if k != col and row[col]:
                c = row[col]
                aug[k] = [x - c * y for x, y in zip(row, aug[col])]
    if any(row[-1] for row in aug[ncols:]):
        raise ValueError("leftover equations are inconsistent")
    return [row[-1] for row in aug[:ncols]]


def brute_conjugacy(ctx, sigma):
    """Partition of the nonzero elements under a ~ sigma(c) * a * c^-1,
    by enumerating every conjugator c."""
    if ctx.q > 4096:
        raise FieldTooLarge(f"field of order {ctx.q} too large for enumeration")
    classes = []
    seen = set()
    for a in range(1, ctx.q):
        if a in seen:
            continue
        orbit = set()
        for c in range(1, ctx.q):
            orbit.add(ctx.mul(ctx.mul(ctx.frob(c, sigma.e), a), ctx.inv(c)))
        classes.append(frozenset(orbit))
        seen |= orbit
    return frozenset(classes)


def kernel_basis_mod_p(rows, p):
    """Basis of the right kernel {v : rows * v = 0} over GF(p), read off the
    reduced row-echelon form: one vector per free column."""
    r = [[x % p for x in row] for row in rows]
    ncols = len(r[0])
    pivots = []
    for col in range(ncols):
        cur = len(pivots)
        sel = next((k for k in range(cur, len(r)) if r[k][col]), None)
        if sel is None:
            continue
        r[cur], r[sel] = r[sel], r[cur]
        lead_inv = pow(r[cur][col], p - 2, p)
        r[cur] = [x * lead_inv % p for x in r[cur]]
        for k, row in enumerate(r):
            if k != cur and row[col]:
                c = row[col]
                r[k] = [(x - c * y) % p for x, y in zip(row, r[cur])]
        pivots.append(col)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][f] % p
        basis.append(v)
    return basis


def mul_schoolbook(ctx, u, v):
    """Packed u * v in ctx by coordinate convolution and reduction mod the
    modulus, one digit at a time: the `poly` backend's former product, kept
    as the reference for the product outside the log tables."""
    if u == 0 or v == 0:
        return 0
    p, m = ctx.p, ctx.m
    a = ctx.coords(u)
    b = ctx.coords(v)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    mod = ctx.modulus
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k] % p
        if c:
            base = k - m
            for i in range(m):
                prod[base + i] -= c * mod[i]
    return ctx.pack(prod[:m])


def default_modulus_full_scan(p, m):
    """The least monic irreducible of degree m over GF(p) by counter, every
    counter from 0 tried with Rabin's test: the default-modulus search before
    it learnt to skip the binomials t^m + c."""
    for counter in range(p**m):
        low = [counter // p**i % p for i in range(m)]
        if is_irreducible_rabin(low + [1], p):
            return tuple(low) + (1,)
    raise AssertionError("no irreducible polynomial found")


def least_modulus_root_enum(ctx, big):
    """Least packed root in `big` of ctx's modulus, found by enumerating the
    unique subfield of order p^m (kernel of x^(p^m) - x): the field layer's
    former search, kept as the reference for trace splitting.  It costs p^m
    Horner evaluations, and each element is built from the kernel basis by
    `add` and `mul`, so it shares no linear-map kernel with the search it
    checks."""
    p, m, M = ctx.p, ctx.m, big.m
    images = (big.coords(big.sub(big.frob(p**i, m % M), p**i)) for i in range(M))
    kern = kernel_basis_mod_p(list(zip(*images)), p)
    assert len(kern) == m, "subfield has wrong dimension"
    basis = [big.pack(v) for v in kern]
    roots = []
    for counter in range(p**m):
        # the element with the base-p digits of counter as its coordinates
        # on the kernel basis, by the field's own add and mul
        acc = 0
        for b in basis:
            counter, d = divmod(counter, p)
            acc = big.add(acc, big.mul(d, b))
        val = 0
        for coeff in reversed(ctx.modulus):
            val = big.add(big.mul(val, acc), coeff % p)
        if val == 0:
            roots.append(acc)
    assert len(roots) == m, "modulus does not split in the extension"
    return min(roots)


# -- the field layer's former recorded Gauss-Jordan elimination ---------------


def _eliminate(ctx, rows, ncols):
    """Gauss-Jordan elimination over ctx of a matrix of full column rank,
    recorded per column as (pivot row swapped into place, pivot inverse,
    (row, multiplier) pairs cleared against it)."""
    mul, sub = ctx.mul, ctx.sub
    a = [list(row) for row in rows]
    steps = []
    for col in range(ncols):
        sel = next((k for k in range(col, len(a)) if a[k][col]), None)
        if sel is None:  # pragma: no cover
            raise AssertionError("the matrix must have full column rank")
        a[col], a[sel] = a[sel], a[col]
        inv = ctx.inv(a[col][col])
        prow = [mul(inv, x) for x in a[col][col + 1 :]]
        a[col][col + 1 :] = prow
        elim = []
        for k, row in enumerate(a):
            c = row[col]
            if k != col and c:
                tail = zip(row[col + 1 :], prow)
                row[col + 1 :] = [sub(x, mul(c, y)) for x, y in tail]
                elim.append((k, c))
        steps.append((sel, inv, tuple(elim)))
    return tuple(steps)


def _replay(ctx, steps, rhs):
    """T * rhs in O(rows * cols), for the T with T * rows = [I; 0] that the
    recorded elimination applied.  The first ncols entries solve
    rows * x = rhs, and the system is consistent exactly when the leftover
    entries are all zero."""
    mul, sub = ctx.mul, ctx.sub
    v = list(rhs)
    for col, (sel, inv, elim) in enumerate(steps):
        v[col], v[sel] = v[sel], v[col]
        pv = v[col] = mul(inv, v[col])
        if pv:
            for k, c in elim:
                v[k] = sub(v[k], mul(c, pv))
    return v


def recorded_elimination_inverse(small, big, root):
    """The inverse of `FieldEmbedding(small, big, root)` by the recorded
    elimination of the root-power coordinates over GF(p), replayed on the
    coordinates of a value: the embedding's former inverse.  Returns a
    function from a packed big-field value to its packed preimage, or None
    when the leftover entries are not all zero."""
    from oreelim import field_new

    powers = [1]
    for _ in range(small.m - 1):
        powers.append(big.mul(powers[-1], root))
    gfp = field_new(big.p, 1)
    steps = _eliminate(gfp, zip(*(big.coords(v) for v in powers)), small.m)

    def inverse(v):
        out = _replay(gfp, steps, big.coords(v))
        return None if any(out[small.m :]) else small.pack(out[: small.m])

    return inverse


def trace_dual_basis(ctx):
    """The trace-dual basis b_0*, ..., b_{m-1}* of the power basis t^j, with
    Tr(b_j* * t^k) = delta_jk, in closed form: for the modulus f(x) =
    (x - t) * g(x), g = beta_0 + ... + beta_{m-1} x^{m-1}, b_j* = beta_j /
    f'(t) and f'(t) = g(t) (Lidl-Niederreiter, Finite Fields, ch. 2).  The
    former Moore recovery's basis, on FieldElem values."""
    t = ctx.elem(ctx.t_packed)
    beta = [ctx.one]  # g by synthetic division, highest coefficient first
    for c in ctx.modulus[-2:0:-1]:
        beta.append(c + t * beta[-1])
    beta.reverse()
    deriv = sum((b * t**j for j, b in enumerate(beta)), ctx.zero)
    return [b / deriv for b in beta]


# -- the modular route's former working-field pipeline -------------------------


def working_field_triangularization(f, g, plan, rule, seed):
    """Embed both inputs into the plan's working field, build the Sylvester
    matrix there and triangularize it.  Returns (diagonal, op log) over the
    working field."""
    from oreelim import embed_bivar, sylvester_matrix, triangularize_with_log

    syl = sylvester_matrix(embed_bivar(f, plan), embed_bivar(g, plan))
    diag, ops = triangularize_with_log(syl, rule=rule, seed=seed)
    return list(diag), ops


def recorded_elimination_recover(plan, values):
    """The working-field coefficients r_0..r_D (packed) with
    sum(r_i * S^i(start)) equal to the packed chain value at every plan
    point, by the recorded Gauss-Jordan elimination of the rows
    [S^i(start)], i = 0..D, replayed on the values: the modular route's
    recovery before its closed-form inverses, kept as the reference for
    the solver.  Raises SingularMooreSystem when the leftover equations do
    not reduce to zero."""
    from oreelim import SingularMooreSystem

    rows = []
    for step, arg, cur in point_actions(plan):
        row = [cur]
        for _ in range(plan.degree_bound):
            cur = step(cur, arg)
            row.append(cur)
        rows.append(row)
    steps = _eliminate(plan.work_ctx, rows, plan.degree_bound + 1)
    v = _replay(plan.work_ctx, steps, values)
    if any(v[len(steps) :]):
        raise SingularMooreSystem("chain values are inconsistent")
    return v[: len(steps)]


def point_actions(plan):
    """How x1 acts at each plan point, as (step, arg, start) on packed
    values of the working field: sigma1 started at the point, or
    multiplication by the point started at 1 when sigma1 is the identity.
    The modular route's former per-point actions."""
    ctx, e1 = plan.work_ctx, plan.work_ring.sigma1.e
    if e1:
        return [(ctx.frob, e1, pt.val) for pt in plan.points]
    return [(ctx.mul, pt.val, 1) for pt in plan.points]


def point_chain(diag, plan):
    """The packed chain value d_1(S)(... d_k(S)(start) ...) at every plan
    point, one point and one field operation at a time: the former
    `modres.chain_evaluate`, kept as the reference for the batched chain."""
    from oreelim.modres import apply_formal

    ctx = plan.work_ctx
    out = []
    for step, arg, u in point_actions(plan):
        for d in reversed(diag):
            u = apply_formal(ctx, step, arg, d.coeffs, u)
        out.append(u)
    return out


def point_bad_eval(f, plan):
    """The former `modres.check_bad_eval`: f is zero, or its embedded leading
    x2-coefficient evaluates to zero at every plan point, one point at a
    time."""
    from oreelim import embed_uni

    if f.is_zero:
        return True
    lead = embed_uni(f.lead_coeff, plan)
    return not any(point_chain([lead], plan))


# -- triangularization on OrePoly entries ------------------------------------


def _pick_pivot(cands, rule, rng):
    """The former `skewdet._pick_pivot`: the pivot row among cands, a list
    of (degree, row) of the nonzero entries at or below the diagonal."""
    if rule == "min_degree":
        return min(cands)[1]
    if rule == "first_nonzero":
        return min(row for _, row in cands)
    return rng.choice(sorted(row for _, row in cands))


def triangularize_reference(matrix, rule="min_degree", seed=0):
    """The former `skewdet.triangularize_with_log`, kept as the reference
    for the packed-row version: every entry is an `OrePoly`, every update
    goes through `right_divmod` and `addmul`, and a signed swap negates the
    row it moves.  Returns the same (OreMatrix, op log)."""
    import random

    from oreelim import OreMatrix
    from oreelim.skewdet import AddMulOp, SwapSignedOp

    n = matrix.n
    work = [list(r) for r in matrix.rows]
    ops = []
    rng = random.Random(seed) if rule == "random" else None

    def swap(i, j):
        old_j = work[j]
        work[j] = work[i]
        work[i] = [-e for e in old_j]
        ops.append(SwapSignedOp(i=i, j=j))

    def reduce_below(col):
        pivot = work[col][col]
        progressed = False
        for k in range(col + 1, n):
            ent = work[k][col]
            if ent.is_zero or ent.degree < pivot.degree:
                continue
            q, r = ent.right_divmod(pivot)
            nq = -q
            row = work[k]
            tail = zip(work[col][col + 1 :], row[col + 1 :])
            work[k] = row[:col] + [r] + [b.addmul(nq, a) for a, b in tail]
            ops.append(AddMulOp(src=col, dst=k, q=nq))
            progressed = True
        return progressed

    for col in range(n):
        while True:
            below = [k for k in range(col + 1, n) if not work[k][col].is_zero]
            if not below:
                break
            cands = [
                (work[k][col].degree, k)
                for k in range(col, n)
                if not work[k][col].is_zero
            ]
            k = _pick_pivot(cands, rule, rng)
            if k != col:
                swap(k, col)
            if not reduce_below(col):
                below = [k for k in range(col + 1, n) if not work[k][col].is_zero]
                if not below:
                    break
                k = min((work[k][col].degree, k) for k in below)[1]
                swap(k, col)
                reduce_below(col)
    return OreMatrix(matrix.ring, work), tuple(ops)
