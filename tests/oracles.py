"""Independent brute-force reference implementations, used only by tests.

These deliberately avoid the package's polynomial and matrix code paths:
commutative polynomial arithmetic is done on plain int lists, determinants by
cofactor expansion, Ore products by moving x past one coefficient at a time,
conjugacy by enumerating every conjugator, primality and factoring by trial
division.  Only the validated base-field scalar operations are shared.  The
one exception is
`working_field_triangularization`, the modular route's former pipeline kept
as the reference for the base-field diagonal that replaced it.
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


# -- the modular route's former working-field pipeline -------------------------


def working_field_triangularization(f, g, plan, rule, seed):
    """Embed both inputs into the plan's working field, build the Sylvester
    matrix there and triangularize it.  Returns (diagonal, op log) over the
    working field."""
    from oreelim import embed_bivar, sylvester_matrix, triangularize_with_log

    syl = sylvester_matrix(embed_bivar(f, plan), embed_bivar(g, plan))
    tri, ops = triangularize_with_log(syl.inner, rule=rule, seed=seed)
    return [tri.rows[i][i] for i in range(tri.n)], ops
