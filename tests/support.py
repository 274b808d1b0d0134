"""Seeded random-instance generators shared across the test modules, and the
package's evaluation map on field elements."""

from oreelim import Automorphism, BivarRing, OreRing, field_new
from oreelim.modres import apply_formal


def ring_for(p, m, e=0):
    ctx = field_new(p, m)
    return OreRing(ctx, Automorphism(ctx, e))


def bivar_for(p, m, e1=0, e2=0):
    ctx = field_new(p, m)
    return BivarRing(ctx, Automorphism(ctx, e1), Automorphism(ctx, e2))


def rand_elem(ctx, rng, nonzero=False):
    lo = 1 if nonzero else 0
    return ctx.elem(rng.randrange(lo, ctx.q))


def rand_orepoly(ring, rng, max_deg, nonzero=False):
    """Random polynomial of degree <= max_deg (coefficients may vanish)."""
    q = ring.ctx.q
    while True:
        f = ring.from_packed([rng.randrange(q) for _ in range(rng.randrange(max_deg + 1) + 1)])
        if not nonzero or not f.is_zero:
            return f


def rand_orepoly_exact(ring, rng, deg):
    q = ring.ctx.q
    coeffs = [rng.randrange(q) for _ in range(deg)]
    coeffs.append(rng.randrange(1, q))
    return ring.from_packed(coeffs)


def rand_bivar(ring, rng, max_d2, max_d1, min_d2=0):
    """Random bivariate polynomial, x2-degree in [min_d2, max_d2]."""
    d2 = rng.randrange(min_d2, max_d2 + 1)
    return rand_bivar_exact(ring, rng, d2, max_d1)


def rand_bivar_exact(ring, rng, d2, max_d1):
    """Random bivariate polynomial of x2-degree exactly d2."""
    inner = ring.inner
    coeffs = [rand_orepoly(inner, rng, max_d1) for _ in range(d2)]
    coeffs.append(rand_orepoly(inner, rng, max_d1, nonzero=True))
    return ring.poly(coeffs)


def apply_op(f, a):
    """f's operator applied to the field element a by the package's one
    evaluation map, x acting as f's sigma."""
    ctx = f.ring.ctx
    return ctx.elem(apply_formal(ctx, ctx.frob, f.ring.sigma.e, f.coeffs, a.val))
