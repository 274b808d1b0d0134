"""Operator evaluation: the ring morphism renaming x1 -> sigma1 and the
induced additive maps on the field.

A skew polynomial sum(a_i x^i) evaluates to the operator a -> sum(a_i *
sigma^i(a)), which is additive in a and GF(p)-linear because Frobenius fixes
the prime subfield.  The formal sigma-polynomials form a ring isomorphic to
A[x;sigma] (composition of operators corresponds to polynomial
multiplication), so `LinearizedOp` simply wraps an OrePoly read under the
renaming, kept *unreduced*: no quotient by sigma^ord - 1 is taken, since that
quotient has zero divisors and would break the Euclidean machinery the
elimination pipeline reuses.  The renaming therefore loses nothing formally,
but point evaluations alone stop distinguishing operators once the formal
degree reaches the order of sigma.

Equality of LinearizedOp values is equality of formal polynomials (strong);
equality as maps is checked by applying both operators to every element
(weaker).  Tests state which level they assert.
"""

from __future__ import annotations

from .errors import ContextMismatch, RingMismatch
from .field import FieldElem
from .ore_bivar import BivarOrePoly
from .ore_uni import OrePoly


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


class LinearizedOp:
    """A formal sigma-polynomial acting on its field as an additive map."""

    __slots__ = ("formal",)

    def __init__(self, formal):
        if not isinstance(formal, OrePoly):
            raise RingMismatch("LinearizedOp wraps an Ore polynomial")
        self.formal = formal

    @property
    def ring(self):
        return self.formal.ring

    @property
    def ctx(self):
        return self.formal.ring.ctx

    @property
    def sigma(self):
        return self.formal.ring.sigma

    @property
    def degree(self):
        return self.formal.degree

    def __call__(self, a):
        """sum(a_i * sigma^i(a)) for a field element a."""
        if not isinstance(a, FieldElem) or a.ctx != self.ctx:
            raise ContextMismatch("operator applied to element of another field")
        return FieldElem(self.ctx, self.apply_packed(a.val))

    def apply_packed(self, u):
        ctx = self.ctx
        return apply_formal(ctx, ctx.frob, self.sigma.e, self.formal.coeffs, u)

    def compose(self, other):
        """self after other; corresponds to multiplying the formal parts."""
        if not isinstance(other, LinearizedOp) or other.ring != self.ring:
            raise RingMismatch("composition needs operators over one ring")
        return LinearizedOp(self.formal * other.formal)

    def __mul__(self, other):
        if isinstance(other, LinearizedOp):
            return self.compose(other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, LinearizedOp):
            return LinearizedOp(self.formal + other.formal)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, LinearizedOp):
            return self.formal == other.formal
        return NotImplemented

    def __hash__(self):
        return hash(("LinearizedOp", self.formal))

    def __repr__(self):
        return self.formal.text("s")


def eval_uni(f):
    """Rename x -> sigma: a ring morphism A[x;sigma] -> A[sigma;o]."""
    if not isinstance(f, OrePoly):
        raise RingMismatch("eval_uni expects a univariate Ore polynomial")
    return LinearizedOp(f)


class OpBivarPoly:
    """A bivariate polynomial with operator-valued x1-coefficients: the image
    of a BivarOrePoly under coefficient-wise x1 -> sigma1 renaming.

    Multiplication twists coefficients with sigma2 exactly like the bivariate
    ring does; sigma1-powers commute with x2, so the twist is well defined.
    """

    __slots__ = ("inner",)

    def __init__(self, inner):
        if not isinstance(inner, BivarOrePoly):
            raise RingMismatch("OpBivarPoly wraps a bivariate Ore polynomial")
        self.inner = inner

    @property
    def degree(self):
        return self.inner.degree

    def coeff(self, i):
        return LinearizedOp(self.inner.coeff(i))

    @property
    def lead_coeff(self):
        return LinearizedOp(self.inner.lead_coeff)

    def __mul__(self, other):
        if isinstance(other, OpBivarPoly):
            return OpBivarPoly(self.inner * other.inner)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, OpBivarPoly):
            return OpBivarPoly(self.inner + other.inner)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, OpBivarPoly):
            return self.inner == other.inner
        return NotImplemented

    def __hash__(self):
        return hash(("OpBivarPoly", self.inner))

    def __repr__(self):
        return self.inner.text().replace("x1", "s1")


def eval_bivar(f):
    """Coefficient-wise renaming x1 -> sigma1 on a bivariate polynomial; a
    ring morphism because sigma1-powers commute with x2."""
    if not isinstance(f, BivarOrePoly):
        raise RingMismatch("eval_bivar expects a bivariate Ore polynomial")
    return OpBivarPoly(f)
