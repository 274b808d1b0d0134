"""The univariate Ore polynomial ring A[x;sigma] over a finite field.

Elements are dense coefficient sequences (packed field values, index i =
coefficient of x^i) normalized so the highest-index coefficient is nonzero;
the zero polynomial is the empty sequence with degree -inf.  That dense
core is `DensePoly`, written once for `OrePoly` and for `ore_bivar`'s
`BivarOrePoly`, whose coefficients are OrePoly values.  Multiplication
follows the commutation rule x*a = sigma(a)*x, so

    (a_i x^i) * (b_j x^j) = a_i * sigma^i(b_j) * x^(i+j),

and deg(f*g) = deg(f) + deg(g) because the coefficient field has no zero
divisors.  With sigma the identity this is ordinary commutative polynomial
arithmetic.  Products, `addmul` and every quotient step of `right_divmod`
run the field's one skew-product kernel, `FieldCtx.skew_addmul`, through
two helpers on packed coefficient tuples, `addmul_packed` and
`right_divmod_packed`; the `OrePoly` methods wrap them, and `skewdet`
calls them directly on its packed rows.

The same type doubles as the ring of formal sigma-polynomials (operator
composition as multiplication) under the renaming x <-> sigma;
`modres.apply_formal` applies one to a field element as the additive map
a -> sum(c_i * sigma^i(a)).  The ring stays formal, with no quotient by
sigma^ord - 1 (that quotient has zero divisors and would break the Euclidean
algorithm), so two polynomials can differ yet act alike on the field once
their degree reaches the order of sigma.  Divisibility conventions are
right-sided: quotients multiply the divisor from the left, matching row
operations that act by left multiplication.
"""

from __future__ import annotations

import operator

from .errors import BothZero, DivisionByZero, RingMismatch, ZeroPolynomial
from .field import NEG_INF, Automorphism, FieldCtx, FieldElem, _format_terms, _pow


class OreRing:
    """The ring A[x;sigma]: a field context plus one automorphism."""

    __slots__ = ("ctx", "sigma")

    def __init__(self, ctx, sigma):
        if not isinstance(ctx, FieldCtx):
            raise RingMismatch("ctx must be a FieldCtx")
        if not isinstance(sigma, Automorphism) or sigma.ctx != ctx:
            raise RingMismatch("sigma must be an automorphism of ctx")
        self.ctx = ctx
        self.sigma = sigma

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, OreRing)
            and self.ctx == other.ctx
            and self.sigma == other.sigma
        )

    def __hash__(self):
        return hash((self.ctx, self.sigma))

    def __repr__(self):
        return f"{self.ctx!r}[x; {self.sigma!r}]"

    # -- constructors ---------------------------------------------------------

    def zero(self):
        return OrePoly(self, ())

    def one(self):
        return OrePoly(self, (1,))

    def x(self, k=1):
        return OrePoly(self, (0,) * _exponent(k) + (1,))

    def constant(self, value):
        """Constant polynomial from a FieldElem or a prime-subfield int."""
        return self.poly([value])

    def poly(self, coeffs):
        """Polynomial from a low-to-high coefficient sequence of FieldElem or
        prime-subfield ints."""
        packed = []
        for c in coeffs:
            if isinstance(c, FieldElem):
                if c.ctx != self.ctx:
                    raise RingMismatch("coefficient from another field")
                packed.append(c.val)
            elif isinstance(c, int):
                packed.append(c % self.ctx.p)
            else:
                raise RingMismatch(f"cannot use {type(c).__name__} as coefficient")
        return OrePoly(self, _normalize(packed))

    def from_packed(self, packed):
        """Polynomial directly from packed coefficient values (trusted input)."""
        return OrePoly(self, _normalize(list(packed)))


def _exponent(k):
    """k, the exponent of a power of a polynomial, when it is not negative."""
    if k < 0:
        raise DivisionByZero("negative powers are not polynomials")
    return k


def _normalize(coeffs):
    """Trailing zero coefficients dropped: packed ints and inner polynomials
    are both falsy exactly when zero."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class DensePoly:
    """The dense-polynomial core shared by `OrePoly` and
    `ore_bivar.BivarOrePoly`: a ring and a normalized coefficient tuple (index
    i = coefficient of the i-th power).  A subclass supplies `_coerce`, which
    maps an operand into its ring or returns None, `__add__`, `__neg__`,
    `__mul__` and `text`; everything else is written once here."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.ring == other.ring and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g + (-self)

    def __rmul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g * self

    def __pow__(self, k):
        return _pow(operator.mul, self.ring.one(), self, _exponent(k))

    def __str__(self):
        return self.text()

    __repr__ = __str__


class OrePoly(DensePoly):
    """A skew polynomial; immutable value type."""

    __slots__ = ()

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return FieldElem(self.ring.ctx, self.coeffs[i])
        return self.ring.ctx.zero

    @property
    def lead_coeff(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return FieldElem(self.ring.ctx, self.coeffs[-1])

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, OrePoly):
            if other.ring != self.ring:
                raise RingMismatch(
                    f"polynomials of {self.ring!r} and {other.ring!r} cannot mix"
                )
            return other
        if isinstance(other, (FieldElem, int)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        a, b = self.coeffs, g.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.ring.ctx.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return OrePoly(self.ring, _normalize(out))

    def __neg__(self):
        if self.ring.ctx.p == 2:
            return self
        return OrePoly(self.ring, self.ring.ctx.neg_seq(self.coeffs))

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return OrePoly(self.ring, ()).addmul(self, g)

    def addmul(self, q, a):
        """self + q*a in one pass: the field's skew-product kernel adds every
        product term into a copy of self's coefficients in place."""
        ring = self.ring
        for g in (q, a):
            if not isinstance(g, OrePoly) or g.ring != ring:
                raise RingMismatch(f"addmul operands must live in {ring!r}")
        if not q.coeffs or not a.coeffs:
            return self
        ctx, e = ring.ctx, ring.sigma.e
        return OrePoly(ring, addmul_packed(ctx, e, self.coeffs, q.coeffs, a.coeffs, {}))

    # -- Euclidean structure ------------------------------------------------------

    def right_divmod(self, b):
        """q, r with self = q*b + r and deg r < deg b (quotient on the left)."""
        b = self._coerce(b)
        if b is None or not isinstance(b, OrePoly):
            raise RingMismatch("divisor must live in the same ring")
        if b.is_zero:
            raise DivisionByZero("right division by the zero polynomial")
        ring = self.ring
        if len(self.coeffs) < len(b.coeffs):
            return OrePoly(ring, ()), self
        ctx, e, bc = ring.ctx, ring.sigma.e, b.coeffs
        q, r = right_divmod_packed(ctx, e, self.coeffs, bc, {}, ctx.inv(bc[-1]))
        return OrePoly(ring, q), OrePoly(ring, r)

    def monic(self):
        """lc(f)^-1 * f: left-multiplication by the inverse leading coefficient."""
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        ctx = self.ring.ctx
        c = ctx.inv(lc)
        return OrePoly(self.ring, tuple(ctx.mul(c, a) for a in self.coeffs))

    def coeff_twist(self, e):
        """Apply the e-th Frobenius to every coefficient (degree-preserving)."""
        if e % self.ring.ctx.m == 0 or self.is_zero:
            return self
        frob = self.ring.ctx.frob
        return OrePoly(self.ring, tuple(frob(c, e) for c in self.coeffs))

    # -- presentation -----------------------------------------------------------

    def text(self, var="x"):
        ctx = self.ring.ctx
        terms = [(i, str(FieldElem(ctx, c))) for i, c in enumerate(self.coeffs) if c]
        return _format_terms(terms[::-1], var)


# -- the packed core: coefficient tuples in, coefficient tuples out -----------
#
# `OrePoly` arithmetic wraps these, and `skewdet` triangularizes on them
# directly, so each loop exists once.  b, q and a are normalized packed
# coefficient sequences over ctx with x*c = frob(c, e)*x; `twists` is a
# dict that `FieldCtx.skew_addmul` fills with the twisted copies of the
# right factor or divisor, fresh for each `OrePoly` call.


def addmul_packed(ctx, e, bc, qc, ac, twists):
    """The coefficients of b + q*a, for q and a nonzero; `twists` memoizes
    a's twists."""
    out = list(bc)
    n = len(qc) + len(ac) - 1
    if len(out) < n:
        out += [0] * (n - len(out))
    ctx.skew_addmul(out, qc, ac, e, twists)
    return _normalize(out)


def right_divmod_packed(ctx, e, ac, bc, twists, lead_inv):
    """The coefficients of q and r with a = q*b + r and deg r < deg b, for
    b nonzero and deg a >= deg b; `twists` memoizes b's twists and
    `lead_inv` is the inverse of b's leading coefficient."""
    db = len(bc) - 1
    r = list(ac)
    q = [0] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        top = r[k + db]
        if top:
            # twisted per term: sigma^k(b_lead)^-1
            qk = q[k] = ctx.mul(top, ctx.frob(lead_inv, k * e))
            # r <- r + (-qk x^k) * b, which clears r[k + db]
            ctx.skew_addmul(r, (0,) * k + (ctx.neg(qk),), bc, e, twists)
    return _normalize(q), _normalize(r[:db])


def gcrd(f, g):
    """Monic greatest common right divisor via the right-Euclidean algorithm."""
    if not isinstance(f, OrePoly) or not isinstance(g, OrePoly):
        raise RingMismatch("gcrd expects two Ore polynomials")
    if f.ring != g.ring:
        raise RingMismatch("gcrd of polynomials from different rings")
    if f.is_zero and g.is_zero:
        raise BothZero("gcrd(0, 0) is undefined")
    while not g.is_zero:
        f, g = g, f.right_divmod(g)[1]
    return f.monic()
