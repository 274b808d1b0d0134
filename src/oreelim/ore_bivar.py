"""The bivariate Ore algebra A[x1;sigma1][x2;sigma2].

Representation is recursive, as the algebra is an iterated Ore extension
(A[x1;sigma1])[x2;sigma2]: a polynomial is a sequence of inner OrePoly
values in x1, indexed by x2-power, highest-index coefficient nonzero, on the
same dense core (`ore_uni.DensePoly`) as the inner ring.  The
indeterminates commute with each other (x1*x2 = x2*x1) and each twists the
base-field coefficients by its own automorphism; moving x2 past an inner
polynomial applies sigma2 to its base coefficients and fixes x1, because
sigma2 fixes x1.  Both automorphisms are Frobenius powers, hence commute.
"""

from __future__ import annotations

from .errors import RingMismatch, ZeroPolynomial
from .field import Automorphism, FieldElem, _format_terms
from .ore_uni import DensePoly, OrePoly, OreRing, _normalize


class BivarRing:
    """A[x1;sigma1][x2;sigma2] over one field context."""

    __slots__ = ("ctx", "sigma1", "sigma2", "inner")

    def __init__(self, ctx, sigma1, sigma2):
        if not isinstance(sigma1, Automorphism) or sigma1.ctx != ctx:
            raise RingMismatch("sigma1 must be an automorphism of ctx")
        if not isinstance(sigma2, Automorphism) or sigma2.ctx != ctx:
            raise RingMismatch("sigma2 must be an automorphism of ctx")
        self.ctx = ctx
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        self.inner = OreRing(ctx, sigma1)

    def __eq__(self, other):
        return (
            isinstance(other, BivarRing)
            and self.ctx == other.ctx
            and self.sigma1 == other.sigma1
            and self.sigma2 == other.sigma2
        )

    def __hash__(self):
        return hash((self.ctx, self.sigma1, self.sigma2))

    def __repr__(self):
        return f"{self.ctx!r}[x1; {self.sigma1!r}][x2; {self.sigma2!r}]"

    # -- constructors ------------------------------------------------------------

    def zero(self):
        return BivarOrePoly(self, ())

    def one(self):
        return BivarOrePoly(self, (self.inner.one(),))

    def x1(self, k=1):
        return BivarOrePoly(self, (self.inner.x(k),))

    def x2(self, k=1):
        return BivarOrePoly(self, (self.inner.zero(),) * k + (self.inner.one(),))

    def constant(self, value):
        return self.poly([self.inner.constant(value)])

    def from_uni(self, f):
        """Embed an inner polynomial as an x2-degree-0 element."""
        if f.ring != self.inner:
            raise RingMismatch("inner polynomial from another ring")
        return BivarOrePoly(self, _normalize((f,)))

    def poly(self, coeffs):
        """Polynomial from a low-to-high sequence of inner-coercible values."""
        inner = []
        for c in coeffs:
            if isinstance(c, OrePoly):
                if c.ring != self.inner:
                    raise RingMismatch("coefficient from another inner ring")
                inner.append(c)
            elif isinstance(c, (FieldElem, int)):
                inner.append(self.inner.constant(c))
            elif isinstance(c, (list, tuple)):
                inner.append(self.inner.poly(c))
            else:
                raise RingMismatch(f"cannot use {type(c).__name__} as coefficient")
        return BivarOrePoly(self, _normalize(inner))


class BivarOrePoly(DensePoly):
    """Element of A[x1;sigma1][x2;sigma2]; immutable value type.  Its
    coefficients are inner OrePoly values, and `degree` is the x2-degree."""

    __slots__ = ()

    def coeff(self, i):
        """The x2^i coefficient (zero polynomial when out of range)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.inner.zero()

    @property
    def lead_coeff(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def max_inner_degree(self):
        """Largest x1-degree among the x2-coefficients (0 for constants)."""
        degs = [c.degree for c in self.coeffs if not c.is_zero]
        return max(degs) if degs else 0

    # -- arithmetic ------------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BivarOrePoly):
            if other.ring != self.ring:
                raise RingMismatch(
                    f"polynomials of {self.ring!r} and {other.ring!r} cannot mix"
                )
            return other
        if isinstance(other, OrePoly):
            return self.ring.from_uni(other)
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
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BivarOrePoly(self.ring, _normalize(out))

    def __neg__(self):
        return BivarOrePoly(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        a, b = self.coeffs, g.coeffs
        if not a or not b:
            return BivarOrePoly(self.ring, ())
        zero = self.ring.inner.zero()
        e2 = self.ring.sigma2.e
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai.is_zero:
                continue
            for j, bj in enumerate(b):
                if bj.is_zero:
                    continue
                out[i + j] = out[i + j] + ai * bj.coeff_twist(i * e2)
        return BivarOrePoly(self.ring, _normalize(out))

    def shift_left(self, k):
        """x2^k * self: coefficient of x2^(i+k) is sigma2^k applied to the
        x2^i coefficient (coefficient-wise on base-field values)."""
        if k < 0:
            raise RingMismatch("shift power must be nonnegative")
        if k == 0 or self.is_zero:
            return self
        e2 = self.ring.sigma2.e
        zero = self.ring.inner.zero()
        shifted = (zero,) * k + tuple(c.coeff_twist(k * e2) for c in self.coeffs)
        return BivarOrePoly(self.ring, shifted)

    # -- presentation ---------------------------------------------------------------

    def text(self):
        terms = [(i, c.text("x1")) for i, c in enumerate(self.coeffs) if c]
        return _format_terms(terms[::-1], "x2")
