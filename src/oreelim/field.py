"""Exact arithmetic for GF(p^m) with Frobenius-power automorphisms.

An element of GF(p^m) = GF(p)[t]/(modulus) is identified with its coordinate
vector (c_0, ..., c_{m-1}) with respect to the power basis 1, t, ..., t^(m-1)
and packed into a single integer sum(c_i * p**i).  Packed value 0 is the zero
of the field and packed value 1 is its one.  `FieldCtx` exposes arithmetic on
packed values (`add`, `mul`, `inv`, `frob`, ...); `FieldElem` is the value
wrapper with operator overloading used at API boundaries.

Three arithmetic backends are selected automatically from the field order
q = p^m:

*  ``table`` (q <= 65536): discrete-log tables over a deterministically chosen
   generator; mul/inv/frobenius are O(1).  For odd p, add/sub/neg are O(1)
   too: a Zech-logarithm table zech[k] = log(1 + g^k) gives
   g^a + g^b = g^(a + zech[b - a]), and a negation table uses
   -1 = g^((q-1)/2) (Huber, IEEE Trans. IT 1990).  Other odd-p fields add
   digit by digit; p == 2 adds by XOR on every backend.
*  ``bits``  (p == 2, q > 65536): carry-less arithmetic on bit-packed ints.
*  ``poly``  (otherwise): coordinate convolution plus reduction, with cached
   Frobenius basis images so that applying sigma costs about one mul.

Every GF(p)-linear map between packed values -- a Frobenius power, the
multiplication-by-generator step of the table build, the embedding
GF(p^m) -> GF(p^M) and its inverse -- is stored as the images of the power
basis (`FieldCtx._columns`) and applied by one kernel, `FieldCtx._combine`.

Contexts are immutable after construction and cached by (p, m, modulus), so
repeated `field_new` calls are cheap and all values of one field share state.
Fields are restricted to p^m < 2^63 (machine-word residue packing).
"""

from __future__ import annotations

import threading
from math import gcd

from .errors import (
    ContextMismatch,
    DegreeMismatch,
    DivisionByZero,
    NotAnExtension,
    NotPrime,
    ReducibleModulus,
    ZeroElement,
)

NEG_INF = float("-inf")

_TABLE_MAX = 1 << 16
_ORDER_MAX = 1 << 63


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Miller-Rabin over the 12 smallest prime bases: exact for n < 2^64
    (Sorenson-Webster, Math. Comp. 2017), so for every p with p^m < 2^63.
    Above that it is a probable-prime answer, which only decides whether an
    out-of-range p is reported as NotPrime or as too large."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    """Distinct prime factors of n >= 1 in increasing order: the primes up to
    37 by trial division, the cofactor split by Pollard-Brent rho until
    `_is_prime` accepts every part."""
    out = set()
    for b in _MR_BASES:
        if n % b == 0:
            out.add(b)
            while n % b == 0:
                n //= b
    parts = [n] if n > 1 else []
    while parts:
        k = parts.pop()
        if _is_prime(k):
            out.add(k)
        else:
            d = _rho_factor(k)
            parts += [d, k // d]
    return sorted(out)


def _rho_factor(n):
    """A proper factor of the composite n, which has no prime factor below
    41: Pollard's rho with Brent's cycle search and batched gcds (Brent,
    BIT 1980), trying x^2 + c for c = 1, 2, ... until one splits n."""
    c = 0
    while True:
        c += 1
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


# ---------------------------------------------------------------------------
# GF(p)[t] on little-endian coefficient lists (internal; used for modulus
# validation and the default-modulus search).


def _gfp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _gfp_trim([c % p for c in out])


def _gfp_mod(a, f, p):
    # f monic
    a = [c % p for c in a]
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1]
        if c:
            k = len(a) - 1 - df
            for i in range(df):
                a[k + i] = (a[k + i] - c * f[i]) % p
        a.pop()
    return _gfp_trim(a)


def _gfp_gcd(a, b, p):
    a, b = list(a), list(b)
    _gfp_trim(a)
    _gfp_trim(b)
    while b:
        if len(a) >= len(b):
            lead_inv = pow(b[-1], p - 2, p)
            monic_b = [(c * lead_inv) % p for c in b]
            a = _gfp_mod(a, monic_b, p)
        a, b = b, a
    return a


def _gfp_powmod(base, e, f, p):
    result = [1]
    b = _gfp_mod(list(base), f, p)
    while e:
        if e & 1:
            result = _gfp_mod(_gfp_mul(result, b, p), f, p)
        b = _gfp_mod(_gfp_mul(b, b, p), f, p)
        e >>= 1
    return result


def _is_irreducible(f, p):
    """Rabin's test for a monic polynomial f over GF(p)."""
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    # x^(p^m) == x mod f
    h = x
    for _ in range(m):
        h = _gfp_powmod(h, p, f, p)
    if _gfp_trim([(a - b) % p for a, b in _zip_pad(h, x)]) != []:
        return False
    for ell in _prime_factors(m):
        h = x
        for _ in range(m // ell):
            h = _gfp_powmod(h, p, f, p)
        diff = _gfp_trim([(a - b) % p for a, b in _zip_pad(h, x)])
        g = _gfp_gcd(list(f), diff, p)
        if len(g) - 1 != 0:
            return False
    return True


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _default_modulus(p, m):
    """Least monic irreducible of degree m: the lower coefficients are the
    base-p digits of the smallest counter giving irreducibility."""
    for counter in range(p**m):
        low = []
        c = counter
        for _ in range(m):
            c, r = divmod(c, p)
            low.append(r)
        f = low + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


# ---------------------------------------------------------------------------


class FieldCtx:
    """The finite field GF(p^m), its modulus, and its packed-value arithmetic."""

    __slots__ = (
        "p",
        "m",
        "q",
        "modulus",
        "backend",
        "_exp",
        "_log",
        "_zech",
        "_neg",
        "_pe",
        "_generator",
        "_modbits",
        "_frob_images",
        "_zero_elem",
        "_one_elem",
    )

    def __init__(self, p, m, modulus=None, backend=None):
        if not isinstance(p, int) or not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if not isinstance(m, int) or m < 1:
            raise DegreeMismatch(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q >= _ORDER_MAX:
            raise DegreeMismatch(f"field order {p}^{m} exceeds 2^63")
        self.p = p
        self.m = m
        self.q = q
        if modulus is None:
            self.modulus = _default_modulus(p, m)
        else:
            mod = [int(c) % p for c in modulus]
            if len(mod) != m + 1 or mod[-1] != 1:
                raise DegreeMismatch(
                    f"modulus must be monic of degree {m}, got {tuple(modulus)}"
                )
            if not _is_irreducible(mod, p):
                raise ReducibleModulus(f"modulus {tuple(mod)} is reducible over GF({p})")
            self.modulus = tuple(mod)
        if backend is None:
            if q <= _TABLE_MAX:
                backend = "table"
            elif p == 2:
                backend = "bits"
            else:
                backend = "poly"
        self.backend = backend
        self._exp = None
        self._log = None
        self._zech = None
        self._neg = None
        self._pe = [pow(p, e, q - 1) for e in range(m)] if q > 2 else [0] * m
        self._generator = None
        self._modbits = None
        self._frob_images = {}
        if backend == "table":
            self._build_tables()
        elif backend == "bits":
            self._modbits = self.pack(self.modulus)
        self._zero_elem = FieldElem(self, 0)
        self._one_elem = FieldElem(self, 1)

    # -- identity / presentation --------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return self.spec_string()

    def spec_string(self):
        """Canonical field-spec text, e.g. ``GF(2^2; modulus = 1 + t + t^2)``."""
        terms = []
        for i, c in enumerate(self.modulus):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        mod_text = " + ".join(terms)
        if self.m == 1:
            return f"GF({self.p}; modulus = {mod_text})"
        return f"GF({self.p}^{self.m}; modulus = {mod_text})"

    # -- packing -------------------------------------------------------------

    def coords(self, u):
        """Coordinates of packed value u w.r.t. the power basis."""
        p = self.p
        if p == 2:
            return tuple((u >> i) & 1 for i in range(self.m))
        out = []
        for _ in range(self.m):
            u, r = divmod(u, p)
            out.append(r)
        return tuple(out)

    def pack(self, cs):
        p = self.p
        val = 0
        for c in reversed(list(cs)):
            val = val * p + (c % p)
        return val

    # -- element constructors -------------------------------------------------

    @property
    def zero(self):
        return self._zero_elem

    @property
    def one(self):
        return self._one_elem

    def from_int(self, n):
        """Image of the integer n in the prime subfield."""
        return FieldElem(self, n % self.p)

    def from_coords(self, cs):
        cs = list(cs)
        if len(cs) > self.m:
            raise DegreeMismatch(f"expected at most {self.m} coordinates")
        return FieldElem(self, self.pack(cs))

    def elem(self, packed):
        if not 0 <= packed < self.q:
            raise DegreeMismatch(f"packed value {packed} out of range for {self!r}")
        return FieldElem(self, packed)

    def elements(self):
        """All field elements in packed order (desk-scale fields only)."""
        for u in range(self.q):
            yield FieldElem(self, u)

    def prime_basis(self):
        """The power basis 1, t, ..., t^(m-1): GF(p)-linearly independent."""
        return [FieldElem(self, self.p**i) for i in range(self.m)]

    # -- packed arithmetic -----------------------------------------------------

    def add(self, u, v):
        p = self.p
        if p == 2:
            return u ^ v
        zech = self._zech
        if zech is not None:
            if not u:
                return v
            if not v:
                return u
            log = self._log
            lu = log[u]
            z = zech[log[v] - lu]  # a negative index wraps mod q - 1
            return self._exp[lu + z] if z >= 0 else 0
        out = 0
        mult = 1
        for _ in range(self.m):
            u, cu = divmod(u, p)
            v, cv = divmod(v, p)
            out += ((cu + cv) % p) * mult
            mult *= p
        return out

    def neg(self, u):
        p = self.p
        if p == 2:
            return u
        if self._neg is not None:
            return self._neg[u]
        out = 0
        mult = 1
        for _ in range(self.m):
            u, c = divmod(u, p)
            out += ((-c) % p) * mult
            mult *= p
        return out

    def sub(self, u, v):
        if self.p == 2:
            return u ^ v
        neg = self._neg
        return self.add(u, neg[v] if neg is not None else self.neg(v))

    def mul(self, u, v):
        if self.backend == "table":
            if u == 0 or v == 0:
                return 0
            return self._exp[self._log[u] + self._log[v]]
        if self.backend == "bits":
            return self._mul_bits(u, v)
        return self._mul_raw(u, v)

    def inv(self, u):
        if u == 0:
            raise DivisionByZero("inverse of zero field element")
        if self.backend == "table":
            return self._exp[self.q - 1 - self._log[u]]
        if self.backend == "bits":
            return self._inv_bits(u)
        return self._inv_poly(u)

    def pow_packed(self, u, k):
        if u == 0:
            if k == 0:
                return 1
            if k < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        if self.backend == "table":
            return self._exp[(self._log[u] * k) % (self.q - 1)]
        if k < 0:
            u = self.inv(u)
            k = -k
        return self._pow_raw(u, k % (self.q - 1))

    def frob(self, u, e):
        """u raised to the p^e power (the e-th Frobenius)."""
        e %= self.m
        if e == 0 or u < 2:
            return u
        if self.backend == "table":
            return self._exp[(self._log[u] * self._pe[e]) % (self.q - 1)]
        images = self._frob_images.get(e) or self._build_frob_images(e)
        return self._combine(images, u)

    # -- GF(p)-linear maps given by the images of the power basis ---------------

    def _columns(self, values):
        """Column list of the GF(p)-linear map sending the i-th power basis
        element of its source to the packed value values[i] of this field."""
        if self.p == 2:
            return list(values)
        return [self.coords(v) for v in values]

    def _combine(self, cols, u):
        """The map with columns `cols` applied to packed u: the sum of
        c_i * cols[i] over the base-p digits c_i of u, packed in this field."""
        if self.p == 2:
            out = 0
            i = 0
            while u:
                if u & 1:
                    out ^= cols[i]
                u >>= 1
                i += 1
            return out
        p = self.p
        acc = [0] * self.m
        i = 0
        while u:
            u, c = divmod(u, p)
            if c:
                col = cols[i]
                for j in range(self.m):
                    acc[j] += c * col[j]
            i += 1
        return self.pack(acc)

    # -- raw coordinate arithmetic (backend-independent bootstrap) -------------

    def _mul_raw(self, u, v):
        if u == 0 or v == 0:
            return 0
        p, m = self.p, self.m
        a = self.coords(u)
        b = self.coords(v)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        mod = self.modulus
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                base = k - m
                for i in range(m):
                    prod[base + i] -= c * mod[i]
        return self.pack(prod[:m])

    def _inv_poly(self, u):
        p = self.p
        r0 = list(self.modulus)
        r1 = _gfp_trim(list(self.coords(u)))
        s0, s1 = [], [1]
        while len(r1) > 1:
            # one full division step: r0 = q*r1 + r
            q = [0] * (len(r0) - len(r1) + 1)
            lead_inv = pow(r1[-1], p - 2, p)
            r = list(r0)
            while len(r) >= len(r1) and r:
                c = (r[-1] * lead_inv) % p
                k = len(r) - len(r1)
                q[k] = c
                if c:
                    for i in range(len(r1)):
                        r[k + i] = (r[k + i] - c * r1[i]) % p
                _gfp_trim(r)
            r0, r1 = r1, r
            s0, s1 = s1, _gfp_trim(
                [(a - b) % p for a, b in _zip_pad(s0, _gfp_mul(q, s1, p))]
            )
        c_inv = pow(r1[0], p - 2, p)
        return self.pack([(c * c_inv) % p for c in s1])

    # -- bits backend (p == 2) -------------------------------------------------

    def _mul_bits(self, u, v):
        r = 0
        while u:
            if u & 1:
                r ^= v
            u >>= 1
            v <<= 1
        m = self.m
        mb = self._modbits
        top = r.bit_length()
        while top > m:
            r ^= mb << (top - m - 1)
            top = r.bit_length()
        return r

    def _inv_bits(self, u):
        mb = self._modbits
        r0, r1 = mb, u
        s0, s1 = 0, 1
        while r1 not in (0, 1):
            q = 0
            d1 = r1.bit_length()
            while r0.bit_length() >= d1:
                sh = r0.bit_length() - d1
                q ^= 1 << sh
                r0 ^= r1 << sh
            # carry-less q*s1
            qs = 0
            qq = q
            ss = s1
            while qq:
                if qq & 1:
                    qs ^= ss
                qq >>= 1
                ss <<= 1
            r0, r1 = r1, r0
            s0, s1 = s1, s0 ^ qs
        if r1 == 0:  # pragma: no cover - modulus irreducible
            raise DivisionByZero("inverse of zero field element")
        # reduce s1 mod modulus
        m = self.m
        top = s1.bit_length()
        while top > m:
            s1 ^= mb << (top - m - 1)
            top = s1.bit_length()
        return s1

    # -- cached structure -------------------------------------------------------

    def _build_frob_images(self, e):
        """Images of the power basis under x -> x^(p^e).

        Lazily memoized; concurrent builds compute identical values, so the
        benign race keeps contexts shareable across threads."""
        tau = self._pow_raw(self.p, self.p**e)  # t^(p^e)
        mul = self._mul_bits if self.backend == "bits" else self._mul_raw
        images = [1]
        for _ in range(self.m - 1):
            images.append(mul(images[-1], tau))
        self._frob_images[e] = cols = self._columns(images)
        return cols

    def _pow_raw(self, u, k):
        mul = self._mul_bits if self.backend == "bits" else self._mul_raw
        result = 1
        b = u
        while k:
            if k & 1:
                result = mul(result, b)
            b = mul(b, b)
            k >>= 1
        return result

    @property
    def generator(self):
        """Deterministic generator of the multiplicative group (least packed
        primitive element)."""
        if self._generator is None:
            self._generator = self._find_generator()
        return FieldElem(self, self._generator)

    def _find_generator(self):
        order = self.q - 1
        factors = _prime_factors(order) if order > 1 else []
        for cand in range(1, self.q):
            if all(self._pow_raw(cand, order // ell) != 1 for ell in factors):
                return cand
        raise AssertionError("no generator found")  # pragma: no cover

    def _build_tables(self):
        q = self.q
        g = self._find_generator()
        self._generator = g
        exp = [0] * max(q - 1, 1)
        exp[0] = 1
        mulg = self._columns([self._mul_raw(g, self.p**i) for i in range(self.m)])
        cur = 1
        for k in range(1, q - 1):
            cur = self._combine(mulg, cur)
            exp[k] = cur
        log = [0] * q
        for k, v in enumerate(exp):
            log[v] = k
        # exp stored twice over: a sum of two logs indexes it without a modulo
        self._exp = exp2 = exp + exp
        self._log = log
        p = self.p
        if p != 2:
            # 1 + g^k changes only digit 0 of g^k; it is 0 exactly when
            # g^k = -1 = g^((q-1)/2)
            last = p - 1
            zech = []
            for w in exp:
                w1 = w + 1 if w % p != last else w - last
                zech.append(log[w1] if w1 else -1)
            half = (q - 1) // 2
            self._zech = zech
            self._neg = [0] + [exp2[log[u] + half] for u in range(1, q)]


class FieldElem:
    """A value in GF(p^m); immutable, hashable, with operator overloading."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    @property
    def coords(self):
        return self.ctx.coords(self.val)

    @property
    def is_zero(self):
        return self.val == 0

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.ctx != self.ctx:
                raise ContextMismatch(
                    f"elements of {self.ctx!r} and {other.ctx!r} cannot mix"
                )
            return other.val
        if isinstance(other, int):
            return other % self.ctx.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.sub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.sub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.mul(self.val, self.ctx.inv(v)))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.mul(v, self.ctx.inv(self.val)))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg(self.val))

    def __pow__(self, k):
        return FieldElem(self.ctx, self.ctx.pow_packed(self.val, k))

    def inverse(self):
        return FieldElem(self.ctx, self.ctx.inv(self.val))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.ctx.p
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.val))

    def __bool__(self):
        return self.val != 0

    def __str__(self):
        terms = []
        for i, c in reversed(list(enumerate(self.coords))):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(terms) if terms else "0"

    __repr__ = __str__


class Automorphism:
    """A Frobenius power sigma: a -> a^(p^e) on a fixed field context.

    Any two Automorphism values on the same context commute, and
    Frobenius(e1) o Frobenius(e2) = Frobenius((e1 + e2) mod m).
    """

    __slots__ = ("ctx", "e")

    def __init__(self, ctx, e):
        self.ctx = ctx
        self.e = int(e) % ctx.m

    def __call__(self, a):
        if not isinstance(a, FieldElem) or a.ctx != self.ctx:
            raise ContextMismatch("automorphism applied to element of another field")
        return FieldElem(self.ctx, self.ctx.frob(a.val, self.e))

    def compose(self, other):
        if other.ctx != self.ctx:
            raise ContextMismatch("cannot compose automorphisms of different fields")
        return Automorphism(self.ctx, self.e + other.e)

    def inverse(self):
        return Automorphism(self.ctx, -self.e)

    @property
    def order(self):
        return self.ctx.m // gcd(self.e, self.ctx.m) if self.e else 1

    @property
    def is_identity(self):
        return self.e == 0

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Automorphism)
            and self.ctx == other.ctx
            and self.e == other.e
        )

    def __hash__(self):
        return hash((self.ctx, self.e))

    def __repr__(self):
        return f"Frobenius({self.e})"


# ---------------------------------------------------------------------------
# Module-level operations


_CTX_CACHE = {}
_CTX_LOCK = threading.Lock()


def field_new(p, m, modulus=None):
    """Validated, cached context for GF(p^m).

    When modulus is omitted the lexicographically least monic irreducible of
    degree m is selected, so runs are bit-reproducible.
    """
    key = (p, m, tuple(int(c) for c in modulus) if modulus is not None else None)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        with _CTX_LOCK:
            ctx = _CTX_CACHE.get(key)
            if ctx is None:
                ctx = FieldCtx(p, m, modulus=modulus)
                _CTX_CACHE[key] = ctx
                _CTX_CACHE.setdefault((p, m, ctx.modulus), ctx)
    return ctx


def sigma_norm(sigma, a):
    """The product a * sigma(a) * ... * sigma^(k-1)(a), k = order of sigma.

    Two nonzero elements are sigma-conjugate (b = sigma(c) * a * c^-1 for some
    nonzero c) exactly when their norms agree; the brute-force enumeration in
    the test suite checks this partition claim.
    """
    if not isinstance(a, FieldElem) or a.ctx != sigma.ctx:
        raise ContextMismatch("norm of element from another field")
    if a.is_zero:
        raise ZeroElement("sigma-norm of zero is undefined")
    ctx = sigma.ctx
    out = 1
    cur = a.val
    for _ in range(sigma.order):
        out = ctx.mul(out, cur)
        cur = ctx.frob(cur, sigma.e)
    return FieldElem(ctx, out)


# ---------------------------------------------------------------------------
# GF(p) linear algebra (prime-subfield helpers)


def rref_with_transform_mod_p(rows, p):
    """Row-reduce ``rows`` over GF(p); returns (R, T, pivot_cols) with
    T * rows == R and R in reduced row-echelon form."""
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = [list(row) for row in rows]
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivots = []
    cur = 0
    for col in range(ncols):
        pivot = None
        for k in range(cur, n):
            if r[k][col] % p:
                pivot = k
                break
        if pivot is None:
            continue
        r[cur], r[pivot] = r[pivot], r[cur]
        t[cur], t[pivot] = t[pivot], t[cur]
        lead_inv = pow(r[cur][col], p - 2, p)
        r[cur] = [(x * lead_inv) % p for x in r[cur]]
        t[cur] = [(x * lead_inv) % p for x in t[cur]]
        for k in range(n):
            if k != cur and r[k][col]:
                c = r[k][col]
                r[k] = [(x - c * y) % p for x, y in zip(r[k], r[cur])]
                t[k] = [(x - c * y) % p for x, y in zip(t[k], t[cur])]
        pivots.append(col)
        cur += 1
        if cur == n:
            break
    return r, t, pivots


def kernel_basis_mod_p(rows, p):
    """Basis of the right kernel {v : rows * v = 0} over GF(p)."""
    ncols = len(rows[0])
    r, _, pivots = rref_with_transform_mod_p(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-r[i][f]) % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Field extension with compatible embedding


class FieldEmbedding:
    """Injective ring homomorphism GF(p^m) -> GF(p^M) determined by sending t
    to a deterministically chosen root of the small modulus (commutes with
    Frobenius, as any field embedding does)."""

    __slots__ = ("small", "big", "root", "_cols", "_inv_cols")

    def __init__(self, small, big, root):
        self.small = small
        self.big = big
        self.root = root
        powers = [1]  # root^i, the image of t^i
        for _ in range(small.m - 1):
            powers.append(big.mul(powers[-1], root))
        self._cols = big._columns(powers)
        # T * A = [I; 0] for A the big.m x small.m matrix of root powers, so
        # T * v has zero coordinates past small.m exactly when v is an image.
        rows = list(zip(*(big.coords(v) for v in powers)))
        _, t, pivots = rref_with_transform_mod_p(rows, big.p)
        if len(pivots) != small.m:  # pragma: no cover - root powers independent
            raise AssertionError("embedding matrix is rank deficient")
        self._inv_cols = big._columns([big.pack(col) for col in zip(*t)])

    def map_packed(self, u):
        return self.big._combine(self._cols, u)

    def __call__(self, a):
        if not isinstance(a, FieldElem) or a.ctx != self.small:
            raise ContextMismatch("embedding applied to element of another field")
        return FieldElem(self.big, self.map_packed(a.val))

    def inverse_packed(self, v):
        """Preimage of a packed big-field value, or None if outside the image."""
        w = self.big._combine(self._inv_cols, v)
        return w if w < self.small.q else None

    def inverse(self, b):
        if not isinstance(b, FieldElem) or b.ctx != self.big:
            raise ContextMismatch("inverse embedding applied to foreign element")
        u = self.inverse_packed(b.val)
        return None if u is None else FieldElem(self.small, u)


_EXT_CACHE = {}


def extend_field(ctx, M):
    """GF(p^M) together with the deterministic embedding from ctx = GF(p^m).

    Requires m | M.  The root of ctx's modulus inside GF(p^M) is chosen as the
    least packed value among all roots, so the embedding is reproducible.
    """
    if M % ctx.m != 0:
        raise NotAnExtension(f"GF({ctx.p}^{M}) does not contain GF({ctx.p}^{ctx.m})")
    key = (ctx.p, ctx.m, ctx.modulus, M)
    cached = _EXT_CACHE.get(key)
    if cached is not None:
        return cached
    big = field_new(ctx.p, M)
    if M == ctx.m and big.modulus == ctx.modulus:
        emb = FieldEmbedding(ctx, big, big.p if M > 1 else 1)
        # identity: root is t itself (or 1 in a prime field)
    else:
        root = _least_modulus_root(ctx, big)
        emb = FieldEmbedding(ctx, big, root)
    _EXT_CACHE[key] = (big, emb)
    return big, emb


def _least_modulus_root(ctx, big):
    """Least packed root in `big` of ctx's modulus, found by enumerating the
    unique subfield of order p^m (kernel of x^(p^m) - x)."""
    p, m, M = ctx.p, ctx.m, big.m
    # columns of the map x -> x^(p^m) - x; kernel = subfield GF(p^m)
    images = (big.coords(big.sub(big.frob(p**i, m % M), p**i)) for i in range(M))
    kern = kernel_basis_mod_p(list(zip(*images)), p)
    if len(kern) != m:  # pragma: no cover
        raise AssertionError("subfield has wrong dimension")
    cols = big._columns([big.pack(v) for v in kern])
    roots = []
    for counter in range(p**m):
        acc = big._combine(cols, counter)
        # evaluate modulus at acc
        val = 0
        for coeff in reversed(ctx.modulus):
            val = big.add(big.mul(val, acc), coeff % p)
        if val == 0:
            roots.append(acc)
    if len(roots) != m:  # pragma: no cover
        raise AssertionError("modulus does not split in the extension")
    return min(roots)
