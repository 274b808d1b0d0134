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
GF(p^m) -> GF(p^M) and its inverse, and the modular route's recovery map
from all chain values at once to all coefficients -- is stored as the images
of the power basis (`FieldCtx._columns`, or `FieldCtx._matrix_columns` for a
matrix over the field) and applied by one kernel, `FieldCtx._combine`, to
packed values of any width.  For p = 2 a column is a packed value and the
kernel XORs one column per set bit; for odd p a column holds one digit per
slot of a few bits, the kernel does one integer multiply-add per nonzero
digit and reduces each slot mod p once, at the end.

A map that acts alike on n values -- a Frobenius power, a product by a
constant -- has a second kernel, `FieldBatch`: the n values sit side by
side in one integer, and the map is applied to all of them at once, one
multiply-add per digit plane (m in all, whatever n is).  The modular
route's Frobenius-regime chain runs on it, and `_matrix_columns` builds its
columns with the batch's times-t step.

The package's one skew-product loop is `FieldCtx.skew_addmul`: it adds
q*a into a packed coefficient list, for q and a in GF(q)[x; frob^e], and
both `ore_uni.addmul_packed` and each quotient step of
`ore_uni.right_divmod_packed` run it.  On the ``table`` backend it works on
logarithms: it reads the logs of a's coefficients once, twists them as
log * p^t mod (q - 1) once per distinct exponent t = i*e mod m (a dict the
caller keeps memoizes the twists across calls), multiplies by adding logs
and adds by one XOR (p = 2) or one Zech lookup (odd p), with no method call
per coefficient.  The ``bits`` and ``poly`` backends run the same loop
over `add`, `mul` and `frob`.

The package's one Gauss-Jordan elimination lives here too: `_eliminate`
records the elimination of a matrix over any field context and `_replay`
applies it to a vector.  Only `FieldEmbedding` runs it, over GF(p), to build
the inverse of the embedding; recovery in `modres` has closed-form
inverses.  Which working field to embed into, and the root t goes to, are
chosen in `modres`.

The package's one square-and-multiply loop, `_pow` (field, GF(p)[t] and
skew-polynomial powers), and its one term printer, `_format_terms` (field
specs, field elements and both polynomial types), live here as well.

Contexts are immutable after construction and cached by (p, m, modulus), so
repeated `field_new` calls are cheap and all values of one field share state.
Fields are restricted to p^m < 2^63 (machine-word residue packing).
"""

from __future__ import annotations

import threading
from functools import cache
from math import gcd

from .errors import (
    ContextMismatch,
    DegreeMismatch,
    DivisionByZero,
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


@cache
def _slot_bits(p, n):
    """Slot width in bits of the columns of an n-column GF(p)-linear map: 1
    for p = 2, where a column is a packed value; for odd p wide enough that
    a sum of n products of two digits fits in a slot, and so does the
    Barrett step of its times-t steps in `_matrix_columns` (under 2 * p^4)."""
    if p == 2:
        return 1
    return max(n * (p - 1) ** 2, 2 * p**4).bit_length()


def _pow(mul, one, base, k):
    """base^k for an integer k >= 0 by square-and-multiply under `mul`, with
    `one` its identity; the square past the top bit of k is skipped."""
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def _format_terms(terms, var):
    """The printed sum of the terms c*var^i for the (i, c) pairs in `terms`,
    in their order, with c a nonzero coefficient already printed.  A term is
    c when i = 0, var^i when c is 1, (c)*var^i when c is itself a sum and
    c*var^i otherwise, with var^1 written var; an empty sum prints as 0."""
    out = []
    for i, c in terms:
        if i == 0:
            out.append(c)
            continue
        power = var if i == 1 else f"{var}^{i}"
        if c == "1":
            out.append(power)
        elif "+" in c:
            out.append(f"({c})*{power}")
        else:
            out.append(f"{c}*{power}")
    return " + ".join(out) if out else "0"


# ---------------------------------------------------------------------------
# GF(p)[t] on little-endian coefficient lists (internal; used by Ben-Or's
# irreducibility test, the Frobenius powers of the embedding-root search and
# the `poly` backend's extended-Euclid inverse).


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


def _gfp_sub(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _gfp_trim([c % p for c in out])


def _gfp_divmod(a, b, p):
    """(q, r) with a = q*b + r and deg r < deg b; b trimmed and nonzero."""
    r = [c % p for c in a]
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        c = (r.pop() * lead_inv) % p
        if c:
            k = len(r) - db
            q[k] = c
            for i in range(db):
                r[k + i] = (r[k + i] - c * b[i]) % p
    return _gfp_trim(q), _gfp_trim(r)


def _gfp_mod(a, f, p):
    return _gfp_divmod(a, f, p)[1]


def _gfp_gcd(a, b, p):
    a, b = _gfp_trim(list(a)), _gfp_trim(list(b))
    while b:
        a, b = b, _gfp_mod(a, b, p)
    return a


def _gfp_powmod(base, e, f, p):
    return _pow(lambda a, b: _gfp_mod(_gfp_mul(a, b, p), f, p), [1], base, e)


def _is_irreducible(f, p):
    """Ben-Or's test for a monic polynomial f of degree m over GF(p) (FOCS
    1981): f is irreducible exactly when gcd(f, x^(p^i) - x) = 1 for
    i = 1 .. m/2, since a reducible f has an irreducible factor of degree at
    most m/2.  Most reducible candidates have a small factor and are rejected
    after a step or two.  `_is_irreducible_gf2` is the same test on
    bit-packed ints for p = 2."""
    x = [0, 1]
    h = x
    for _ in range((len(f) - 1) // 2):
        h = _gfp_powmod(h, p, f, p)
        if len(_gfp_gcd(f, _gfp_sub(h, x, p), p)) != 1:
            return False
    return True


def _is_irreducible_gf2(f):
    """Ben-Or's test for f in GF(2)[t], bit i the coefficient of t^i: h runs
    through x^(2^i) mod f, squared by spreading its bits apart (its binary
    digits read in base 4) and reduced by XOR, as are the gcds.  The
    modulus search for p = 2 runs it; it picks what the list test picks."""
    m = f.bit_length() - 1
    h = 2
    for _ in range(m // 2):
        h = _gf2_mod(int(format(h, "b"), 4), f)
        a, b = f, h ^ 2
        while b:
            a, b = b, _gf2_mod(a, b)
        if a != 1:
            return False
    return True


def _gf2_mod(a, b):
    """a mod b in GF(2)[t], for bit-packed a and b != 0."""
    db = b.bit_length()
    da = a.bit_length()
    while da >= db:
        a ^= b << (da - db)
        da = a.bit_length()
    return a


def _default_modulus(p, m):
    """Least monic irreducible of degree m: the lower coefficients are the
    base-p digits of the smallest counter that passes Ben-Or's test."""
    if p == 2:
        for f in range(1 << m, 2 << m):
            if _is_irreducible_gf2(f):
                return tuple((f >> i) & 1 for i in range(m + 1))
        raise AssertionError("no irreducible polynomial found")  # pragma: no cover
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
        elif backend not in ("table", "bits", "poly"):
            raise DegreeMismatch(f"unknown backend {backend!r}")
        elif backend == "bits" and p != 2:
            raise DegreeMismatch(f"the bits backend needs p = 2, got p = {p}")
        elif backend == "table" and q > _TABLE_MAX:
            raise DegreeMismatch(f"the table backend needs q <= 2^16, got {p}^{m}")
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
        terms = [(i, str(c)) for i, c in enumerate(self.modulus) if c]
        mod_text = _format_terms(terms, "t")
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

    @property
    def t_packed(self):
        """The packed value of the generator t, a root of the modulus: p
        when m > 1, and -c_0 in a prime field with modulus t + c_0."""
        return self.p if self.m > 1 else -self.modulus[0] % self.p

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

    # -- the skew-product kernel ---------------------------------------------------

    def skew_addmul(self, out, qc, ac, e, twists):
        """Add the skew product q*a into the packed list `out` in place:
        out[i + j] += qc[i] * frob(ac[j], i*e), the coefficients of
        (sum qc[i] x^i) * (sum ac[j] x^j) when x*c = frob(c, e)*x.  `out`
        must have room for index len(qc) + len(ac) - 2.

        `twists` is a dict that memoizes the twisted copies of ac, keyed by
        the exponent t = i*e mod m; a caller that passes the same dict to
        every call with the same ac twists it at most m times in all.  On the
        table backend ac is twisted as logs (frob multiplies a log by p^t),
        products are sums of logs, and a sum is one XOR (p = 2) or one Zech
        lookup (odd p); the other backends loop over add, mul and frob."""
        m = self.m
        if self.backend != "table":
            add, mul, frob = self.add, self.mul, self.frob
            for i, qi in enumerate(qc):
                if not qi:
                    continue
                t = i * e % m
                ta = twists.get(t)
                if ta is None:
                    ta = twists[t] = [frob(a, t) for a in ac] if t else ac
                for k, a in enumerate(ta, i):
                    if a:
                        out[k] = add(out[k], mul(qi, a))
            return
        log, exp, zech = self._log, self._exp, self._zech
        order = self.q - 1
        la = twists.get(0)
        if la is None:
            la = twists[0] = [log[a] if a else -1 for a in ac]  # -1: zero
        for i, qi in enumerate(qc):
            if not qi:
                continue
            t = i * e % m
            lt = twists.get(t)
            if lt is None:
                pt = self._pe[t]
                lt = twists[t] = [l * pt % order if l >= 0 else -1 for l in la]
            lq = log[qi]
            if zech is None:  # p = 2
                for k, l in enumerate(lt, i):
                    if l >= 0:
                        out[k] ^= exp[lq + l]
                continue
            for k, l in enumerate(lt, i):
                if l < 0:
                    continue
                lv = lq + l
                u = out[k]
                if u:
                    lu = log[u]
                    d = lv - lu
                    z = zech[d - order if d >= order else d]
                    out[k] = exp[lu + z] if z >= 0 else 0
                else:
                    out[k] = exp[lv]

    # -- GF(p)-linear maps given by the images of the power basis ---------------

    def _columns(self, values):
        """Column list of the GF(p)-linear map sending the i-th power basis
        element of its source to the packed value values[i] of this field."""
        w = _slot_bits(self.p, len(values))
        return [self._spread(v, w) for v in values]

    def _spread(self, u, w):
        """The base-p digits of packed u, one per w-bit slot, lowest first."""
        p = self.p
        if p == 2:
            return u
        out = shift = 0
        while u:
            u, c = divmod(u, p)
            out |= c << shift
            shift += w
        return out

    def _combine(self, cols, u):
        """The map with columns `cols` applied to packed u: the sum of
        c_i * cols[i] over the base-p digits c_i of u, packed in this field.

        u and the result may be of any width.  For p = 2 a column is a packed
        value and the sum is an XOR per set bit; for odd p a column holds one
        digit per slot of `_slot_bits(p, len(cols))` bits, the sum is one
        integer multiply-add per nonzero digit, and each slot of the sum is
        reduced mod p once, at the end."""
        p = self.p
        if p == 2:
            out = 0
            for i, c in enumerate(f"{u:b}"[::-1]):
                if c == "1":
                    out ^= cols[i]
            return out
        acc = 0
        i = 0
        while u:
            u, c = divmod(u, p)
            if c:
                acc += c * cols[i]
            i += 1
        return _gather(acc, p, _slot_bits(p, len(cols)))

    def _matrix_columns(self, rows):
        """Columns of the GF(p)-linear map sending the values v_0, v_1, ...,
        packed as sum(v_j * q^j), to the values sum_j rows[j][i] * v_j,
        packed likewise, for a matrix of packed values with one row per
        input; `_combine` applies it.  Column j*m + k is the image of v_j =
        t^k, the row j times t^k: each row is held as one `FieldBatch` and
        multiplied by t with `FieldBatch.t_columns`, in `_combine`'s slots."""
        p = self.p
        batch = FieldBatch(
            self, len(rows[0]), _slot_bits(p, len(rows) * self.m), p * (p - 1)
        )
        return [col for row in rows for col in batch.t_columns(batch.spread(row))]

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
            q, r = _gfp_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _gfp_sub(s0, _gfp_mul(q, s1, p), p)
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
        # s * u = r mod the modulus throughout, so s can stay reduced
        r0, r1 = self._modbits, u
        s0, s1 = 0, 1
        while r1 not in (0, 1):
            q = 0
            d1 = r1.bit_length()
            while r0.bit_length() >= d1:
                sh = r0.bit_length() - d1
                q ^= 1 << sh
                r0 ^= r1 << sh
            r0, r1 = r1, r0
            s0, s1 = s1, s0 ^ self._mul_bits(q, s1)
        if r1 == 0:  # pragma: no cover - modulus irreducible
            raise DivisionByZero("inverse of zero field element")
        return s1

    # -- cached structure -------------------------------------------------------

    def _build_frob_images(self, e):
        """Images of the power basis under x -> x^(p^e).

        Lazily memoized; concurrent builds compute identical values, so the
        benign race keeps contexts shareable across threads."""
        mul = self._mul_bits if self.backend == "bits" else self._mul_raw
        tau = _pow(mul, 1, self.p, self.p**e)  # t^(p^e)
        images = [1]
        for _ in range(self.m - 1):
            images.append(mul(images[-1], tau))
        self._frob_images[e] = cols = self._columns(images)
        return cols

    def _pow_raw(self, u, k):
        mul = self._mul_bits if self.backend == "bits" else self._mul_raw
        return _pow(mul, 1, u, k)

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


class FieldBatch:
    """n values of one field side by side in one integer, so that a
    GF(p)-linear map that acts alike on every value -- a sum, a product by a
    constant, a Frobenius power -- acts on all n at once.

    Value j takes bits [j*m*w, (j+1)*m*w), one base-p digit per w-bit slot,
    lowest first.  For p = 2, w = 1 and the batch is the packed integer
    sum(v_j * q^j).  A map with columns col_k, the images of t^k spread into
    slots, sends X to sum_k ((X >> k*w) & digits) * col_k: digit plane k
    holds digit k of every value in that value's lowest slot, so each
    product is one copy of col_k per value and reaches no other value.  For
    p = 2 the sum is an XOR; for odd p a slot of the sum is at most
    m * (p - 1)^2, and one SWAR Barrett step (`_reduce`) brings every slot
    back below p.

    `bound` is the largest slot value `_reduce` must handle, by default that
    of a plane pass; s and mu make floor(x * mu / 2^s) = floor(x / p) for
    every x <= bound (x * (p - 1) < 2^s suffices), and w, by default the
    least that does, holds x * mu in one slot."""

    __slots__ = (
        "ctx",
        "w",
        "_elem",
        "_digits",
        "_top",
        "_negf",
        "_s",
        "_mu",
        "_qmask",
        "_frob_cols",
    )

    def __init__(self, ctx, n, w=None, bound=None):
        p, m = ctx.p, ctx.m
        self.ctx = ctx
        if p == 2:
            w = 1
        else:
            if bound is None:
                bound = max(m * (p - 1) ** 2, p * (p - 1))  # planes and times t
            s = (bound * (p - 1)).bit_length()
            mu = -(-(1 << s) // p)
            least = (bound * mu).bit_length()
            if w is None:
                w = least
            elif w < least:  # pragma: no cover
                raise AssertionError(f"{w}-bit slots cannot hold {bound} * {mu}")
            self._s = s
            self._mu = mu
        self.w = w
        self._elem = elem = m * w
        bits = n * elem
        self._digits = ((1 << bits) - 1) // ((1 << elem) - 1) * ((1 << w) - 1)
        self._top = self._digits << (elem - w)
        self._negf = ctx._spread(ctx.pack(-c for c in ctx.modulus[:m]), w)
        if p != 2:
            slots = ((1 << bits) - 1) // ((1 << w) - 1)
            self._qmask = slots * ((1 << (w - s)) - 1)
        self._frob_cols = {}

    def spread(self, values):
        """The batch of the packed values, value j in slot j."""
        ctx, w, elem = self.ctx, self.w, self._elem
        x = 0
        for v in reversed(values):
            x = (x << elem) | ctx._spread(v, w)
        return x

    def packed(self, x):
        """The values of batch x packed as sum(v_j * q^j)."""
        if self.ctx.p == 2:
            return x
        return _gather(x, self.ctx.p, self.w)

    def add(self, x, y):
        if self.ctx.p == 2:
            return x ^ y
        return self._reduce(x + y)

    def mul(self, c, x):
        """Every value of batch x times the packed constant c, through the
        columns c * t^k, which `t_columns` builds with no field mul."""
        if c == 1:
            return x
        return self._apply(self.t_columns(self.ctx._spread(c, self.w)), x)

    def frob(self, x, e):
        """Every value of batch x raised to the p^e power."""
        cols = self._frob_cols.get(e)
        if cols is None:
            ctx = self.ctx
            cols = [ctx._spread(ctx.frob(ctx.p**k, e), self.w) for k in range(ctx.m)]
            self._frob_cols[e] = cols
        return self._apply(cols, x)

    def t_columns(self, x):
        """x, t*x, ..., t^(m-1)*x for a batch x.  Times t moves every digit
        up one slot; each value's top digit c moves out, and c times the
        negated low part of the modulus comes back in."""
        top, negf, w = self._top, self._negf, self.w
        down = self._elem - w
        out = [x]
        for _ in range(self.ctx.m - 1):
            c = x & top
            if w == 1:  # p = 2
                x = ((x ^ c) << 1) ^ (c >> down) * negf
            else:
                x = self._reduce(((x - c) << w) + (c >> down) * negf)
            out.append(x)
        return out

    def _apply(self, cols, x):
        """The map with columns `cols` applied to every value of batch x."""
        w, digits = self.w, self._digits
        out = 0
        if self.ctx.p == 2:
            for col in cols:
                plane = x & digits
                if plane:
                    out ^= plane * col
                x >>= 1
            return out
        for col in cols:
            out += (x & digits) * col
            x >>= w
        return self._reduce(out)

    def _reduce(self, x):
        """Every slot of x, each at most `bound`, reduced mod p."""
        return x - self.ctx.p * ((x * self._mu >> self._s) & self._qmask)


def _gather(acc, p, w):
    """sum(c_k * p^k) over the w-bit slots c_k of acc, each reduced mod p."""
    mask = (1 << w) - 1
    out = 0
    for k in range((acc.bit_length() - 1) // w * w, -1, -w):
        out = out * p + (acc >> k & mask) % p
    return out


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
        terms = [(i, str(c)) for i, c in enumerate(self.coords) if c]
        return _format_terms(terms[::-1], "t")

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
# Recorded Gauss-Jordan elimination over a field context


def _eliminate(ctx, rows, ncols):
    """Gauss-Jordan elimination over ctx of a matrix of full column rank (the
    embedding's, its only caller), recorded per column as (pivot row swapped into place, pivot inverse,
    (row, multiplier) pairs cleared against it)."""
    mul, sub = ctx.mul, ctx.sub
    a = [list(row) for row in rows]
    steps = []
    for col in range(ncols):
        sel = next((k for k in range(col, len(a)) if a[k][col]), None)
        if sel is None:  # pragma: no cover
            raise AssertionError("the embedding's matrix must have full column rank")
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


# ---------------------------------------------------------------------------
# The embedding of a subfield


class FieldEmbedding:
    """Injective ring homomorphism GF(p^m) -> GF(p^M) determined by sending t
    to `root`, a root of the small modulus in the big field (commutes with
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
        # T * v has zero coordinates past small.m exactly when v is an image;
        # replaying the elimination of A on the unit vectors gives T's columns.
        gfp = field_new(big.p, 1)
        steps = _eliminate(gfp, zip(*(big.coords(v) for v in powers)), small.m)
        unit = [0] * big.m
        t_cols = []
        for j in range(big.m):
            unit[j] = 1
            t_cols.append(big.pack(_replay(gfp, steps, unit)))
            unit[j] = 0
        self._inv_cols = big._columns(t_cols)

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
