"""Exact arithmetic for GF(p^m) with Frobenius-power automorphisms.

An element of GF(p^m) = GF(p)[t]/(modulus) is identified with its coordinate
vector (c_0, ..., c_{m-1}) with respect to the power basis 1, t, ..., t^(m-1)
and packed into a single integer sum(c_i * p**i).  Packed value 0 is the zero
of the field and packed value 1 is its one.  `FieldCtx` exposes arithmetic on
packed values (`add`, `mul`, `inv`, `frob`, ...); `FieldElem` is the value
wrapper with operator overloading used at API boundaries.

A context's arithmetic is fixed by p and the field order q = p^m, and
`FieldCtx.backend` names the choice; it is not an option:

*  ``table`` (q <= 65536): discrete-log tables over a deterministically chosen
   generator; mul/inv/frobenius are O(1).  For odd p, add/sub/neg are O(1)
   too: a Zech-logarithm table zech[k] = log(1 + g^k) gives
   g^a + g^b = g^(a + zech[b - a]), and a negation table uses
   -1 = g^((q-1)/2) (Huber, IEEE Trans. IT 1990).  Other odd-p fields add
   digit by digit; p == 2 adds by XOR everywhere.
*  ``bits``  (p == 2, q > 65536): XOR sums on bit-packed ints.
*  ``poly``  (odd p, q > 65536): digit-by-digit sums and cached Frobenius
   basis images, so that sigma costs about one mul.

Outside the log tables the product and the inverse are those of GF(p)[t]
mod the modulus, on one core for every p (`_GFpT`): a polynomial is one
integer with one base-p digit per w-bit slot, so for p = 2 (w = 1) a
packed value is one as it is.  The product is one integer product of the
slot-packed factors (carry-less for p = 2), then the remainder by the
modulus; the inverse is extended Euclid, its cofactor carried in the low
slots of each remainder.  Ben-Or's irreducibility test, run by the modulus
search and on a given modulus, works on the same core.  Powers, Frobenius
images, the generator search and the table build multiply by that product
too.

Every GF(p)-linear map into a field -- a Frobenius power, the
multiplication-by-generator step of the table build, the embedding
GF(p^m) -> GF(p^M) and the trace maps of its root search -- is applied by
one kernel, `FieldBatch`: n values of the target field side by side in
one integer, one base-p digit per slot, and a map stored as the images of
the power basis spread into those slots (`FieldBatch.columns`).  A
Frobenius power acts on all n values by one multiply-add per digit plane
(m in all, whatever n is), a sum of products by constants (`dot`) by one
addition per nonzero digit of each constant and one Horner pass in t; the
modular route's Frobenius-regime chain runs on it.  A map of one packed
value (`apply_packed`) XORs one column per set bit for p = 2, and for odd
p does one integer multiply-add per nonzero digit and reduces each slot
mod p once, at the end.  Each context holds its one-value batch
(`FieldCtx.single_batch`), and its Frobenius powers as embeddings of the
field into itself (`FieldCtx.frobenius`), whose columns every batch of
the field reads.

The package's one skew-product loop is `FieldCtx.skew_addmul`: it adds
q*a into a packed coefficient list, for q and a in GF(q)[x; frob^e], and
both `ore_uni.addmul_packed` and each quotient step of
`ore_uni.right_divmod_packed` run it.  On the ``table`` backend it works on
logarithms: it reads the logs of a's coefficients once, twists them as
log * p^t mod (q - 1) once per distinct exponent t = i*e mod m (a dict the
caller passes memoizes the twists), multiplies by adding logs and adds by
one XOR (p = 2) or one Zech lookup (odd p), with no method call per
coefficient.  The ``bits`` and ``poly`` backends run the same loop
over `add`, `mul` and `frob`.  GF(2^m) and GF(3^m) up to GF(2^8) and
GF(3^4), and GF(p) for p < 128, also supply byte tables, built on first
use (`byte_tables`, a `ByteTables`).  Each value has a one-byte code: two
bits per digit for GF(3^m) with m > 1, the packed value itself otherwise.
A 256-byte table of c*a for each constant c, one per Frobenius power and
one for negation let `bytes.translate` multiply, twist or negate a whole
byte string of codes in one C call, and the field sums two such strings as
integers: an XOR for p = 2, six logical operations on the two bit planes
of the GF(3) digits (Kawahara, Aoki and Takagi, Pairing 2008), and one
SWAR step for GF(p).  One more table gives the code of -1/a for each
code of a, the factor of a division step.  `skewdet` triangularizes on
whole-row integers with them.  Sequences of values are negated by
`neg_seq`, one table read per value on the log tables.

The package's one elimination, `GFpSolver`, inverts a GF(p)-linear map
of full column rank on its image: built once from the map's columns as
`FieldBatch` values, so clearing a slot of a column is one multiply-add,
it takes a value of that batch, solves on the earliest rows of full rank,
checks the answer on every row and returns it in the batch's slots.  It
serves the inverse of the embedding, on the root's powers, and the modular
route's recovery, from the chain's batch to the eliminant's base-field
coordinates.  Which working field to embed into, and the root t goes to,
are chosen in `modres`.

The package's one square-and-multiply loop, `_pow` (field, GF(p)[t] and
skew-polynomial powers), and its one term printer, `_format_terms` (field
specs, field elements and both polynomial types), live here as well.

Contexts are immutable after construction and cached by (p, m, modulus), so
repeated `field_new` calls are cheap and all values of one field share state.
The bound p^m < 2^63 is `field_new`'s domain, the fields a user names; the
modular route's working fields may exceed it (`_context`), on the ``bits``
and ``poly`` arithmetic, which works on integers of any width.
"""

from __future__ import annotations

import threading
from functools import partial
from math import gcd
from operator import xor
from typing import NamedTuple

from .errors import (
    ContextMismatch,
    DegreeMismatch,
    DivisionByZero,
    NotPrime,
    ReducibleModulus,
    SingularMooreSystem,
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
# GF(p)[t] on slot-packed integers (internal; Ben-Or's irreducibility test,
# the modulus search, and the product and inverse outside the log tables).


def _barrett(p, m, slots, w=None):
    """(w, reduce) for an odd prime p: reduce(x) takes each of the lowest
    `slots` w-bit slots of x, each at most max(m * (p - 1)^2, p * (p - 1))
    -- a sum of m products of two digits, or a digit plus one such product
    -- mod p in one Barrett step (`_GFpT`, `FieldBatch`, `GFpSolver`).  s
    and mu make floor(x * mu / 2^s) = floor(x / p) for every x up to that
    bound (x * (p - 1) < 2^s suffices), and w, by default the least width
    that does, holds x * mu in one slot."""
    bound = max(m * (p - 1) ** 2, p * (p - 1))
    s = (bound * (p - 1)).bit_length()
    mu = -(-(1 << s) // p)
    least = (bound * mu).bit_length()
    if w is None:
        w = least
    elif w < least:  # pragma: no cover
        raise AssertionError(f"{w}-bit slots cannot hold {bound} * {mu}")
    qmask = ((1 << slots * w) - 1) // ((1 << w) - 1) * ((1 << (w - s)) - 1)

    def reduce(x):
        return x - p * ((x * mu >> s) & qmask)

    return w, reduce


def _spread(u, p, w):
    """The base-p digits of packed u, one per w-bit slot, lowest first."""
    if p == 2:
        return u
    out = shift = 0
    while u:
        u, c = divmod(u, p)
        out |= c << shift
        shift += w
    return out


def _slots(coeffs, w):
    """The polynomial with the coefficients `coeffs`, lowest first, one per
    w-bit slot."""
    return sum(c << i * w for i, c in enumerate(coeffs))


class _GFpT:
    """GF(p)[t] for polynomials of degree at most 2m: coefficient i is the
    w-bit slot i of one integer.  For p = 2, w = 1, so a polynomial is its
    bit-packed int and a packed GF(2^m) value is one as it is.  For odd p a
    slot holds the product of two polynomials of degree below m, and one
    Barrett step (`_reduce`) brings every slot back below p.

    Each operation is written once for every p.  p = 2 differs only in the
    slot steps: an XOR where odd p adds and reduces, a carry-less product,
    no reduction, and squaring by spreading the bits apart."""

    __slots__ = ("p", "w", "_reduce")

    def __init__(self, p, m):
        self.p = p
        if p == 2:
            self.w = 1
        else:
            self.w, self._reduce = _barrett(p, m, 2 * m + 1)

    def rem(self, a, b):
        """a mod b, for b != 0 and a with every slot below p.  Each step
        adds the multiple of b that clears the top slot of a, so deg a -
        deg b + 1 steps end it; for odd p a step that leaves the top slot
        set (a fault in the slot reduction) raises AssertionError after
        them.  For p = 2 the XOR clears the top bit by itself."""
        if self.p == 2:
            db = b.bit_length()
            while (sh := a.bit_length() - db) >= 0:
                a ^= b << sh
            return a
        p, w, reduce = self.p, self.w, self._reduce
        db = (b.bit_length() - 1) // w
        top = db * w
        nb = reduce((p - pow(b >> top, -1, p)) * b)  # -b / lead(b)
        for _ in range((a.bit_length() - 1) // w - db + 1):
            if (sh := (a.bit_length() - 1) // w * w - top) < 0:
                return a
            a = reduce(a + ((a >> sh + top) * nb << sh))
        if (a.bit_length() - 1) // w >= db:
            raise AssertionError("a remainder step left the top slot set")
        return a

    def _mulmod(self, f, x, y):
        """x * y mod f for slot-packed x and y of degree below m (odd p)."""
        return self.rem(self._reduce(x * y), f)

    def mul(self, f, u, v):
        """u * v mod f, for packed u and v: carry-less for p = 2; for odd p
        one integer product of the slot-packed factors, whose slots hold
        the coefficients of the product (Kronecker substitution)."""
        if self.p == 2:
            r = 0
            while u:
                low = u & -u  # one set bit of u at a time: v times it is a shift
                r ^= v * low
                u ^= low
            return self.rem(r, f)
        p, w = self.p, self.w
        return _gather(self._mulmod(f, _spread(u, p, w), _spread(v, p, w)), p, w)

    def inv(self, f, u):
        """The inverse of packed u != 0 mod the irreducible f, by extended
        Euclid on pairs r_i * t^m + s_i with s_i * u = r_i mod f: the
        remainder of one pair by the next, whose steps read the r parts
        only, is the next pair, and deg s_i < m keeps the s part in its
        slots.  It ends at a constant r = c, and u^-1 = s / c."""
        p, w = self.p, self.w
        k = (f.bit_length() - 1) // w * w
        a, b = f << k, _spread(u, p, w) << k | 1
        while b >> k + w:
            a, b = b, self.rem(a, b)
        s, c = b & ((1 << k) - 1), b >> k
        if p == 2:
            return s
        return _gather(self._reduce(s * pow(c, -1, p)), p, w)

    def is_irreducible(self, f):
        """Ben-Or's test for a monic f of degree m over GF(p) (FOCS 1981):
        f is irreducible exactly when gcd(f, t^(p^i) - t) = 1 for
        i = 1 .. m/2, since a reducible f has an irreducible factor of
        degree at most m/2.  Most reducible candidates have a small factor
        and are rejected after a step or two.  h runs through t^(p^i) mod
        f; for p = 2 it is squared by spreading its bits apart (its binary
        digits read in base 4)."""
        p, w, rem = self.p, self.w, self.rem
        t = 1 << w
        h = t
        for _ in range((f.bit_length() - 1) // w // 2):
            if p == 2:
                h = rem(int(format(h, "b"), 4), f)
                b = h ^ t
            else:
                h = _pow(partial(self._mulmod, f), 1, h, p)
                b = self._reduce(h + (p - 1) * t)
            a = f
            while b:
                a, b = b, rem(a, b)
            if a >> w:  # a gcd of positive degree
                return False
        return True


def _is_irreducible(coeffs, p):
    """Ben-Or's test (`_GFpT.is_irreducible`) for the monic polynomial over
    GF(p) with the coefficients `coeffs`, lowest first."""
    core = _GFpT(p, len(coeffs) - 1)
    return core.is_irreducible(_slots(coeffs, core.w))


def _default_modulus(p, m):
    """Least monic irreducible of degree m: the lower coefficients are the
    base-p digits of the smallest counter that passes Ben-Or's test.

    Counters below p are the binomials t^m + c.  None of them is
    irreducible when a prime factor of m does not divide p - 1, or when
    4 | m and p = 3 mod 4 (Lidl-Niederreiter, Finite Fields, Thm 3.75), and
    the search then starts at p; otherwise it would test about p of them.
    When m > 1 the counters divisible by p are skipped too: t divides
    their polynomials."""
    no_binomial = any((p - 1) % r for r in _prime_factors(m)) or (
        m % 4 == 0 and p % 4 == 3
    )
    core = _GFpT(p, m)
    w = core.w
    for counter in range(p if no_binomial else 0, p**m):
        if m > 1 and not counter % p:  # t divides f
            continue
        f = _spread(counter, p, w) | 1 << m * w
        if core.is_irreducible(f):
            return tuple((f >> i * w) & ((1 << w) - 1) for i in range(m + 1))
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


# ---------------------------------------------------------------------------


class ByteTables(NamedTuple):
    """A field's tables for whole rows of values, one value per byte.

    Each value is stored as its code: the packed value itself for GF(2^m)
    and GF(p), and for GF(3^m) with m > 1 two bits per digit, 0 -> 00,
    1 -> 01, 2 -> 10, so the code of sum c_i 3^i is sum c_i 4^i.  `enc`
    maps a packed value to its code and `dec` a code back.  For the code
    of a, mul[c] gives the code of c*a (c a code), frob[t] that of
    frob(a, t), `neg` that of -a and `ninv` that of -1/a (0 for a = 0);
    each is 256 bytes long and zero at every byte that is not a code.
    adder(nbytes) returns the row sum of width nbytes: the sum, code by
    code, of two integers of at most nbytes bytes, byte i holding the code
    of slot i."""

    enc: bytes
    dec: bytes
    mul: list
    frob: list
    neg: bytes
    ninv: bytes
    adder: object


def _xor_rows(nbytes):
    """The sum of two rows of GF(2^m) codes: one XOR, whatever the width."""
    return xor


def _ternary_rows(nbytes):
    """The sum of two rows of GF(3^m) codes, digit by digit, in six logical
    operations on the low and high bit planes of the 2-bit slots (Kawahara,
    Aoki, Takagi, Pairing 2008)."""
    low = int.from_bytes(b"\x55" * nbytes, "little")

    def add(x, y):
        x1, x2, y1, y2 = x & low, x >> 1 & low, y & low, y >> 1 & low
        t = (x1 | y2) ^ (x2 | y1)
        return ((x2 | y2) ^ t) | ((x1 | y1) ^ t) << 1

    return add


def _residue_rows(p, nbytes):
    """The sum of two rows of GF(p) values, p < 128, byte by byte: each
    byte sum is below 2p - 1 < 256, and one SWAR step subtracts p from the
    bytes whose sum reached p, found as bit 7 of sum + 128 - p."""
    ones = int.from_bytes(b"\x01" * nbytes, "little")
    lift = (128 - p) * ones

    def add(x, y):
        s = x + y
        return s - p * ((s + lift) >> 7 & ones)

    return add


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
        "_mul",
        "_inv",
        "_single",
        "_frobenius",
        "_power_batches",
        "_byte_tables",
        "_zero_elem",
        "_one_elem",
    )

    def __init__(self, p, m, modulus=None):
        _check_prime_degree(p, m)
        q = p**m
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
        if q <= _TABLE_MAX:
            self.backend = "table"
        elif p == 2:
            self.backend = "bits"
        else:
            self.backend = "poly"
        self._exp = None
        self._log = None
        self._zech = None
        self._neg = None
        self._pe = [pow(p, e, q - 1) for e in range(m)] if q > 2 else [0] * m
        self._generator = None
        self._single = None
        self._frobenius = {}
        self._power_batches = {}
        self._byte_tables = None
        # the product and the inverse outside the log tables, mod the
        # slot-packed modulus
        core = _GFpT(p, m)
        f = _slots(self.modulus, core.w)
        self._mul = partial(core.mul, f)
        self._inv = partial(core.inv, f)
        if self.backend == "table":
            self._build_tables()
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

    def neg_seq(self, us):
        """The negatives of a sequence of packed values, as a tuple: the
        values themselves for p = 2, one table read each on the log
        tables."""
        if self.p == 2:
            return tuple(us)
        neg = self._neg
        if neg is not None:
            return tuple([neg[u] for u in us])
        return tuple(map(self.neg, us))

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
        return self._mul(u, v)

    def dot(self, coeffs, xs):
        """sum(c_i * x_i) by one `mul` and one `add` per nonzero c_i."""
        acc = 0
        for c, x in zip(coeffs, xs, strict=True):
            if c:
                acc = self.add(acc, self.mul(c, x))
        return acc

    def inv(self, u):
        if u == 0:
            raise DivisionByZero("inverse of zero field element")
        if self.backend == "table":
            return self._exp[self.q - 1 - self._log[u]]
        return self._inv(u)

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
        return _pow(self._mul, 1, u, k % (self.q - 1))

    def frob(self, u, e):
        """u raised to the p^e power (the e-th Frobenius)."""
        e %= self.m
        if e == 0 or u < 2:
            return u
        if self.backend == "table":
            return self._exp[(self._log[u] * self._pe[e]) % (self.q - 1)]
        emb = self._frobenius.get(e) or self.frobenius(e)
        return emb._batch.apply_packed(emb._cols, u)

    def frobenius(self, e):
        """x -> x^(p^e) as the `FieldEmbedding` of this field into itself
        that sends t to t^(p^e), built once per exponent (a race builds an
        equal map, so contexts stay shareable); every batch of the field
        reads its columns."""
        e %= self.m
        if (emb := self._frobenius.get(e)) is None:
            root = self.pow_packed(self.t_packed, self.p**e)
            emb = self._frobenius[e] = FieldEmbedding(self, self, root)
        return emb

    def single_batch(self):
        """The one-value `FieldBatch` of this field, built on first use."""
        if self._single is None:
            self._single = FieldBatch(self, 1)
        return self._single

    # -- the skew-product kernel ---------------------------------------------------

    def skew_addmul(self, out, qc, ac, e, twists):
        """Add the skew product q*a into the packed list `out` in place:
        out[i + j] += qc[i] * frob(ac[j], i*e), the coefficients of
        (sum qc[i] x^i) * (sum ac[j] x^j) when x*c = frob(c, e)*x.  `out`
        must have room for index len(qc) + len(ac) - 2.

        `twists` is a dict that memoizes the twisted copies of ac, keyed by
        the exponent t = i*e mod m, so ac is twisted at most once per
        exponent for as long as the caller keeps passing that dict.  On the
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

    # -- byte tables for whole-row arithmetic ------------------------------------

    def byte_tables(self):
        """The `ByteTables` of this field, which act on a byte string of its
        values at once, one value per byte, through `bytes.translate`; None
        outside their domain: GF(2^m) with m <= 8, GF(3^m) with m <= 4 and
        GF(p) with p < 128.  Built on the first call (`_build_byte_tables`),
        not with the context."""
        if self._byte_tables is None:
            p, m = self.p, self.m
            if not (p == 2 and m <= 8 or p == 3 and m <= 4 or m == 1 and p < 128):
                return None
            self._byte_tables = self._build_byte_tables()
        return self._byte_tables

    def _build_byte_tables(self):
        """Every table from q products by the generator g: mul[g^k] is
        mul[g^(k-1)] translated by mul[g], the p-th power table is read off
        mul, frob[t] is frob[t-1] translated by it, and -1/a is where the
        row mul[a] holds the code of -1."""
        p, m, q, g = self.p, self.m, self.q, self.generator.val
        if p == 3 and m > 1:  # two bits per digit: the code of u is sum c_i 4^i
            codes = [_spread(u, 3, 2) for u in range(q)]
            adder = _ternary_rows
        else:  # each value is its own code
            codes = list(range(q))
            adder = _xor_rows if p == 2 else partial(_residue_rows, p)
        pad = bytes(256 - q)
        ident, dec, mulg = bytearray(256), bytearray(256), bytearray(256)
        for u, c in enumerate(codes):
            ident[c], dec[c], mulg[c] = c, u, codes[self.mul(g, u)]
        mul = [bytes(256)] * 256
        cur = bytes(ident)
        for _ in range(q - 1):
            mul[cur[1]] = cur  # 1 is the code of 1, so cur[1] is that of g^k
            cur = cur.translate(mulg)
        frob = [bytes(ident)]
        if m > 1:
            power = frob[0]
            for _ in range(p - 1):
                power = bytes(mul[c][a] for c, a in enumerate(power))
            for _ in range(m - 1):
                frob.append(frob[-1].translate(power))
        neg1, ninv = codes[p - 1], bytearray(256)
        for c in codes[1:]:
            ninv[c] = mul[c].index(neg1)
        return ByteTables(
            bytes(codes) + pad, bytes(dec), mul, frob, mul[neg1], bytes(ninv), adder
        )

    # -- cached structure -------------------------------------------------------

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
            if all(_pow(self._mul, 1, cand, order // ell) != 1 for ell in factors):
                return cand
        raise AssertionError("no generator found")  # pragma: no cover

    def _build_tables(self):
        q = self.q
        g = self._find_generator()
        self._generator = g
        exp = [0] * max(q - 1, 1)
        exp[0] = 1
        single = self.single_batch()
        mulg = single.columns([self._mul(g, self.p**i) for i in range(self.m)])
        cur = 1
        for k in range(1, q - 1):
            cur = single.apply_packed(mulg, cur)
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
    GF(p)-linear map that acts alike on every value -- a sum of products
    by constants, a Frobenius power -- acts on all n at once.

    Value j takes bits [j*m*w, (j+1)*m*w), one base-p digit per w-bit slot,
    lowest first (w = 1 for p = 2); `spread` writes values in and `values`
    reads them out.  A map with columns col_k, the images of t^k spread
    into slots (`columns`), sends X to sum_k ((X >> k*w) & digits) * col_k:
    digit plane k holds digit k of every value in that value's lowest slot,
    so each product is one copy of col_k per value and reaches no other
    value.  For p = 2 every sum is an XOR.  For odd p one SWAR Barrett
    step (`_reduce`) brings every slot back below p; w is the least slot
    width for which it handles a sum of m + 2 products of two digits
    (`_barrett`), the most a plane pass or a Horner step of `dot` leaves.
    w depends on p and m only, so every batch of a field reads the columns
    of the field's Frobenius maps (`FieldCtx.frobenius`)."""

    __slots__ = ("ctx", "w", "_elem", "_digits", "_top", "_negf", "_reduce")

    def __init__(self, ctx, n):
        p, m = ctx.p, ctx.m
        self.ctx = ctx
        w, self._reduce = (1, None) if p == 2 else _barrett(p, m + 2, n * m)
        self.w = w
        self._elem = elem = m * w
        bits = n * elem
        self._digits = ((1 << bits) - 1) // ((1 << elem) - 1) * ((1 << w) - 1)
        self._top = self._digits << (elem - w)
        self._negf = _slots([-c % p for c in ctx.modulus[:m]], w)

    def spread(self, values):
        """The batch of the packed values, value j in slot j, each in [0, q)."""
        ctx, w, elem = self.ctx, self.w, self._elem
        x = 0
        for v in reversed(values):
            if not 0 <= v < ctx.q:
                raise DegreeMismatch(f"packed value {v} out of range for {ctx!r}")
            x = (x << elem) | _spread(v, ctx.p, w)
        return x

    def values(self, x, n, m=None):
        """The n packed values of batch x, m digits each (the field's m by
        default), value j in slots [j*m, (j+1)*m): the read-out of a batch
        of digits, in one pass over its slots (for p = 2, a shift and a mask
        per value)."""
        p, w, m = self.ctx.p, self.w, m or self.ctx.m
        if p == 2:
            mask = (1 << m) - 1
            return [x >> j * m & mask for j in range(n)]
        mask, out = (1 << w) - 1, [0] * n
        for k in range(n * m - 1, -1, -1):  # each value's top digit first
            out[k // m] = out[k // m] * p + (x >> k * w & mask)
        return out

    def mul(self, c, x):
        """Every value of batch x times the packed constant c."""
        return self.dot((c,), (x,))

    def dot(self, coeffs, xs):
        """sum(c_i * x_i), value by value, for packed constants c_i and
        batches x_i: with c_i = sum_k d_ik t^k, accumulator a_k takes d_ik x_i
        for each nonzero digit, and one Horner pass, x <- t*x + a_k from the
        top digit down, takes the products by t: every digit moves up one
        slot, and each value's top digit c comes back as c times the negated
        low part of the modulus.  For odd p the accumulators are reduced
        every m terms."""
        p, m, w = self.ctx.p, self.ctx.m, self.w
        top, negf, down = self._top, self._negf, self._elem - w
        acc, reduce, length = [0] * m, self._reduce, 1  # digits of the longest c_i
        for i, (c, v) in enumerate(zip(coeffs, xs, strict=True)):
            if p == 2:
                length = max(length, c.bit_length())
                while c:
                    low = c & -c
                    acc[low.bit_length() - 1] ^= v
                    c ^= low
            else:
                if i and not i % m:  # each accumulator holds at most m terms
                    acc = [reduce(a) for a in acc]
                k = 0
                while c:
                    c, d = divmod(c, p)
                    if d:
                        acc[k] += d * v
                    k += 1
                length = max(length, k)
        x = acc[length - 1] if p == 2 else reduce(acc[length - 1])
        for a in reversed(acc[: length - 1]):
            c = x & top
            if p == 2:
                x = ((x ^ c) << 1) ^ (c >> down) * negf ^ a
            else:
                x = ((x - c) << w) + (c >> down) * negf + a
                if c or a:  # else every slot stays below p
                    x = reduce(x)
        return x

    def linearized(self, coeffs, e, x):
        """Every value v of batch x sent to sum(c_i * v^(p^(i*e))) for the
        packed constants c_i: a linearized polynomial (Ore, Trans. AMS 1933),
        which is one GF(p)-linear map of the field.  One `dot` over the
        field's power batches builds its m columns, and one pass of plane
        products (`_apply`) maps every value of x at once.  Power batch i
        holds (t^k)^(p^(i*e)) as value k, k < m; the batches are built on
        first use, each by one Frobenius map of the one before, and kept per
        field and e, at most m of them: i wraps at the order of
        x -> x^(p^e).  (A race builds equal batches, so contexts stay
        shareable.)"""
        ctx, m = self.ctx, self.ctx.m
        e %= m
        order = m // gcd(e, m)
        need = min(len(coeffs), order)
        full, powers = ctx._power_batches.get(e) or (FieldBatch(ctx, m), ())
        if len(powers) < need:
            grown = list(powers) or [full.spread([ctx.p**k for k in range(m)])]
            while len(grown) < need:
                grown.append(full.frob(grown[-1], e))
            ctx._power_batches[e] = full, (powers := tuple(grown))
        y = full.dot(coeffs, [powers[i % order] for i in range(len(coeffs))])
        elem = full._elem
        mask = (1 << elem) - 1
        return self._apply([y >> k * elem & mask for k in range(m)], x)

    def columns(self, values):
        """The columns of the GF(p)-linear map sending the i-th power basis
        element of its source to the packed value values[i] of this field."""
        p, w = self.ctx.p, self.w
        return [_spread(v, p, w) for v in values]

    def frob(self, x, e):
        """Every value of batch x raised to the p^e power."""
        return self._apply(self.ctx.frobenius(e)._cols, x)

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

    def apply_packed(self, cols, u):
        """The map with at most m columns `cols` applied to one packed u of
        any width, packed in this field: an XOR per set bit for p = 2, one
        integer multiply-add per nonzero digit for odd p, with each slot of
        the sum reduced mod p once, at the end."""
        p = self.ctx.p
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
        return _gather(acc, p, self.w)


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


def _check_prime_degree(p, m):
    """NotPrime unless p is a prime int, then DegreeMismatch unless m is an
    int >= 1."""
    if not isinstance(p, int) or not _is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if not isinstance(m, int) or m < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {m}")


def field_new(p, m, modulus=None):
    """Validated, cached context for GF(p^m), in the input domain
    p^m < 2^63.

    When modulus is omitted the lexicographically least monic irreducible of
    degree m is selected, so runs are bit-reproducible.
    """
    _check_prime_degree(p, m)
    if p**m >= _ORDER_MAX:
        raise DegreeMismatch(f"field order {p}^{m} exceeds 2^63")
    return _context(p, m, modulus)


def _context(p, m, modulus=None):
    """The cached context for GF(p^m), of any order: `field_new` for the
    input domain, and the modular route's working fields, which may exceed
    it (they build no tables)."""
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
# GF(p)-linear systems and the embedding of a subfield


class GFpSolver:
    """The inverse of a GF(p)-linear map A of full column rank, on its
    image: built once from A's columns, given as values of a `FieldBatch`
    (one digit of A's output per slot, column i the image of the i-th unit
    vector), `solve(v)` is the unique x with A * x = v for a batch v of
    that `FieldBatch`, x_i in slot i, or None when v is outside the image
    or not a batch of digits.  It is the package's one elimination.

    The build finds the earliest digits (rows of A) of full rank, the
    pivots r_j, and the inverse of A on them.  Each column carries its unit
    vector in the slots above A's; it is reduced at its lowest nonzero slot
    while that slot is a pivot, and then pivots there, and back-substitution
    clears every pivot slot but its own.  Reduced column j is then 1 at r_j
    and 0 at every other pivot, and its upper slots hold x_j, the preimage
    of that unit on the pivot rows.  The reduction reads the first `keep`
    slots of A, doubled until they have full rank; a column that is zero on
    all of them leaves A rank-deficient, and the build raises
    SingularMooreSystem.  A solve sums v[r_j] * x_j over the pivot digits
    of v and re-applies A to check the answer against every digit of v.
    For odd p each multiply-add is followed by one Barrett step (bound
    p * (p - 1)), which the batch's slots hold; w > bits(p) + 1, so a solve
    refuses a slot of p or more by adding 2^(w-1) - p to every slot at once
    and reading the slots' top bits."""

    __slots__ = ("_batch", "_reduce", "_cols", "_pivots", "_inv", "_top", "_fit")

    def __init__(self, batch, cols):
        p, w, n = batch.ctx.p, batch.w, len(cols)
        size = -(-max(c.bit_length() for c in cols) // w)  # slots of A's columns
        reduce = None if p == 2 else _barrett(p, 1, size + n, w)[1]
        mask = (1 << w) - 1
        keep = min(2 * n, size)
        while True:
            basis = {}  # pivot slot -> reduced column
            head = (1 << keep * w) - 1
            for i, col in enumerate(cols):
                x = col & head | 1 << (keep + i) * w
                while (e := basis.get(low := ((x & -x).bit_length() - 1) // w)) is not None:
                    x = x ^ e if p == 2 else reduce(x + (p - (x >> low * w & mask)) * e)
                if low >= keep:  # zero on the first `keep` slots
                    break
                basis[low] = x if p == 2 else reduce(pow(x >> low * w & mask, -1, p) * x)
            else:
                break
            if keep == size:
                raise SingularMooreSystem("the columns are linearly dependent")
            keep = min(2 * keep, size)
        pivots = sorted(basis)
        for k, r in enumerate(pivots):
            e = basis[r]
            for s in pivots[:k]:
                if c := basis[s] >> r * w & mask:
                    basis[s] = basis[s] ^ e if p == 2 else reduce(basis[s] + (p - c) * e)
        self._batch, self._reduce, self._cols = batch, reduce, cols
        self._pivots = [r * w for r in pivots]
        self._inv = [basis[r] >> keep * w for r in pivots]
        ones = ((1 << size * w) - 1) // mask  # a 1 in each slot of A's columns
        self._top, self._fit = ones << w - 1, ones * ((1 << w - 1) - p)

    def solve(self, v):
        """The x with A * x = v, x_i in slot i as the back-substitution
        leaves it, or None when v is not in A's image."""
        batch, reduce = self._batch, self._reduce
        p, w = batch.ctx.p, batch.w
        if v < 0 or p > 2 and (v | v + self._fit) & self._top:
            return None
        mask = (1 << w) - 1
        x = ax = 0
        for r, inv in zip(self._pivots, self._inv):
            if c := v >> r & mask:
                x = x ^ inv if p == 2 else reduce(x + c * inv)
        for i, col in enumerate(self._cols):
            if c := x >> i * w & mask:
                ax = ax ^ col if p == 2 else reduce(ax + c * col)
        return x if ax == v else None


class FieldEmbedding:
    """Injective ring homomorphism GF(p^m) -> GF(p^M) determined by sending t
    to `root`, a root of the small modulus in the big field (commutes with
    Frobenius, as any field embedding does): the big field's one-value
    batch applies its columns root^i, and their `GFpSolver` inverts it."""

    __slots__ = ("small", "big", "root", "_batch", "_cols", "_solver")

    def __init__(self, small, big, root):
        self.small = small
        self.big = big
        self.root = root
        powers = [1]  # root^i, the image of t^i
        for _ in range(small.m - 1):
            powers.append(big.mul(powers[-1], root))
        self._batch = big.single_batch()
        self._cols = self._batch.columns(powers)
        self._solver = None

    def map_packed(self, u):
        return self._batch.apply_packed(self._cols, u)

    def inverse_packed(self, v):
        """Preimage of a packed big-field value in [0, q), or None if outside
        the image.  The solver of the map's columns is built on the first call."""
        if not 0 <= v < self.big.q:
            return None
        if self._solver is None:
            self._solver = GFpSolver(self._batch, self._cols)
        x = self._solver.solve(self._batch.spread((v,)))
        return None if x is None else self._batch.values(x, 1, self.small.m)[0]
