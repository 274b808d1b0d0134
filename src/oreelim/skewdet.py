"""Matrices over A[x;sigma]: elementary row operations, Euclidean
triangularization, and the Dieudonne determinant.

The determinant of a matrix over a skew field lives in the abelianization of
the multiplicative group, so only a *representative* is computable here.  The
matrix is brought to upper-triangular form using two elementary operations --
adding a left polynomial multiple of one row to another, and the signed swap
that exchanges two rows while negating one of them -- both of which leave the
determinant class untouched.  Because A[x;sigma] is right-Euclidean the
diagonal stays polynomial throughout, and the representative is the product
of the diagonal entries taken in row order (a fixed order keeps output
reproducible; the class itself does not depend on the order).

What is canonical about the result, and therefore what `surrogates_equal`
compares: the vanishing flag, the degree, and -- when sigma is the identity,
where the representative is the classical determinant -- the representative
itself up to sign.

Pivot strategies: "min_degree" (lowest-degree nonzero entry at or below the
diagonal, ties to the lowest row; the default), "first_nonzero", and a
seeded "random" rule.  The latter two fall back to a min-degree swap whenever
a full division pass cannot shrink the column, which keeps every strategy
terminating.  Every applied operation is recorded in an op log that can be
replayed or serialized for audit.

`triangularize_with_log` works on one of two row stores, not on `OrePoly`
values; `OrePoly` values are built only for the logged multipliers and the
entries returned.  The field decides which store runs, and `skewdet` reads
no characteristic: when the field supplies byte tables
(`FieldCtx.byte_tables`: GF(2^m) and GF(3^m) up to GF(2^8) and GF(3^4),
and GF(p) for p < 128) each row is one integer of one-byte value codes,
interleaved: while column col is eliminated, coefficient i of entry col + j
is byte i*W + j for W = n - col, so an entry grows into higher bytes and
never into its neighbour.  A quotient term q_i x^i updates the remainder
and the whole tail of a row at once: the pivot row's bytes are twisted by
frob^(i*e) and multiplied by -q_i through `bytes.translate`, then added
i*W bytes up by the field's row sum (an XOR for p = 2, bitsliced GF(3)
digits for GF(3^m) with m > 1, one SWAR step for GF(p)), whose width
doubles when a product would outgrow it; -1 over the pivot's leading
coefficient is one read of the field's `ninv` table.  Every other field
keeps rows of packed coefficient tuples, updated by `ore_uni`'s packed
helpers.  Each store's pass writes the new length of every entry it
divides, read from the row, and logs each multiplier as it makes it.

The input is an `OreMatrix`, or a `ShiftMatrix`: a matrix given by the
shifts of a few base rows, which is how both elimination routes hand over
the Sylvester matrix.  The byte store encodes each base row once and
builds every shifted row from it by one `bytes.translate` and one shift,
so no entry of a shifted row exists as an `OrePoly`; the tuple store
reads the shifted rows' entries.  For a `ShiftMatrix` only the diagonal
is decoded and returned, the one part of the triangular form that either
route reads.

One elimination loop runs every pivot rule over either store, so both
give the same op log and the same matrix.  Per division pass it picks the
pivot from the column's entry lengths in one scan, makes the signed swap
in line, and lets the store divide.  When no entry below the pivot is as
long as the pivot, a pass would change no row, and the loop swaps the
shortest entry up instead.  After each pass it checks that every entry
below the pivot is now shorter, so a fault in a store's arithmetic raises
an AssertionError instead of dividing forever.

Row signs are lazy: the matrix is kept as per-row signs times stored rows,
a signed swap exchanges two stored rows and flips one sign, and no entry is
negated until the result is read: the byte store decodes a row of sign -1
through a negating decoder, the tuple store negates the entries read (a
no-op for p = 2).  Dividing stored entries gives q, so the stored update is
row_k - q*row_col and the logged multiplier is -s_k*s_col*q.

Memos live for one division pass: the tuple store keeps one memo per pivot
entry per pass (the byte store one for the whole pivot row), shared by
every row that the pass updates, so each twist of the pivot row is made
once per pass.  Nothing outlives the pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import EqualRows, IndexOutOfRange, RingMismatch
from .field import NEG_INF
from .ore_uni import OrePoly, addmul_packed, neg_packed, right_divmod_packed

PIVOT_RULES = ("min_degree", "first_nonzero", "random")


class AddMulOp(NamedTuple):
    """row[dst] <- row[dst] + q * row[src]"""

    src: int
    dst: int
    q: OrePoly

    def to_jsonable(self):
        return {
            "op": "addmul",
            "src": self.src,
            "dst": self.dst,
            "q": list(self.q.coeffs),
        }


class SwapSignedOp(NamedTuple):
    """row[j] <- row[i]; row[i] <- -row[j]"""

    i: int
    j: int

    def to_jsonable(self):
        return {"op": "swap_signed", "i": self.i, "j": self.j}


class OreMatrix:
    """A square matrix of Ore polynomials sharing one ring."""

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise RingMismatch("matrix must be square")
            for entry in r:
                if not isinstance(entry, OrePoly) or entry.ring != ring:
                    raise RingMismatch("entries must share the matrix ring")

    @classmethod
    def identity(cls, ring, n):
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        if isinstance(other, OreMatrix):
            return self.ring == other.ring and self.rows == other.rows
        return NotImplemented

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)
        return f"OreMatrix({body})"

    def _check_index(self, i):
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"row index {i} outside 0..{self.n - 1}")

    def row_addmul(self, i, j, q):
        """New matrix with row j replaced by row_j + q*row_i (left multiple);
        the determinant representative is unchanged."""
        self._check_index(i)
        self._check_index(j)
        if i == j:
            raise EqualRows("cannot add a multiple of a row to itself")
        if not isinstance(q, OrePoly) or q.ring != self.ring:
            raise RingMismatch("multiplier must live in the matrix ring")
        rows = list(self.rows)
        rows[j] = tuple(b.addmul(q, a) for a, b in zip(self.rows[i], self.rows[j]))
        return OreMatrix(self.ring, rows)

    def row_swap_signed(self, i, j):
        """New matrix with row_j <- row_i and row_i <- -row_j; realizes the
        three-step elementary sequence that swaps rows without changing the
        determinant."""
        self._check_index(i)
        if i == j:
            raise IndexOutOfRange("signed swap needs two distinct rows")
        self._check_index(j)
        rows = list(self.rows)
        rows[j] = self.rows[i]
        rows[i] = tuple(-e for e in self.rows[j])
        return OreMatrix(self.ring, rows)


@dataclass(frozen=True)
class DetResult:
    """A Dieudonne determinant representative plus its canonical surrogates."""

    rep: OrePoly
    is_zero: bool
    degree: object  # int or -inf
    op_log: tuple = field(default_factory=tuple)

    @property
    def monic_rep(self):
        """Monic-normalized convenience form (the raw representative keeps the
        unit produced by the fixed row order)."""
        return self.rep if self.is_zero else self.rep.monic()

    def to_jsonable(self):
        return {
            "rep": list(self.rep.coeffs),
            "is_zero": self.is_zero,
            "degree": None if self.is_zero else self.degree,
            "op_log": [op.to_jsonable() for op in self.op_log],
        }


@dataclass(frozen=True)
class SurrogateVerdict:
    """Computable stand-in for equality modulo commutators."""

    is_zero_agree: bool
    degree_agree: bool
    rep_match: object  # True/False in the commutative case, None otherwise

    @property
    def agree(self):
        return self.is_zero_agree and self.degree_agree and self.rep_match is not False

    def __bool__(self):
        return self.agree


def apply_op_log(matrix, ops):
    """Replay a recorded operation sequence (audit helper)."""
    for op in ops:
        if isinstance(op, AddMulOp):
            matrix = matrix.row_addmul(op.src, op.dst, op.q)
        elif isinstance(op, SwapSignedOp):
            matrix = matrix.row_swap_signed(op.i, op.j)
        else:
            raise RingMismatch(f"unknown op {op!r}")
    return matrix


class ShiftMatrix(NamedTuple):
    """A square matrix over A[x;sigma] given by the shifts of its base rows
    by a second indeterminate y that twists field values by frob^e.  For
    each (base, count) in `bases`, count > 0, the matrix holds the rows of
    y^(count-1)*h, ..., y*h, h, where the n entries of base are the
    y-coefficients of h, highest power leftmost: entry j of the row of
    y^k*h is base entry j + k with every coefficient twisted by frob^(k*e),
    and zero past the end.  The first count - 1 base entries are zero, so
    a shift moves no nonzero entry off the row, and the counts add up to
    n.  `resultant.sylvester_shifts` describes the Sylvester matrix so;
    `rows` lists its entries."""

    ring: object  # OreRing
    e: int
    bases: tuple  # ((entries, count), ...)

    @property
    def n(self):
        return sum(count for _, count in self.bases)

    @property
    def rows(self):
        zero, out = self.ring.zero(), []
        for base, count in self.bases:
            for k in range(count - 1, -1, -1):
                twist = k * self.e
                out.append(tuple(a.coeff_twist(twist) for a in base[k:]) + (zero,) * k)
        return tuple(out)


def _pick_pivot(lengths, col, rule, rng):
    """The pivot row of column col under `rule`, from the entry lengths of
    rows col..n-1 (0 for a zero entry), at least one of them nonzero."""
    below = lengths[col:]
    if rule == "min_degree":
        return below.index(min(filter(None, below))) + col
    rows = [k for k, d in enumerate(below, col) if d]
    return rows[0] if rule == "first_nonzero" else rng.choice(rows)


class _TupleRows:
    """The row store for every field without byte tables: each entry a
    packed coefficient tuple, updated by `ore_uni`'s packed helpers."""

    def __init__(self, matrix):
        self.ring, self.n = matrix.ring, matrix.n
        self.rows = [[a.coeffs for a in r] for r in matrix.rows]

    def column(self, col):
        return [len(r[col]) for r in self.rows]

    def reduce_below(self, col, lengths, signs, ops):
        """Every stored row k below col whose entry is not shorter than the
        pivot becomes rows[k] - q*rows[col], for q the quotient of the
        entries; writes the new entry length of each such row k into
        lengths and logs (col, k, -s_k*s_col*q), the true multiplier."""
        ring, n, rows = self.ring, self.n, self.rows
        ctx, e = ring.ctx, ring.sigma.e
        prow = rows[col]
        pivot, ptwists, sign = prow[col], {}, signs[col]
        tail = [(j, prow[j], {}) for j in range(col + 1, n) if prow[j]]
        inv = ctx.inv(pivot[-1])
        for k in range(col + 1, n):
            if lengths[k] < len(pivot):  # zero or of lower degree
                continue
            row = rows[k]
            q, row[col] = right_divmod_packed(ctx, e, row[col], pivot, ptwists, inv)
            nq = neg_packed(ctx, q)
            for j, a, a_twists in tail:
                row[j] = addmul_packed(ctx, e, row[j], nq, a, a_twists)
            lengths[k] = len(row[col])
            ops.append(AddMulOp(col, k, OrePoly(ring, nq if signs[k] == sign else q)))

    def signed(self, k, sign, count):
        """Entries k..k+count-1 of the finished row k, times sign."""
        entries = self.rows[k][k : k + count]
        return entries if sign > 0 else [neg_packed(self.ring.ctx, c) for c in entries]


class _ByteRows:
    """The row store for every field that supplies byte tables
    (`FieldCtx.byte_tables`): row k is one integer of value codes, one per
    byte, interleaved: while column col is eliminated, byte i*W + j holds
    coefficient i of entry col + j, for W = n - col.  A quotient term
    q_i x^i updates the remainder and the whole tail of a row at once: the
    pivot row's bytes, twisted by frob^(i*e) and multiplied by -q_i through
    `bytes.translate`, are added i*W bytes up by the field's row sum.  The
    sum spans `nbytes`, which bounds every row, and doubles when a product
    would outgrow it.

    An `OreMatrix` is encoded row by row.  A `ShiftMatrix` is encoded one
    base row at a time: the row of y^k*h is the base row's bytes
    translated by frob[k*e'], for e' the shift's twist, and moved k bytes
    down, so no entry of a shifted row is twisted or encoded on its own.
    A finished row is decoded by one `bytes.translate` per entry read,
    through the negating decoder when its sign is -1, and each logged
    multiplier by one."""

    def __init__(self, matrix, tables):
        ring, n = matrix.ring, matrix.n
        self.ring, self.e, self.n = ring, ring.sigma.e, n
        self.enc, self.dec, self.mul, self.frob, neg, self.ninv, self.adder = tables
        self.negdec = neg.translate(self.dec)  # code -> packed negative
        if isinstance(matrix, ShiftMatrix):
            codes = [self._codes(base) for base, _ in matrix.bases]
            e, m = matrix.e, len(self.frob)
            self.rows = [
                int.from_bytes(b.translate(self.frob[k * e % m]), "little") >> 8 * k
                for b, (_, count) in zip(codes, matrix.bases)
                for k in range(count - 1, -1, -1)
            ]
        else:
            codes = [self._codes(r) for r in matrix.rows]
            self.rows = [int.from_bytes(b, "little") for b in codes]
        self.nbytes = max(map(len, codes), default=0)

    def _codes(self, entries):
        """A row's value codes, coefficient-major: byte i*n + j holds
        coefficient i of entry j."""
        n = self.n
        b = bytearray(n * max((len(a.coeffs) for a in entries), default=0))
        for j, a in enumerate(entries):
            b[j : len(a.coeffs) * n : n] = bytes(a.coeffs)
        return b.translate(self.enc)

    def _span(self, nbytes, w):
        # the row sum, and the mask of the bytes of entry col, over nbytes
        self.nbytes, self.add = nbytes, self.adder(nbytes)
        mask = b"\xff".ljust(w, b"\0") * (nbytes // w + 1)
        self.first = int.from_bytes(mask, "little")

    def column(self, col):
        """Start column col and return its entry lengths (the rows above
        col count as 0: no caller reads them)."""
        rows, w = self.rows, self.n - col
        if col:  # each row below col - 1 drops entry col - 1, left zero
            for k in range(col, self.n):
                b = bytearray(_bytes(rows[k]))
                del b[:: w + 1]
                rows[k] = int.from_bytes(b, "little")
        self._span(self.nbytes, w)
        first, s = self.first, 8 * w
        return [0] * col + [((r & first).bit_length() + s - 1) // s for r in rows[col:]]

    def reduce_below(self, col, lengths, signs, ops):
        """Every stored row k below col whose entry is not shorter than the
        pivot becomes rows[k] - q*rows[col]: for each quotient term q_i x^i,
        from the top, the pivot row twisted by frob^(i*e) and multiplied by
        -q_i is added i*W bytes up.  Writes the new entry length of each
        such row k into lengths, read from the row, and logs
        (col, k, -s_k*s_col*q), the true multiplier."""
        ring, n, rows = self.ring, self.n, self.rows
        lp, w = lengths[col], n - col
        prow = _bytes(rows[col])
        need = len(prow) + (max(lengths[col + 1 :]) - lp) * w  # the longest product
        if need > self.nbytes:
            self._span(max(need, 2 * self.nbytes), w)
        e, add, mul, frob, first = self.e, self.add, self.mul, self.frob, self.first
        m, s, sign = len(frob), 8 * w, signs[col]
        ninv = self.ninv[prow[(lp - 1) * w]]  # -1 / the pivot's lead
        twisted = {}  # t -> (the pivot row through frob[t], frob(-1/lead, t))
        for k in range(col + 1, n):
            dq = lengths[k] - lp
            if dq < 0:  # zero or of lower degree
                continue
            row = rows[k]
            nq = bytearray(dq + 1)  # -q
            for i in range(dq, -1, -1):
                top = row >> s * (i + lp - 1) & 255
                if top:
                    t = i * e % m
                    tw = twisted.get(t)
                    if tw is None:
                        tw = twisted[t] = (prow.translate(frob[t]), frob[t][ninv])
                    nqi = nq[i] = mul[top][tw[1]]
                    product = int.from_bytes(tw[0].translate(mul[nqi]), "little")
                    row = add(row, product << s * i)
            rows[k] = row
            lengths[k] = ((row & first).bit_length() + s - 1) // s
            logged = self.dec if signs[k] == sign else self.negdec
            ops.append(AddMulOp(col, k, OrePoly(ring, tuple(nq.translate(logged)))))

    def signed(self, k, sign, count):
        """Entries k..k+count-1 of the finished row k, times sign: row k was
        finished at column k, so entry k + j is byte j, j + W, ... for
        W = n - k."""
        b, w = _bytes(self.rows[k]), self.n - k
        dec = self.dec if sign > 0 else self.negdec
        return [tuple(b[j::w].rstrip(b"\0").translate(dec)) for j in range(count)]


def _bytes(row):
    """A row's bytes, with no zero top."""
    return row.to_bytes(row.bit_length() + 7 >> 3, "little")


def triangularize_with_log(matrix, rule="min_degree", seed=0):
    """Upper-triangular form obtained with row_addmul and row_swap_signed
    only, together with the operation log that reproduces it.

    A column whose at-or-below-diagonal entries are all zero simply leaves a
    zero on the diagonal and processing continues (the determinant is then
    zero).  An `OreMatrix` gives (the triangular OreMatrix, op log); a
    `ShiftMatrix`, the routes' input, gives (its diagonal, op log), the
    diagonal a tuple of n entries, since neither route reads more."""
    if rule not in PIVOT_RULES:
        raise RingMismatch(f"unknown pivot rule {rule!r}")
    ring, n = matrix.ring, matrix.n
    tables = ring.ctx.byte_tables()
    store = _ByteRows(matrix, tables) if tables else _TupleRows(matrix)
    rows = store.rows
    # row k of the matrix is signs[k] times the stored row k
    signs = [1] * n
    ops = []
    rng = random.Random(seed) if rule == "random" else None
    for col in range(n):
        lengths = store.column(col)
        pick = rule
        while any(lengths[col + 1 :]):
            k = _pick_pivot(lengths, col, pick, rng)
            if k != col:
                # row_col <- row_k ; row_k <- -row_col, the sign kept apart;
                # the entry lengths of the column move with their rows
                rows[k], rows[col] = rows[col], rows[k]
                lengths[k], lengths[col] = lengths[col], lengths[k]
                signs[k], signs[col] = -signs[col], signs[k]
                ops.append(SwapSignedOp(k, col))
            if max(lengths[col + 1 :]) < lengths[col]:
                # Every below entry has degree strictly under the pivot, so a
                # pass would change no row; the shortest comes up instead.
                pick = "min_degree"
                continue
            pick = rule
            # One full division pass of every below-diagonal entry against
            # the diagonal: the stored row k becomes rows[k] - q*rows[col]
            # for the division q, r of the stored entries, and the store
            # updates lengths and logs -s_k*s_col*q.
            store.reduce_below(col, lengths, signs, ops)
            if max(lengths[col + 1 :]) >= lengths[col]:  # a fault in the store
                raise AssertionError("division pass made no progress")
    if isinstance(matrix, ShiftMatrix):
        diag = tuple(OrePoly(ring, store.signed(k, s, 1)[0]) for k, s in enumerate(signs))
        return diag, tuple(ops)
    zero = ring.zero()
    out = [
        [zero] * k + [OrePoly(ring, c) for c in store.signed(k, s, n - k)]
        for k, s in enumerate(signs)
    ]
    return OreMatrix(ring, out), tuple(ops)


def dieudonne_det(matrix, rule="min_degree", seed=0):
    """Triangularize, then multiply the diagonal entries in row order.

    For n = 1 the result is the single entry itself.  A zero diagonal entry
    (non-invertible matrix) yields the zero representative."""
    diag, ops = triangularize_with_log(matrix, rule=rule, seed=seed)
    if not isinstance(matrix, ShiftMatrix):  # the whole triangular matrix
        diag = [diag.rows[i][i] for i in range(diag.n)]
    if any(d.is_zero for d in diag):
        zero = matrix.ring.zero()
        return DetResult(rep=zero, is_zero=True, degree=NEG_INF, op_log=ops)
    rep = diag[0] if diag else matrix.ring.one()  # the empty product for n = 0
    for d in diag[1:]:
        rep = rep * d
    return DetResult(rep=rep, is_zero=False, degree=rep.degree, op_log=ops)


def surrogates_equal(d1, d2):
    """Compare two determinant results by their computable surrogates:
    vanishing flag, degree, and (commutative case only) the representative up
    to sign."""
    if d1.rep.ring != d2.rep.ring:
        raise RingMismatch("determinants over different rings")
    rep_match = None
    if d1.rep.ring.sigma.is_identity:
        rep_match = d1.rep == d2.rep or d1.rep == -d2.rep
    return SurrogateVerdict(
        is_zero_agree=d1.is_zero == d2.is_zero,
        degree_agree=d1.degree == d2.degree,
        rep_match=rep_match,
    )
