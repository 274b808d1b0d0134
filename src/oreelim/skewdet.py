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
returned matrix.  The field decides which store runs, and `skewdet` reads
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
doubles when a product would outgrow it.  Every other field keeps rows of
packed coefficient tuples, updated by `ore_uni`'s packed helpers.  The
pivot rules, the signed swap and the no-progress fallback are one
elimination loop over either store, so both give the same op log and the
same matrix.  Each store's pass writes the new length of every entry it
divides, read from the row, and the loop checks after each pass that
every entry below the pivot is now shorter, so a fault in a store's
arithmetic raises an AssertionError instead of dividing forever.

Row signs are lazy: the matrix is kept as per-row signs times stored rows,
a signed swap exchanges two stored rows and flips one sign, and no entry is
negated until the signs are applied once, to the result (a no-op for
p = 2).  Dividing stored entries gives q, so the stored update is
row_k - q*row_col and the logged multiplier is -s_k*s_col*q.

Memos live for one division pass: the tuple store keeps one memo per pivot
entry per pass (the byte store one for the whole pivot row), shared by
every row that the pass updates, so each twist of the pivot row is made
once per pass.  Nothing outlives the pass, the inverse of the pivot's
leading coefficient included.
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


def _pick_pivot(cands, rule, rng):
    # cands: list of (degree, row)
    if rule == "min_degree":
        return min(cands)[1]
    if rule == "first_nonzero":
        return min(row for _, row in cands)
    return rng.choice(sorted(row for _, row in cands))


class _TupleRows:
    """The row store for every field without byte tables: each entry a
    packed coefficient tuple, updated by `ore_uni`'s packed helpers."""

    def __init__(self, matrix):
        ring = matrix.ring
        self.ctx, self.e, self.n = ring.ctx, ring.sigma.e, matrix.n
        self.rows = [[a.coeffs for a in r] for r in matrix.rows]

    def column(self, col):
        return [len(r[col]) for r in self.rows]

    def swap(self, i, j):
        rows = self.rows
        rows[i], rows[j] = rows[j], rows[i]

    def reduce_below(self, col, lengths, signs):
        """Every stored row k below col whose entry is not shorter than the
        pivot becomes rows[k] - q*rows[col], for q the quotient of the
        entries; writes the new entry length of each such row k into
        lengths and returns (k, -s_k*s_col*q), the true multiplier."""
        ctx, e, n, rows = self.ctx, self.e, self.n, self.rows
        prow = rows[col]
        pivot, ptwists = prow[col], {}
        tail = [(j, prow[j], {}) for j in range(col + 1, n) if prow[j]]
        inv = ctx.inv(pivot[-1])
        done = []
        for k in range(col + 1, n):
            if lengths[k] < len(pivot):  # zero or of lower degree
                continue
            row = rows[k]
            q, row[col] = right_divmod_packed(ctx, e, row[col], pivot, ptwists, inv)
            nq = neg_packed(ctx, q)
            for j, a, a_twists in tail:
                row[j] = addmul_packed(ctx, e, row[j], nq, a, a_twists)
            lengths[k] = len(row[col])
            done.append((k, nq if signs[k] == signs[col] else q))
        return done

    def entries(self):
        return self.rows


class _ByteRows:
    """The row store for every field that supplies byte tables
    (`FieldCtx.byte_tables`): row k is one integer of value codes, one per
    byte, interleaved: while column col is eliminated, byte i*W + j holds
    coefficient i of entry col + j, for W = n - col.  A quotient term
    q_i x^i updates the remainder and the whole tail of a row at once: the
    pivot row's bytes, twisted by frob^(i*e) and multiplied by -q_i through
    `bytes.translate`, are added i*W bytes up by the field's row sum.  The
    sum spans `nbytes`, which bounds every row, and doubles when a product
    would outgrow it.  The entries are encoded on entry, and the logged
    multipliers and the result are decoded, each by one `bytes.translate`
    per row."""

    def __init__(self, matrix, tables):
        ring, n = matrix.ring, matrix.n
        self.ctx, self.e, self.n = ring.ctx, ring.sigma.e, n
        self.enc, self.dec, self.mul, self.frob, self.neg, self.adder = tables
        self.negdec = self.neg.translate(self.dec)  # code -> packed negative
        codes = []
        for r in matrix.rows:
            b = bytearray(n * max((len(a.coeffs) for a in r), default=0))
            for j, a in enumerate(r):
                b[j : len(a.coeffs) * n : n] = bytes(a.coeffs)
            codes.append(b.translate(self.enc))
        self.rows = [int.from_bytes(b, "little") for b in codes]
        self.nbytes = max(map(len, codes), default=0)

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

    def swap(self, i, j):
        rows = self.rows
        rows[i], rows[j] = rows[j], rows[i]

    def reduce_below(self, col, lengths, signs):
        """Every stored row k below col whose entry is not shorter than the
        pivot becomes rows[k] - q*rows[col]: for each quotient term q_i x^i,
        from the top, the pivot row twisted by frob^(i*e) and multiplied by
        -q_i is added i*W bytes up.  Writes the new entry length of each
        such row k into lengths, read from the row, and returns
        (k, -s_k*s_col*q), the true multiplier."""
        n, rows = self.n, self.rows
        lp = lengths[col]
        below = [k for k in range(col + 1, n) if lengths[k] >= lp]
        if not below:
            return []
        w = n - col
        prow = _bytes(rows[col])
        need = len(prow) + (max(lengths[col + 1 :]) - lp) * w  # the longest product
        if need > self.nbytes:
            self._span(max(need, 2 * self.nbytes), w)
        e, add, mul, frob, first = self.e, self.add, self.mul, self.frob, self.first
        m, s = len(frob), 8 * w
        ninv = self.neg[self.enc[self.ctx.inv(self.dec[prow[(lp - 1) * w]])]]
        twisted = {}  # t -> (the pivot row through frob[t], frob(-inv, t))
        done = []
        for k in below:
            row = rows[k]
            dq = lengths[k] - lp
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
            logged = self.dec if signs[k] == signs[col] else self.negdec
            done.append((k, tuple(nq.translate(logged))))
        return done

    def entries(self):
        # row k was finished at column k: entry k + j is b[j::n - k]
        n, out = self.n, []
        for k, r in enumerate(self.rows):
            b = _bytes(r).translate(self.dec)
            tail = [tuple(b[j :: n - k].rstrip(b"\0")) for j in range(n - k)]
            out.append([()] * k + tail)
        return out


def _bytes(row):
    """A row's bytes, with no zero top."""
    return row.to_bytes(row.bit_length() + 7 >> 3, "little")


def triangularize_with_log(matrix, rule="min_degree", seed=0):
    """Upper-triangular form obtained with row_addmul and row_swap_signed
    only, together with the operation log that reproduces it.

    A column whose at-or-below-diagonal entries are all zero simply leaves a
    zero on the diagonal and processing continues (the determinant is then
    zero)."""
    if rule not in PIVOT_RULES:
        raise RingMismatch(f"unknown pivot rule {rule!r}")
    ring = matrix.ring
    ctx = ring.ctx
    n = matrix.n
    tables = ctx.byte_tables()
    store = _ByteRows(matrix, tables) if tables else _TupleRows(matrix)
    # row k of the matrix is signs[k] times the stored row k
    signs = [1] * n
    ops = []
    rng = random.Random(seed) if rule == "random" else None

    def swap(i, j, lengths):
        # row_j <- row_i ; row_i <- -row_j, the sign kept apart; the entry
        # lengths of the current column move with their rows
        store.swap(i, j)
        lengths[i], lengths[j] = lengths[j], lengths[i]
        signs[i], signs[j] = -signs[j], signs[i]
        ops.append(SwapSignedOp(i, j))

    def reduce_below(col, lengths):
        """One full division pass of every below-diagonal entry against the
        diagonal; returns True if any row changed.  The stored row k becomes
        rows[k] - q*rows[col] for the division q, r of the stored entries;
        the store updates lengths and returns -s_k*s_col*q, logged."""
        done = store.reduce_below(col, lengths, signs)
        for k, logged in done:
            ops.append(AddMulOp(col, k, OrePoly(ring, logged)))
        return bool(done)

    for col in range(n):
        lengths = store.column(col)
        while any(lengths[col + 1 :]):
            cands = [(d, k) for k, d in enumerate(lengths[col:], col) if d]
            k = _pick_pivot(cands, rule, rng)
            if k != col:
                swap(k, col, lengths)
            if not reduce_below(col, lengths):
                # Every below entry now has degree strictly under the pivot;
                # bring the smallest one up so the Euclidean descent continues.
                below = [(d, k) for k, d in enumerate(lengths[col + 1 :], col + 1) if d]
                if not below:
                    break
                swap(min(below)[1], col, lengths)
                reduce_below(col, lengths)
            if max(lengths[col + 1 :]) >= lengths[col]:  # a fault in the store
                raise AssertionError("division pass made no progress")
    out = [
        [OrePoly(ring, c if s > 0 else neg_packed(ctx, c)) for c in row]
        for s, row in zip(signs, store.entries())
    ]
    return OreMatrix(ring, out), tuple(ops)


def dieudonne_det(matrix, rule="min_degree", seed=0):
    """Triangularize, then multiply the diagonal entries in row order.

    For n = 1 the result is the single entry itself.  A zero diagonal entry
    (non-invertible matrix) yields the zero representative."""
    tri, ops = triangularize_with_log(matrix, rule=rule, seed=seed)
    diag = [tri.rows[i][i] for i in range(tri.n)]
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
