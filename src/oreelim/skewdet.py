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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import EqualRows, IndexOutOfRange, RingMismatch
from .field import NEG_INF
from .ore_uni import OrePoly

PIVOT_RULES = ("min_degree", "first_nonzero", "random")


@dataclass(frozen=True)
class AddMulOp:
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


@dataclass(frozen=True)
class SwapSignedOp:
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


def triangularize_with_log(matrix, rule="min_degree", seed=0):
    """Upper-triangular form obtained with row_addmul and row_swap_signed
    only, together with the operation log that reproduces it.

    A column whose at-or-below-diagonal entries are all zero simply leaves a
    zero on the diagonal and processing continues (the determinant is then
    zero)."""
    if rule not in PIVOT_RULES:
        raise RingMismatch(f"unknown pivot rule {rule!r}")
    ring = matrix.ring
    n = matrix.n
    work = [list(r) for r in matrix.rows]
    ops = []
    rng = random.Random(seed) if rule == "random" else None

    def swap(i, j):
        # row_j <- row_i ; row_i <- -row_j
        old_j = work[j]
        work[j] = work[i]
        work[i] = [-e for e in old_j]
        ops.append(SwapSignedOp(i=i, j=j))

    def reduce_below(col):
        """One full division pass of every below-diagonal entry against the
        diagonal; returns True if any row changed.  Row k becomes
        row_k - q*row_col: its entry in column col is the division's
        remainder, and the columns left of col are zero in both rows.  The
        pivot row's entries memoize their Frobenius twists as right factors,
        so they are twisted once per pass, not once per row k."""
        pivot = work[col][col]
        progressed = False
        for k in range(col + 1, n):
            ent = work[k][col]
            if ent.is_zero or ent.degree < pivot.degree:
                continue
            q, r = ent.right_divmod(pivot)
            nq = -q
            row = work[k]
            tail = zip(work[col][col + 1 :], row[col + 1 :])
            work[k] = row[:col] + [r] + [b.addmul(nq, a) for a, b in tail]
            ops.append(AddMulOp(src=col, dst=k, q=nq))
            progressed = True
        return progressed

    for col in range(n):
        while True:
            below = [k for k in range(col + 1, n) if not work[k][col].is_zero]
            if not below:
                break
            cands = [
                (work[k][col].degree, k)
                for k in range(col, n)
                if not work[k][col].is_zero
            ]
            k = _pick_pivot(cands, rule, rng)
            if k != col:
                swap(k, col)
            if not reduce_below(col):
                # Every below entry now has degree strictly under the pivot;
                # bring the smallest one up so the Euclidean descent continues.
                below = [k for k in range(col + 1, n) if not work[k][col].is_zero]
                if not below:
                    break
                k = min((work[k][col].degree, k) for k in below)[1]
                swap(k, col)
                reduce_below(col)
    return OreMatrix(ring, work), tuple(ops)


def dieudonne_det(matrix, rule="min_degree", seed=0):
    """Triangularize, then multiply the diagonal entries in row order.

    For n = 1 the result is the single entry itself.  A zero diagonal entry
    (non-invertible matrix) yields the zero representative."""
    tri, ops = triangularize_with_log(matrix, rule=rule, seed=seed)
    diag = [tri.rows[i][i] for i in range(tri.n)]
    if any(d.is_zero for d in diag):
        zero = matrix.ring.zero()
        return DetResult(rep=zero, is_zero=True, degree=NEG_INF, op_log=ops)
    rep = diag[0]
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
