"""Direct elimination of x2: the skew Sylvester matrix and its Dieudonne
determinant over A[x1;sigma1].

For f of x2-degree n and g of x2-degree m the matrix is (n+m) x (n+m); its
first m rows hold the x2-coefficient sequences of x2^(m-1)*f, ..., x2*f, f
(highest power leftmost) and the next n rows those of x2^(n-1)*g, ..., g.
Rows are produced exclusively through left x2-shifts, so the sigma2 twist on
the coefficients is structural rather than ad hoc.  The resulting entries
live in A[x1;sigma1]: the determinant representative has x2 eliminated.

Both routes hand the matrix to `skewdet` as that description, not as
entries: `sylvester_shifts` gives a `ShiftMatrix` whose base rows are the
x2-coefficients of f and of g, shifted m and n times.  Where the
field has byte tables the triangularization encodes each base row once
and builds every shifted row from it, and only the diagonal comes back.
`sylvester_matrix` lists the same matrix entry by entry, as an
`OreMatrix`.

Degenerate degrees (exactly one of n, m zero) follow the classical
convention res(f, b0) = determinant of the diagonal matrix of twisted
b0-shifts; n = m = 0 is rejected.
"""

from __future__ import annotations

from .errors import BothConstant, RingMismatch, ZeroPolynomial
from .ore_bivar import BivarOrePoly
from .skewdet import DetResult, OreMatrix, ShiftMatrix, dieudonne_det


def sylvester_shifts(f, g):
    """The elimination matrix of a pair of bivariate Ore polynomials as the
    x2-shifts its rows are (a `ShiftMatrix`): the base rows hold the
    x2-coefficients of f and of g, highest power leftmost, shifted m - 1
    down to 0 and n - 1 down to 0 times.  Checks the pair as
    `sylvester_matrix` does, and twists no entry."""
    if not isinstance(f, BivarOrePoly) or not isinstance(g, BivarOrePoly):
        raise RingMismatch("sylvester_matrix expects bivariate Ore polynomials")
    if f.ring != g.ring:
        raise RingMismatch("f and g must share one Ore algebra")
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("resultant of a zero polynomial is undefined")
    n, m = f.degree, g.degree
    size = n + m
    if size == 0:
        raise BothConstant("both inputs are constant in x2; nothing to eliminate")
    bases = tuple(
        (tuple(h.coeff(size - 1 - j) for j in range(size)), count)
        for h, count in ((f, m), (g, n))
        if count
    )
    return ShiftMatrix(f.ring.inner, f.ring.sigma2.e, bases)


def sylvester_matrix(f, g):
    """The elimination matrix built from x2-shifts of a pair of bivariate Ore
    polynomials: an OreMatrix whose entries are inner polynomials in x1."""
    shifts = sylvester_shifts(f, g)
    return OreMatrix(shifts.ring, shifts.rows)


def sylvester_degree_bound(f, g):
    """Upper bound for the x1-degree of the eliminant: each f-row contributes
    at most max deg_x1(a_i), each g-row at most max deg_x1(b_j)."""
    return g.degree * f.max_inner_degree() + f.degree * g.max_inner_degree()


def res_x2_direct(f, g, rule="min_degree", seed=0) -> DetResult:
    """res_{x2}(f, g): the Dieudonne determinant of the Sylvester matrix.

    The representative is reported raw (fixed pivot rule, diagonal product in
    row order, hence bit-reproducible)."""
    return dieudonne_det(sylvester_shifts(f, g), rule=rule, seed=seed)
