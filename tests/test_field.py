"""Field contexts, Frobenius automorphisms, norms, and extensions."""

import functools
import itertools
import random
import time
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from oreelim import (
    Automorphism,
    ContextMismatch,
    DegreeMismatch,
    NotAnExtension,
    NotPrime,
    ReducibleModulus,
    SingularMooreSystem,
    ZeroElement,
    extend_field,
    field_new,
    make_rings,
    parse_element,
    plan_modular,
    res_x2_direct,
    sigma_norm,
)
from oreelim import field
from oreelim.field import (
    FieldBatch,
    FieldCtx,
    GFpSolver,
    _GFpT,
    _barrett,
    _context,
    _default_modulus,
    _is_irreducible,
    _is_prime,
    _prime_factors,
)
from oreelim.modres import _least_modulus_root
from oracles import (
    brute_conjugacy,
    default_modulus_full_scan,
    is_irreducible_rabin,
    is_prime_trial,
    least_modulus_root_enum,
    mul_schoolbook,
    pmul,
    prime_factors_trial,
    recorded_elimination_inverse,
    solve_dense,
)
from support import untabled


def test_field_new_gf4():
    ctx = field_new(2, 2, [1, 1, 1])
    assert ctx.p == 2 and ctx.m == 2 and ctx.q == 4
    # the unique monic irreducible quadratic over GF(2) is also the default
    assert field_new(2, 2).modulus == (1, 1, 1)


def test_field_new_gf5_default_modulus():
    ctx = field_new(5, 1)
    assert ctx.modulus == (0, 1)
    assert ctx.spec_string() == "GF(5; modulus = t)"


def test_field_new_degenerate_degree():
    with pytest.raises(DegreeMismatch):
        field_new(7, 0)


def test_field_order_cap():
    # field_new keeps the input domain p^m < 2^63
    assert field_new(2, 62).backend == "bits"
    for p, m in ((2, 63), (3, 40)):
        with pytest.raises(DegreeMismatch, match="exceeds 2"):
            field_new(p, m)


def test_field_new_not_prime():
    with pytest.raises(NotPrime):
        field_new(6, 1)


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n) != is_prime_trial(n)] == []


@pytest.mark.parametrize(
    "n, prime",
    [
        (561, False),  # Carmichael number
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # ... to every prime base up to 31
        (2**61 - 1, True),
        (2**63 - 25, True),  # largest prime below 2^63
    ],
)
def test_is_prime_hard_cases(n, prime):
    assert _is_prime(n) is prime
    if not prime:  # each composite has a factor below 2^18
        assert is_prime_trial(n) is False


def test_prime_factors_match_trial_division():
    assert [n for n in range(1, 10**5) if _prime_factors(n) != prime_factors_trial(n)] == []


@pytest.mark.parametrize(
    "n, factors",
    [
        # two ~2^30 primes: rho has to split them
        (998244353 * 1000000007, [998244353, 1000000007]),
        (1000003**2, [1000003]),
        (2**61 - 2, [2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321]),
        (3825123056546413051, [149491, 747451, 34233211]),
    ],
)
def test_prime_factors_large(n, factors):
    assert all(is_prime_trial(ell) for ell in factors)
    rest = n
    for ell in factors:
        while rest % ell == 0:
            rest //= ell
    assert rest == 1
    assert _prime_factors(n) == factors


def test_generator_of_safe_prime_field():
    """q - 1 = 2r with r prime near 2^61: trial division would run ~2^30
    steps before reaching r."""
    p = 2**62 - 10565
    r = (p - 1) // 2
    assert _is_prime(p) and _is_prime(r)
    assert _prime_factors(p - 1) == [2, r]
    g = field_new(p, 1).generator.val
    assert 1 < g < p
    assert pow(g, (p - 1) // 2, p) != 1 and pow(g, (p - 1) // r, p) != 1


@pytest.mark.parametrize("p", [2**61 - 1, 2**63 - 25])
def test_field_new_large_prime(p):
    ctx = field_new(p, 1)
    assert ctx.q == p and ctx.modulus == (0, 1)
    rng = random.Random(5)
    for _ in range(200):
        u, v = rng.randrange(1, p), rng.randrange(p)
        assert ctx.mul(u, v) == u * v % p
        assert ctx.inv(u) == pow(u, p - 2, p)
        assert ctx.mul(u, ctx.inv(u)) == 1


def test_field_new_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        field_new(2, 2, [1, 0, 1])  # t^2 + 1 = (t+1)^2


def _monic_polys(p, d):
    """Every monic polynomial of degree d over GF(p), in counter order."""
    for counter in range(p**d):
        low = [(counter // p**i) % p for i in range(d)]
        yield low + [1]


def _irreducibles(p, d):
    return (f for f in _monic_polys(p, d) if is_irreducible_rabin(f, p))


@pytest.mark.parametrize("p, max_deg", [(2, 10), (3, 5), (5, 3), (7, 3)])
def test_ben_or_matches_rabin_exhaustive(p, max_deg):
    for d in range(1, max_deg + 1):
        for f in _monic_polys(p, d):
            assert _is_irreducible(f, p) == is_irreducible_rabin(f, p), f


def test_gf2_modulus_search_picks_the_list_path_modulus():
    # the search skips candidates that cannot be irreducible (binomials,
    # multiples of t); Ben-Or on coefficient lists, run over every
    # candidate in counter order, picks the same modulus
    for m in range(2, 73):
        want = next(f for f in _monic_polys(2, m) if _is_irreducible(f, 2))
        assert _default_modulus(2, m) == tuple(want), m


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13, 65521]).flatmap(
        lambda p: st.tuples(
            st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=40)
        )
    )
)
def test_ben_or_matches_sympy(case):
    p, low = case
    f = low + [1]
    assert _is_irreducible(f, p) == gf_irreducible_p(f[::-1], p, ZZ)


@pytest.mark.parametrize(
    "broken",
    [lambda p, m: lambda x: x, lambda p, m: _barrett(p, m, m)[1]],
    ids=["no reduction", "m slots of 2m + 1"],
)
def test_remainder_with_a_broken_reduction_raises(broken):
    # a slot reduction that leaves the top slot set stops the remainder at
    # its step bound instead of looping
    core = _GFpT(3, 8)
    core._reduce = broken(3, 8)
    f = field._slots(field_new(3, 8).modulus, core.w)
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="top slot"):
        for u in range(2, 3**8):
            core.mul(f, u, u + 1)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "p, m", [(2, 2), (2, 8), (2, 16), (2, 32), (3, 4), (3, 6), (5, 2), (7, 4)]
)
def test_reducible_modulus_at_half_degree(p, m):
    """Products with no factor of degree below m/2: Ben-Or's last step
    (i = m/2) is the only one that rejects them."""
    a, b = itertools.islice(_irreducibles(p, m // 2), 2)
    for mod in (pmul(a, b, p), pmul(a, a, p)):
        assert len(mod) == m + 1 and not is_irreducible_rabin(mod, p)
        assert not _is_irreducible(mod, p)
        with pytest.raises(ReducibleModulus):
            field_new(p, m, modulus=mod)


@pytest.mark.parametrize(
    "p, m, terms",
    [
        (2, 32, {0: 1, 2: 1, 3: 1, 7: 1}),
        (2, 40, {0: 1, 3: 1, 4: 1, 5: 1}),
        (3, 16, {0: 1, 2: 1, 3: 1}),
        (3, 27, {0: 2, 1: 2, 2: 1, 3: 1, 5: 1}),
        (5, 27, {0: 1, 1: 1}),
        (65543, 3, {0: 6, 1: 1}),
    ],
)
def test_default_modulus_is_rabins_choice(p, m, terms):
    """The least irreducible by counter, as Rabin's test found it: t^m plus
    the listed lower terms."""
    want = tuple(terms.get(i, 0) for i in range(m)) + (1,)
    assert field_new(p, m).modulus == want
    assert is_irreducible_rabin(list(want), p)


def test_default_modulus_matches_the_full_scan():
    """Skipping the binomials when none is irreducible picks the modulus
    that trying every counter picks; the grid has cases with and without
    the skip."""
    primes = [p for p in range(3, 60) if is_prime_trial(p)]
    cases = [(p, m) for p in primes for m in range(1, 13) if p**m <= 10**6]
    # skipped: 3 does not divide p - 1, or 4 | m with p = 3 mod 4; not: 13^4
    assert {(3, 3), (5, 3), (7, 4), (13, 4)} <= set(cases)
    for p, m in cases:
        assert _default_modulus(p, m) == default_modulus_full_scan(p, m), (p, m)


def _root_grid():
    cases = [
        (p, m, k * m)
        for p in (2, 3, 5, 7)
        for m in (1, 2, 3, 4, 8)
        for k in (1, 2, 3)
        if p**m <= 4096 and p ** (k * m) < 2**40
    ]
    return cases + [(2, 8, 32), (3, 4, 16)]


@pytest.mark.parametrize("p, m, M", _root_grid())
def test_trace_split_root_matches_enumeration(p, m, M):
    ctx, big = field_new(p, m), field_new(p, M)
    assert _least_modulus_root(ctx, big) == least_modulus_root_enum(ctx, big)


@pytest.mark.parametrize("p, m, M", [(2, 8, 8), (2, 8, 16), (3, 4, 4), (3, 4, 12), (5, 2, 6)])
def test_trace_split_root_other_modulus(p, m, M):
    """A non-default small modulus: the search runs even when M == m."""
    *_, mod = _irreducibles(p, m)  # the greatest one by counter
    ctx = field_new(p, m, modulus=mod)
    assert ctx.modulus != field_new(p, m).modulus
    big = field_new(p, M)
    assert _least_modulus_root(ctx, big) == least_modulus_root_enum(ctx, big)


def test_field_new_modulus_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        field_new(2, 3, [1, 1, 1])


def test_field_new_caches_contexts():
    assert field_new(3, 2) is field_new(3, 2)


def test_apply_aut_gf4():
    ctx = field_new(2, 2)
    sigma = Automorphism(ctx, 1)
    w = ctx.from_coords([0, 1])
    assert sigma(w) == w + 1  # w^2 = w + 1 under t^2 + t + 1
    assert sigma(ctx.one) == ctx.one
    ident = Automorphism(ctx, 0)
    for a in ctx.elements():
        assert ident(a) == a


def test_apply_aut_iterated_is_identity():
    for p, m, e in [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 2)]:
        ctx = field_new(p, m)
        sigma = Automorphism(ctx, e)
        for a in ctx.elements():
            b = a
            for _ in range(sigma.order):
                b = sigma(b)
            assert b == a


def test_apply_aut_distributes_exhaustive():
    # exhaustive on fields of order <= 64
    for p, m in [(2, 2), (3, 2), (2, 4), (2, 6)]:
        ctx = field_new(p, m)
        sigma = Automorphism(ctx, 1)
        elems = list(ctx.elements())
        for a in elems:
            for b in elems:
                assert sigma(a + b) == sigma(a) + sigma(b)
                assert sigma(a * b) == sigma(a) * sigma(b)


def test_frobenius_powers_commute():
    # exhaustive on a small field
    ctx = field_new(3, 4)
    s1, s2 = Automorphism(ctx, 1), Automorphism(ctx, 3)
    for a in ctx.elements():
        assert s1(s2(a)) == s2(s1(a))
    assert s1.compose(s2) == s2.compose(s1)
    # randomized on a larger one
    big = field_new(2, 8)
    t1, t2 = Automorphism(big, 3), Automorphism(big, 5)
    rng = random.Random(0)
    for _ in range(10_000):
        a = big.elem(rng.randrange(big.q))
        assert t1(t2(a)) == t2(t1(a))


def test_automorphism_composition_law():
    ctx = field_new(2, 6)
    assert Automorphism(ctx, 2).compose(Automorphism(ctx, 5)) == Automorphism(ctx, 1)
    assert Automorphism(ctx, 4).inverse() == Automorphism(ctx, 2)


def test_context_mismatch():
    a = field_new(2, 2).one
    with pytest.raises(ContextMismatch):
        Automorphism(field_new(3, 2), 1)(a)


def test_prime_basis():
    assert [b.val for b in field_new(2, 2).prime_basis()] == [1, 2]
    assert [b.val for b in field_new(5, 1).prime_basis()] == [1]
    assert [b.val for b in field_new(2, 3).prime_basis()] == [1, 2, 4]


def test_sigma_norm_gf4():
    ctx = field_new(2, 2)
    sigma = Automorphism(ctx, 1)
    w = ctx.from_coords([0, 1])
    assert sigma_norm(sigma, w) == ctx.one  # w * w^2 = w^3 = 1
    assert sigma_norm(sigma, ctx.one) == ctx.one
    # all of GF(4)^x is one class
    norms = {sigma_norm(sigma, a).val for a in ctx.elements() if not a.is_zero}
    assert norms == {1}


def test_sigma_norm_gf9_generator():
    ctx = field_new(3, 2)
    sigma = Automorphism(ctx, 1)
    g = ctx.generator
    assert sigma_norm(sigma, g) == g**4  # norm = a^(1+3)


def test_sigma_norm_zero_rejected():
    ctx = field_new(2, 2)
    with pytest.raises(ZeroElement):
        sigma_norm(Automorphism(ctx, 1), ctx.zero)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_sigma_norm_partition_matches_brute_force(p, m):
    ctx = field_new(p, m)
    sigma = Automorphism(ctx, 1)
    by_norm = {}
    for a in ctx.elements():
        if a.is_zero:
            continue
        by_norm.setdefault(sigma_norm(sigma, a).val, set()).add(a.val)
    expected = brute_conjugacy(ctx, sigma)
    assert frozenset(frozenset(s) for s in by_norm.values()) == expected


def test_sigma_norm_identity_gives_singletons():
    ctx = field_new(5, 1)
    sigma = Automorphism(ctx, 0)
    assert brute_conjugacy(ctx, sigma) == frozenset(
        frozenset([v]) for v in range(1, 5)
    )
    for a in ctx.elements():
        if not a.is_zero:
            assert sigma_norm(sigma, a) == a


def test_extend_field_gf4_to_gf16():
    ctx = field_new(2, 2)
    big, emb = extend_field(ctx, 4)
    w = ctx.from_coords([0, 1])
    ew = emb(w)
    assert big.q == 16
    assert ew * ew + ew + big.one == big.zero  # root of t^2 + t + 1
    assert emb.inverse_packed(ew.val) == w.val
    assert emb(ctx.one) == big.one


def test_extend_field_identity():
    ctx = field_new(5, 1)
    big, emb = extend_field(ctx, 1)
    assert big == ctx
    for a in ctx.elements():
        assert emb(a).val == a.val


def test_extend_field_not_an_extension():
    with pytest.raises(NotAnExtension):
        extend_field(field_new(2, 2), 3)


def test_extend_field_deterministic():
    ctx = field_new(2, 2)
    _, e1 = extend_field(ctx, 4)
    _, e2 = extend_field(ctx, 4)
    assert e1.root == e2.root


def test_embedding_is_ring_homomorphism():
    rng = random.Random(1)
    for p, m, M in [(2, 2, 4), (3, 2, 4), (2, 4, 8)]:
        ctx = field_new(p, m)
        big, emb = extend_field(ctx, M)
        frob_small = Automorphism(ctx, 1)
        frob_big = Automorphism(big, 1)
        for _ in range(1000):
            a = ctx.elem(rng.randrange(ctx.q))
            b = ctx.elem(rng.randrange(ctx.q))
            assert emb(a + b) == emb(a) + emb(b)
            assert emb(a * b) == emb(a) * emb(b)
            assert emb(frob_small(a)) == frob_big(emb(a))


def test_embedding_membership_test():
    other = field_new(3, 2, modulus=[2, 2, 1])  # not the default 2 + t + t^2
    assert other.modulus != field_new(3, 2).modulus
    for ctx, M in [
        (field_new(2, 2), 4),
        (field_new(2, 3), 6),
        (field_new(3, 2), 4),
        (field_new(5, 1), 2),
        (other, 4),
    ]:
        big, emb = extend_field(ctx, M)
        image = {emb(a).val: a.val for a in ctx.elements()}
        assert len(image) == ctx.q
        for v in range(big.q):
            assert emb.inverse_packed(v) == image.get(v), (ctx, v)


def test_extend_field_same_degree_is_identity():
    """M = m needs no search, whatever the modulus: the field itself, with t
    sent to t."""
    rng = random.Random(7)
    *_, mod = _irreducibles(2, 8)  # the greatest one by counter
    for ctx in (
        field_new(2, 8, modulus=mod),
        field_new(1000003, 2, modulus=[833821, 723986, 1]),
    ):
        assert ctx.modulus != field_new(ctx.p, ctx.m).modulus
        big, emb = extend_field(ctx, ctx.m)
        assert big is ctx
        for u in range(256) if ctx.q == 256 else rng.sample(range(ctx.q), 500):
            a = ctx.elem(u)
            assert emb(a) == a and emb.inverse_packed(u) == u


@pytest.mark.parametrize(
    "p, m, modulus",
    [
        (2, 1, None),
        (7, 1, None),
        (5, 1, (3, 1)),
        (65537, 1, (12, 1)),
        (3, 4, None),
        (2, 8, None),
    ],
)
def test_generator_t_is_the_modulus_root_everywhere(p, m, modulus):
    """The one packed value of t serves the parser and the M = m embedding,
    and it is a root of the modulus."""
    ctx = field_new(p, m, modulus)
    t = ctx.elem(ctx.t_packed)
    value = ctx.zero
    for c in reversed(ctx.modulus):
        value = value * t + c
    assert value == ctx.zero
    assert parse_element("t", ctx) == t
    assert extend_field(ctx, m)[1].root == ctx.t_packed
    assert extend_field(ctx, m)[1] is ctx.frobenius(0)


@pytest.mark.parametrize(
    "p, m, M, backend", [(2, 8, 32, "bits"), (3, 4, 16, "poly"), (7, 1, 2, "table")]
)
def test_embedding_round_trips(p, m, M, backend):
    rng = random.Random(4)
    ctx = field_new(p, m)
    big, emb = extend_field(ctx, M)
    assert big.backend == backend
    for _ in range(300):
        u, u2 = rng.randrange(ctx.q), rng.randrange(ctx.q)
        v = emb.map_packed(u)
        assert big.frob(v, m) == v and emb.inverse_packed(v) == u
        assert emb.map_packed(ctx.mul(u, u2)) == big.mul(v, emb.map_packed(u2))
        # the image is the subfield of order p^m: the fixed points of frob^m
        for w in (rng.randrange(big.q), big.add(v, rng.randrange(big.q))):
            pre = emb.inverse_packed(w)
            if big.frob(w, m) == w:
                assert pre is not None and emb.map_packed(pre) == w
            else:
                assert pre is None


EMBEDDING_SHAPES = [
    (2, 8, 32, None),
    (3, 4, 16, None),
    (5, 9, 27, None),
    (7, 1, 2, None),
    (2, 4, 8, None),
    (3, 1, 39, None),
    (65537, 1, 3, None),
    (2, 31, 62, None),
    (3037000493, 1, 2, None),
    # M = m, the field itself, under a non-default modulus
    (2, 8, 8, "greatest"),
    (1000003, 2, 2, (833821, 723986, 1)),
]


@pytest.mark.parametrize("p, m, M, modulus", EMBEDDING_SHAPES)
def test_embedding_inverse_is_the_recorded_elimination(p, m, M, modulus):
    """`inverse_packed`, the solver of the root-power columns, answers what
    the recorded elimination replayed on the value answers: the preimage of
    every image, and None off the subfield, on sampled values (every value
    of two small extensions below)."""
    if modulus == "greatest":
        *_, modulus = _irreducibles(p, m)
    small = field_new(p, m, modulus)
    big, emb = extend_field(small, M)
    want = recorded_elimination_inverse(small, big, emb.root)
    rng = random.Random(f"{p}^{m}/{M}")
    images = [emb.map_packed(rng.randrange(small.q)) for _ in range(50)]
    values = images + [rng.randrange(big.q) for _ in range(50)]
    for v in values:
        assert emb.inverse_packed(v) == want(v), v
    assert all(emb.inverse_packed(v) is not None for v in images)


@pytest.mark.parametrize("p, m, M", [(2, 4, 8), (3, 2, 4)])
def test_embedding_inverse_on_every_value(p, m, M):
    small = field_new(p, m)
    big, emb = extend_field(small, M)
    want = recorded_elimination_inverse(small, big, emb.root)
    assert [emb.inverse_packed(v) for v in range(big.q)] == [
        want(v) for v in range(big.q)
    ]


def _solver_of(p, rows):
    """The solver of the GF(p) matrix `rows`, its columns as batches of
    GF(p) values, one per row."""
    batch = FieldBatch(field_new(p, 1), len(rows))
    return GFpSolver(batch, [batch.spread(col) for col in zip(*rows)])


@pytest.mark.parametrize("p", [2, 3, 7, 1000003])
def test_solver_equals_dense_solve(p):
    # random systems of full column rank, tall and square, against the
    # dense Gauss-Jordan on FieldElem values; a vector off the image is
    # refused
    gfp = field_new(p, 1)
    rng = random.Random(p)
    done = 0
    while done < 12:
        n = rng.randrange(1, 9)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n + rng.randrange(6))]
        x = [rng.randrange(p) for _ in range(n)]
        v = [sum(a * b for a, b in zip(row, x)) % p for row in rows]
        try:
            want = solve_dense([[gfp.elem(a) for a in row] for row in rows], [gfp.elem(c) for c in v])
        except ValueError:  # rank-deficient: the solver refuses it too
            with pytest.raises(SingularMooreSystem):
                _solver_of(p, rows)
            continue
        solver = _solver_of(p, rows)
        spread = solver._batch.spread
        assert solver.solve(spread(v)) == spread([c.val for c in want])
        assert [c.val for c in want] == x
        off = list(v)
        k = rng.randrange(len(rows))
        off[k] = (off[k] + 1) % p
        try:
            solve_dense([[gfp.elem(a) for a in row] for row in rows], [gfp.elem(c) for c in off])
        except ValueError:
            assert solver.solve(spread(off)) is None
        else:  # every vector is an image of a square system
            assert solver.solve(spread(off)) is not None
        done += 1


@pytest.mark.parametrize("p", [2, 3, 7, 1000003])
def test_solver_refuses_dependent_columns(p):
    # the third column is the sum of the first two, whatever the rows below
    rows = [[1, 0, 1], [0, 1, 1], [2 % p, 3 % p, 5 % p], [1, 1, 2 % p]]
    with pytest.raises(SingularMooreSystem):
        _solver_of(p, rows)
    # a zero column, and more columns than rows
    with pytest.raises(SingularMooreSystem):
        _solver_of(p, [[1, 0], [1, 0]])
    with pytest.raises(SingularMooreSystem):
        _solver_of(p, [[1, 0, 1], [0, 1, 1]])


def test_solver_reads_the_earliest_rows_of_full_rank():
    # rows 1 and 2 are multiples of row 0 and row 3 raises the rank: the
    # pivots are rows 0 and 3, and a solve still checks rows 4 and 5
    rows = [[1, 1], [1, 1], [2, 2], [0, 1], [1, 0], [1, 2]]
    solver = _solver_of(3, rows)
    assert [r // solver._batch.w for r in solver._pivots] == [0, 3]
    v = [sum(a * b for a, b in zip(row, (2, 1))) % 3 for row in rows]
    assert solver.solve(solver._batch.spread(v)) == solver._batch.spread([2, 1])
    v[5] = (v[5] + 1) % 3
    assert solver.solve(solver._batch.spread(v)) is None


@pytest.mark.parametrize("p, m, M", [(2, 8, 32), (3, 4, 16), (7, 1, 2), (5, 2, 2)])
def test_embedding_inverse_refuses_values_outside_the_field(p, m, M):
    # a negative value, or one of q or more, has no preimage: None, and
    # never a hang in splitting a negative value into base-p digits
    small = field_new(p, m)
    big, emb = extend_field(small, M)
    for v in (-1, -big.q, -(big.q**3) - 1, big.q, 5 * big.q + 1):
        assert emb.inverse_packed(v) is None, v
    assert emb.inverse_packed(emb.map_packed(small.q - 1)) == small.q - 1


@pytest.mark.parametrize("p", [3, 7, 1000003])
def test_solver_refuses_slots_that_are_not_digits(p):
    # a solve reads its batch's slots as they are: a negative batch, a slot
    # congruent to the right digit but at p or above, a slot with its top
    # bit set, and a full slot are all refused
    rows = [[1, 0], [0, 1], [1, 1], [2 % p, 1]]
    solver = _solver_of(p, rows)
    w = solver._batch.w
    v = solver._batch.spread([sum(a * b for a, b in zip(row, (1, 2))) % p for row in rows])
    assert solver.solve(v) == solver._batch.spread([1, 2])
    for k in range(len(rows)):
        digit = v >> k * w & (1 << w) - 1
        for slot in (digit + p, (p - 1) | 1 << w - 1, (1 << w) - 1):
            assert solver.solve(v + (slot - digit << k * w)) is None, (k, slot)
    for bad in (-1, -v, v - (1 << len(rows) * w)):
        assert solver.solve(bad) is None, bad


def test_working_fields_exceed_the_input_domain():
    """extend_field builds working fields past 2^63 in the shared context
    cache; field_new still refuses them, in its error order."""
    small = field_new(2, 8)
    big, emb = extend_field(small, 72)
    assert big.q == 2**72 and big.backend == "bits"
    u = 0b10110101
    assert emb.inverse_packed(emb.map_packed(u)) == u
    with pytest.raises(DegreeMismatch, match="exceeds 2\\^63"):
        field_new(2, 72)
    with pytest.raises(NotPrime):
        field_new(4, 72)
    with pytest.raises(DegreeMismatch, match=">= 1"):
        field_new(2, 0)


def test_pinned_field_choices():
    """Default moduli, generators and embedding roots are part of the output
    contract: representatives depend on them."""
    assert field_new(2, 8).modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert field_new(2, 8).generator.val == 3
    assert field_new(3, 4).modulus == (2, 1, 0, 0, 1)
    assert field_new(3, 4).generator.val == 3
    for p, m, M, root in [
        (2, 8, 32, 1084517114),
        (3, 4, 16, 18062960),
        (2, 8, 24, 588237),
        (2, 2, 4, 6),
    ]:
        assert extend_field(field_new(p, m), M)[1].root == root


def test_field_axioms_random():
    rng = random.Random(2)
    for p, m in [(2, 8), (3, 4), (5, 2), (7, 1)]:
        ctx = field_new(p, m)
        for _ in range(500):
            a = ctx.elem(rng.randrange(1, ctx.q))
            b = ctx.elem(rng.randrange(ctx.q))
            c = ctx.elem(rng.randrange(ctx.q))
            assert a * a.inverse() == ctx.one
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a - a == ctx.zero


def test_field_elem_int_operands():
    ctx = field_new(5, 2)
    a = ctx.elem(7)  # t + 2
    three = ctx.from_int(3)
    assert 3 - a == three - a == -(a - 3)
    assert 1 / a == a.inverse()
    assert three == 3 and three == 8
    assert a != 3 and a != 2


def _field_ops(ctx, u, v, k):
    return (
        ctx.mul(u, v),
        ctx.add(u, v),
        ctx.sub(u, v),
        ctx.neg(u),
        ctx.inv(u) if u else None,
        [ctx.frob(u, e) for e in range(ctx.m)],
        ctx.pow_packed(u, k) if u else None,
    )


_untabled = functools.lru_cache(maxsize=None)(untabled)


def _backend_contexts(p, m):
    """GF(p^m) on every backend that can run it, the default one first: below
    the table bound also on ``bits`` (p = 2) or ``poly`` (odd p)."""
    ctx = field_new(p, m)
    return [ctx, _untabled(p, m)] if ctx.backend == "table" else [ctx]


def _schoolbook_frobs(ctx, u):
    """u^(p^e) for e = 0 .. m-1, each p-th power by square-and-multiply on
    the schoolbook product."""
    out = [u]
    for _ in range(ctx.m - 1):
        x, base, k = 1, out[-1], ctx.p
        while k:
            if k & 1:
                x = mul_schoolbook(ctx, x, base)
            base = mul_schoolbook(ctx, base, base)
            k >>= 1
        out.append(x)
    return out


@pytest.mark.parametrize("p, m", [(2, 72), (3, 44)])
def test_frob_past_the_input_domain(p, m):
    # working fields past 2^63 have only `bits` and `poly` arithmetic: the
    # single-value frob against p-th powers of the schoolbook product
    ctx = _context(p, m)
    rng = random.Random(f"frob {p}^{m}")
    for u in [p, ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(3)]:
        assert [ctx.frob(u, e) for e in range(m)] == _schoolbook_frobs(ctx, u)


@pytest.mark.parametrize("p, m, M", [(2, 8, 72), (3, 4, 44)])
def test_embedding_past_the_input_domain(p, m, M):
    # the embedding into a working field past 2^63 is a ring map that
    # commutes with every Frobenius power; products by the schoolbook
    small = field_new(p, m)
    big, emb = extend_field(small, M)
    assert big.q >= 1 << 63
    rng = random.Random(f"embed {p}^{m}/{M}")
    for _ in range(20):
        u, v = rng.randrange(small.q), rng.randrange(small.q)
        eu, ev = emb.map_packed(u), emb.map_packed(v)
        assert emb.map_packed(small.add(u, v)) == big.add(eu, ev)
        assert emb.map_packed(small.mul(u, v)) == mul_schoolbook(big, eu, ev)
        e = rng.randrange(M)
        assert emb.map_packed(small.frob(u, e)) == big.frob(eu, e)
        assert emb.inverse_packed(eu) == u


def _field_case(pm):
    """A field (p, m), two packed values u, v of it and an exponent k."""
    q = pm[0] ** pm[1]
    values = st.integers(0, q - 1)
    # negative k inverts
    return st.tuples(st.just(pm), values, values, st.integers(-2 * q, 2 * q))


@settings(max_examples=400, deadline=None, database=None)
@given(
    st.sampled_from(
        [(2, 1), (2, 4), (2, 8), (2, 20), (3, 1), (3, 4), (5, 2), (7, 1), (11, 3)]
    ).flatmap(_field_case)
)
def test_backends_agree(case):
    (p, m), u, v, k = case
    ref, *others = _backend_contexts(p, m)
    assert others or p**m > 1 << 16
    want = _field_ops(ref, u, v, k)
    for ctx in others:
        assert _field_ops(ctx, u, v, k) == want, ctx.backend
    # the schoolbook product checks every field, GF(2^20) on its one context too
    assert want[0] == mul_schoolbook(ref, u, v)
    assert not u or mul_schoolbook(ref, u, want[4]) == 1
    assert want[5] == _schoolbook_frobs(ref, u)


@pytest.mark.parametrize(
    "p, m, backend",
    [
        (2, 16, "table"),
        (2, 17, "bits"),
        (3, 10, "table"),
        (3, 11, "poly"),
        (65521, 1, "table"),
        (65537, 1, "poly"),
    ],
)
def test_backend_is_chosen_by_order_and_characteristic(p, m, backend):
    # log tables up to q = 2^16, then XOR sums on bit-packed values for
    # p = 2 and digit-by-digit sums for odd p
    assert field_new(p, m).backend == backend


def _table_and_digit_loop(p, m):
    # odd p on the table backend adds by Zech logarithms, on poly digit by digit
    table, poly = field_new(p, m), _untabled(p, m)
    assert p > 2 and table.backend == "table" and poly.backend == "poly"
    return table, poly


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 4), (5, 2), (7, 1), (11, 2)])
def test_zech_add_exhaustive(p, m):
    table, poly = _table_and_digit_loop(p, m)
    for u in range(table.q):
        assert table.neg(u) == poly.neg(u), u
        assert [table.add(u, v) for v in range(table.q)] == [
            poly.add(u, v) for v in range(table.q)
        ], u
        assert [table.sub(u, v) for v in range(table.q)] == [
            poly.sub(u, v) for v in range(table.q)
        ], u


@pytest.mark.parametrize("p, m", [(2, 4), (3, 1), (3, 4), (7, 2), (2**31 - 1, 1)])
def test_sequence_negation_is_the_negation_of_each_value(p, m):
    # one table read per value on the log tables, the values themselves for
    # p = 2, `neg` per value on the other backends: always a tuple
    rng = random.Random(f"neg_seq/{p}/{m}")
    for ctx in (field_new(p, m), _untabled(p, m)):
        values = [0, 1, ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(20)]
        assert ctx.neg_seq(values) == tuple(ctx.neg(u) for u in values)
        assert ctx.neg_seq(()) == ()


@pytest.mark.parametrize("p, m", [(3, 10), (65521, 1), (2, 16)])
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_zech_add_largest_tables(p, m, data):
    assert field_new(p, m).backend == "table"
    contexts = _backend_contexts(p, m)
    if p > 2:
        _table_and_digit_loop(p, m)
    q = p**m
    u = data.draw(st.integers(0, q - 1), label="u")
    poly = _untabled(p, m)
    # zero and cancelling sums besides a free v
    v = data.draw(
        st.one_of(
            st.integers(0, q - 1),
            st.sampled_from([0, poly.neg(u), poly.sub(1, u)]),
        ),
        label="v",
    )
    want = (poly.add(u, v), poly.sub(u, v), poly.neg(u))
    for ctx in contexts:
        assert (ctx.add(u, v), ctx.sub(u, v), ctx.neg(u)) == want, ctx.backend


POLY_FIELDS = [
    # m = 1 across the slot widths of the GF(p)[t] core, up to p near 2^62
    *((p, 1) for p in (3, 5, 13, 251, 65537, 2**31 - 1, 2**61 - 1, 2**62 - 57)),
    (3037000493, 2),  # p^2 just below 2^63
    (5, 27),
    (3, 39),
    (7, 20),
    (2, 8),  # p = 2 multiplies carry-less outside the tables
]


def _poly_case(pm):
    p, m = pm
    q = p**m
    # sparse operands too: t^k and the monomials c*t^k (t^k is p^k packed)
    monomials = st.builds(
        lambda c, k: c * p**k, st.integers(1, p - 1), st.integers(0, m - 1)
    )
    values = st.one_of(st.sampled_from([0, 1, q - 1]), monomials, st.integers(0, q - 1))
    return st.tuples(st.just(pm), values, values)


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(POLY_FIELDS).flatmap(_poly_case))
def test_poly_mul_equals_schoolbook(case):
    (p, m), u, v = case
    ctx = _untabled(p, m)
    assert ctx.mul(u, v) == mul_schoolbook(ctx, u, v)
    # the inverse too, up to the widest slots
    assert not u or mul_schoolbook(ctx, u, ctx.inv(u)) == 1


def _check_byte_tables(ctx):
    """Decoding through each table gives the field's own product, Frobenius
    power and negation of every element, and -1 over every nonzero one;
    bytes that are no code map to 0."""
    tables = ctx.byte_tables()
    q, enc, dec = ctx.q, tables.enc, tables.dec
    codes = set(enc[:q])
    assert len(codes) == q and [dec[enc[u]] for u in range(q)] == list(range(q))
    assert len(tables.frob) == ctx.m
    for table in (*tables.mul, *tables.frob, tables.neg, tables.ninv):
        assert len(table) == 256
        assert not any(table[c] for c in range(256) if c not in codes)
    for c in range(q):
        assert [dec[tables.mul[enc[c]][enc[a]]] for a in range(q)] == [
            ctx.mul(c, a) for a in range(q)
        ]
    for t in range(ctx.m):
        assert [dec[tables.frob[t][enc[a]]] for a in range(q)] == [
            ctx.frob(a, t) for a in range(q)
        ]
    assert [dec[tables.neg[enc[a]]] for a in range(q)] == [ctx.neg(a) for a in range(q)]
    assert [dec[tables.ninv[enc[a]]] for a in range(1, q)] == [
        ctx.neg(ctx.inv(a)) for a in range(1, q)
    ]


@pytest.mark.parametrize("m", range(1, 9))
def test_byte_tables_multiply_and_twist(m):
    # every p = 2 field with q <= 256, on log tables and carry-less alike;
    # each value is its own code
    for ctx in (field_new(2, m), _untabled(2, m)):
        assert ctx.byte_tables().enc[: ctx.q] == bytes(range(ctx.q))
        _check_byte_tables(ctx)


ODD_BYTE_FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (7, 1), (127, 1)]


@pytest.mark.parametrize("p, m", ODD_BYTE_FIELDS)
def test_odd_byte_tables_multiply_twist_and_negate(p, m):
    for ctx in (field_new(p, m), _untabled(p, m)):
        _check_byte_tables(ctx)


@pytest.mark.parametrize("p, m", [(2, 1), (2, 8)] + ODD_BYTE_FIELDS)
def test_row_sum_adds_every_slot(p, m):
    """The row sum of two rows of codes, the q^2 pairs of values side by
    side, is the code of `ctx.add` in every byte.  Pairs that reach the
    largest byte sum lie next to pairs that do not, so a carry or borrow
    that leaks into the next byte shows: GF(127) 126 + 126 beside 126 + 1."""
    ctx = field_new(p, m)
    tables = ctx.byte_tables()
    q, enc = ctx.q, tables.enc
    top = q - 1
    pairs = [(top, top), (top, 1), (top, top), (1, top)]
    pairs += [(u, v) for u in range(q) for v in range(q)]
    xs, ys = (bytes(enc[pair[k]] for pair in pairs) for k in (0, 1))
    add = tables.adder(len(pairs))
    s = add(int.from_bytes(xs, "little"), int.from_bytes(ys, "little"))
    sums = [enc[ctx.add(u, v)] for u, v in pairs]
    assert list(s.to_bytes(len(pairs), "little")) == sums


@pytest.mark.parametrize(
    "p, m", [(2, 9), (2, 16), (3, 5), (5, 2), (5, 3), (7, 2), (131, 1)]
)
def test_no_byte_tables_past_characteristic_two_and_q_256(p, m):
    # byte tables exist for GF(2^m), m <= 8, GF(3^m), m <= 4, and GF(p),
    # p < 128, only: GF(3^5) has q = 243 but five digits, too many for
    # 2-bit slots in a byte
    assert field_new(p, m).byte_tables() is None


def test_byte_tables_wait_for_the_first_triangularization():
    # the set-up of a field, its rings and a modular plan builds no byte
    # tables; the first triangularization builds them once
    with (
        mock.patch.dict(field._CTX_CACHE, clear=True),
        mock.patch.object(
            FieldCtx,
            "_build_byte_tables",
            autospec=True,
            side_effect=FieldCtx._build_byte_tables,
        ) as build,
    ):
        ctx = field_new(3, 4)
        ring = make_rings(ctx, 1, 2)
        inner = ring.inner
        f = ring.poly([inner.from_packed((1, 2)), inner.from_packed((0, 1))])
        g = ring.poly([inner.from_packed((5, 0, 1)), inner.from_packed((7, 1))])
        plan_modular(f, g)
        assert not build.called
        res_x2_direct(f, g)
        res_x2_direct(g, f)
        assert build.call_count == 1


@pytest.mark.parametrize("p, m, g", [(3, 4, 3), (2, 8, 3), (7, 2, 9), (5, 6, 5)])
def test_tables_are_the_powers_of_the_least_generator(p, m, g):
    """The log tables list the powers of the pinned generator, built here by
    the schoolbook product, and no smaller packed value is primitive."""
    ctx = field_new(p, m)
    assert ctx.backend == "table" and ctx.generator.val == g
    order = ctx.q - 1
    powers = [1]
    for _ in range(order - 1):
        powers.append(mul_schoolbook(ctx, powers[-1], g))
    assert ctx._exp == powers + powers
    assert [ctx._log[v] for v in powers] == list(range(order))
    assert all(gcd(ctx._log[u], order) != 1 for u in range(1, g))


def test_generator_order():
    for p, m in [(2, 2), (3, 2), (2, 4), (5, 1)]:
        ctx = field_new(p, m)
        g = ctx.generator
        seen = set()
        cur = ctx.one
        for _ in range(ctx.q - 1):
            cur = cur * g
            seen.add(cur.val)
        assert len(seen) == ctx.q - 1


BATCH_FIELDS = [(2, 32), (2, 16), (3, 16), (5, 27), (251, 4), (1000003, 2), (7, 1)]


@pytest.mark.parametrize("p, m", BATCH_FIELDS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_field_batch_acts_on_every_value(p, m, seed):
    # mul by a constant, frob and dot on a batch equal the field's own
    # operations value by value, products and sums of products the
    # schoolbook's; every slot of a result is a digit below p
    ctx = field_new(p, m)
    rng = random.Random(seed)
    n = rng.randrange(1, 6)
    batch = FieldBatch(ctx, n)
    us = [rng.randrange(ctx.q) for _ in range(n)]
    c, e = rng.randrange(ctx.q), rng.randrange(m)
    x = batch.spread(us)
    if p > 2:  # every slot that reaches the Barrett step is within its bound
        reduce, w = batch._reduce, batch.w
        bound = (m + 2) * (p - 1) ** 2

        def checked(z):
            assert z >> n * m * w == 0
            assert all(z >> k * w & (1 << w) - 1 <= bound for k in range(n * m))
            return reduce(z)

        batch._reduce = checked

    def values(z):
        out = batch.values(z, n)
        assert batch.spread(out) == z
        return out

    assert values(x) == us
    assert values(batch.mul(c, x)) == [mul_schoolbook(ctx, c, u) for u in us]
    # the schoolbook, not ctx.frob, which reads the same columns
    assert values(batch.frob(x, e)) == [_schoolbook_frobs(ctx, u)[e] for u in us]
    # dot of 0 to 2m + 1 terms, coefficients 0, 1, q - 1 (every digit
    # p - 1, the largest slot sums) and random ones among them
    size = rng.randrange(2 * m + 2)
    cs = [rng.choice((0, 1, ctx.q - 1, rng.randrange(ctx.q))) for _ in range(size)]
    rows = [
        [rng.choice((ctx.q - 1, rng.randrange(ctx.q))) for _ in range(n)] for _ in range(size)
    ]
    want = [0] * n
    for c, row in zip(cs, rows):
        want = [ctx.add(s, mul_schoolbook(ctx, c, u)) for s, u in zip(want, row)]
    xs = [batch.spread(row) for row in rows]
    assert values(batch.dot(cs, xs)) == want
    assert [ctx.dot(cs, [row[j] for row in rows]) for j in range(n)] == want
    column = [row[0] for row in rows]
    for dot, terms in ((batch.dot, xs), (ctx.dot, column)):
        with pytest.raises(ValueError):
            dot(cs, terms + [1])
        with pytest.raises(ValueError):
            dot(cs + [1], terms)


@pytest.mark.parametrize("p, m", BATCH_FIELDS)
def test_field_batch_values_invert_spread(p, m):
    # the read-out returns what `spread` wrote, trailing zero values
    # included, and its first k values when asked for k
    ctx = field_new(p, m)
    rng = random.Random(p * m)
    for n in (1, 2, 5):
        batch = FieldBatch(ctx, n)
        assert batch.values(0, n) == [0] * n
        for zeros in range(n + 1):
            head = [rng.choice((1, ctx.q - 1, rng.randrange(ctx.q))) for _ in range(n - zeros)]
            vs = head + [0] * zeros
            x = batch.spread(vs)
            assert batch.values(x, n) == vs
            for k in range(n + 1):
                assert batch.values(x, k) == vs[:k]


@pytest.mark.parametrize("p, big_m, m", [(2, 32, 8), (3, 16, 4), (3, 16, 3), (5, 27, 9), (7, 2, 1)])
def test_field_batch_values_reads_a_smaller_field(p, big_m, m):
    # a solver's answer holds values of a subfield, m digits each, in the
    # slots of a batch of the working field (`ModularPlan.recover`, the
    # embedding's inverse); the read-out packs them m digits at a time, and
    # with m = 1 it returns every digit
    small, batch = field_new(p, m), FieldBatch(field_new(p, big_m), 3)
    rng = random.Random(big_m * m)
    n = 3 * big_m // m  # as many as the batch's slots hold
    vs = [rng.randrange(small.q) for _ in range(n - 1)] + [small.q - 1]
    digits = [d for v in vs for d in small.coords(v)]
    x = sum(d << i * batch.w for i, d in enumerate(digits))
    assert batch.values(x, n, m) == vs
    assert batch.values(x, n * m, 1) == digits


@pytest.mark.parametrize("p, m", [f for f in BATCH_FIELDS if f[0] > 2])
def test_field_batch_reduces_its_largest_slot(p, m):
    # a plane pass leaves at most m * (p - 1)^2 in a slot, a Horner step of
    # dot (an accumulator of m terms and its residue, t times a reduced
    # value) (m + 2) * (p - 1)^2; one Barrett step reduces every slot up to
    # that bound
    ctx = field_new(p, m)
    batch = FieldBatch(ctx, 3)
    bound = (m + 2) * (p - 1) ** 2
    slots = sum(1 << (k * batch.w) for k in range(3 * m))
    for x in (bound, bound - 1, p * (bound // p), p - 1):
        assert batch._reduce(slots * x) == slots * (x % p)
    # products of q - 1 by q - 1, every digit p - 1: m of them fill every
    # accumulator, and dot reduces the accumulators before each further m
    reduce, largest = batch._reduce, []

    def tracked(z):
        largest.append(max(z >> k * batch.w & (1 << batch.w) - 1 for k in range(3 * m)))
        return reduce(z)

    batch._reduce = tracked
    top = batch.spread([ctx.q - 1] * 3)
    square = mul_schoolbook(ctx, ctx.q - 1, ctx.q - 1)
    for terms in (m, m + 1, 3 * m + 1):
        want = 0
        for _ in range(terms):
            want = ctx.add(want, square)
        got = batch.dot([ctx.q - 1] * terms, [top] * terms)
        assert batch.values(got, 3) == [want] * 3
    assert max(largest) <= bound


@pytest.mark.parametrize("p, m, e", [(2, 16, 1), (2, 12, 2), (3, 8, 1), (5, 6, 2), (251, 4, 3)])
def test_linearized_is_one_map_of_its_power_batches(p, m, e):
    # sum(c_i * u^(p^(i*e))) on every value of a batch equals the schoolbook
    # value by value, for batches of 1, 3 and m values and entries of 1 to
    # 2m + 2 coefficients, zero ones among them; the power batches are built
    # on the first call, never with the context, and stop at the order of
    # u -> u^(p^e), however long the entry
    ctx = FieldCtx(p, m)  # a context of its own, with no power batches yet
    assert ctx._power_batches == {}
    order = m // gcd(e, m)
    rng = random.Random(p * m + e)
    for size in (2, m, m + 1, 2 * m + 2):
        cs = [rng.choice((0, 1, ctx.q - 1, rng.randrange(ctx.q))) for _ in range(size)]
        for n in (1, 3, m):
            batch = FieldBatch(ctx, n)
            us = [rng.randrange(ctx.q) for _ in range(n - 1)] + [ctx.q - 1]
            want = []
            for u in us:
                frobs, acc = _schoolbook_frobs(ctx, u), 0
                for i, c in enumerate(cs):
                    acc = ctx.add(acc, mul_schoolbook(ctx, c, frobs[i * e % m]))
                want.append(acc)
            assert batch.values(batch.linearized(cs, e, batch.spread(us)), n) == want
        full, powers = ctx._power_batches[e]
        assert len(powers) == min(size, order) and full.values(powers[0], m) == [
            p**k for k in range(m)
        ]
