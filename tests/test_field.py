"""Field contexts, Frobenius automorphisms, norms, and extensions."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from oreelim import (
    Automorphism,
    ContextMismatch,
    DegreeMismatch,
    FieldCtx,
    NotAnExtension,
    NotPrime,
    ReducibleModulus,
    ZeroElement,
    extend_field,
    field_new,
    parse_element,
    sigma_norm,
)
from oreelim.field import _is_irreducible, _is_prime, _least_modulus_root, _prime_factors
from oracles import (
    brute_conjugacy,
    is_irreducible_rabin,
    is_prime_trial,
    least_modulus_root_enum,
    pmul,
    prime_factors_trial,
)


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


@pytest.mark.parametrize("p, max_deg", [(2, 8), (3, 5), (5, 3), (7, 3)])
def test_ben_or_matches_rabin_exhaustive(p, max_deg):
    for d in range(1, max_deg + 1):
        for f in _monic_polys(p, d):
            assert _is_irreducible(f, p) == is_irreducible_rabin(f, p), f


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


@pytest.mark.parametrize("p, m", [(2, 2), (2, 8), (3, 4), (3, 6), (5, 2), (7, 4)])
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
    ],
)
def test_default_modulus_is_rabins_choice(p, m, terms):
    """The least irreducible by counter, as Rabin's test found it: t^m plus
    the listed lower terms."""
    want = tuple(terms.get(i, 0) for i in range(m)) + (1,)
    assert field_new(p, m).modulus == want
    assert is_irreducible_rabin(list(want), p)


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
    assert emb.inverse(ew) == w
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
            assert emb(a) == a and emb.inverse(a) == a


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


@functools.lru_cache(maxsize=None)
def _ctx(p, m, backend):
    ctx = field_new(p, m)
    return ctx if ctx.backend == backend else FieldCtx(p, m, backend=backend)


def _backend_contexts(p, m):
    """GF(p^m) on every backend that can run it, the default one first."""
    default = field_new(p, m).backend
    names = [default] + [
        b
        for b in ("table", "bits", "poly")
        if b != default
        and (b != "table" or p**m <= 1 << 16)
        and (b != "bits" or p == 2)
    ]
    return [_ctx(p, m, b) for b in names]


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
    assert others
    want = _field_ops(ref, u, v, k)
    for ctx in others:
        assert _field_ops(ctx, u, v, k) == want, ctx.backend


@pytest.mark.parametrize(
    "p, m, backend",
    [(3, 2, "nope"), (3, 2, "bits"), (2, 17, "table"), (3, 11, "table")],
)
def test_unusable_backend_rejected(p, m, backend):
    with pytest.raises(DegreeMismatch):
        FieldCtx(p, m, backend=backend)


def _table_and_digit_loop(p, m):
    # odd p on the table backend adds by Zech logarithms, on poly digit by digit
    table, poly = _ctx(p, m, "table"), _ctx(p, m, "poly")
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
    poly = _ctx(p, m, "poly")
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
