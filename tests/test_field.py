"""Field contexts, Frobenius automorphisms, norms, and extensions."""

import random

import pytest

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
    sigma_norm,
)
from oreelim.field import _is_prime
from oracles import brute_conjugacy, is_prime_trial


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
    ctx = field_new(2, 2)
    big, emb = extend_field(ctx, 4)
    image = {emb(a).val for a in ctx.elements()}
    for v in range(big.q):
        pre = emb.inverse_packed(v)
        if v in image:
            assert pre is not None and emb.map_packed(pre) == v
        else:
            assert pre is None


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
        ctx.inv(u) if u else None,
        [ctx.frob(u, e) for e in range(ctx.m)],
        ctx.pow_packed(u, k) if u else None,
    )


def test_backends_agree():
    rng = random.Random(3)
    for p, m, backends, rounds in [
        (3, 4, ("table", "poly"), 2000),
        (2, 8, ("table", "bits", "poly"), 2000),
        (5, 2, ("table", "poly"), 500),
        (7, 1, ("table", "poly"), 500),
        (2, 20, ("bits", "poly"), 200),
    ]:
        ref, *others = [FieldCtx(p, m, backend=b) for b in backends]
        for _ in range(rounds):
            u, v = rng.randrange(ref.q), rng.randrange(ref.q)
            k = rng.randrange(-2 * ref.q, 2 * ref.q)  # negative k inverts
            want = _field_ops(ref, u, v, k)
            for ctx in others:
                assert _field_ops(ctx, u, v, k) == want, (ctx.backend, u, v, k)


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
