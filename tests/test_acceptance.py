"""Acceptance gate: one test per criterion, exact tolerances, desk scale.

Every criterion prints its own PASS line (visible with ``pytest -v`` or via
``ore-elim verify``); a failing assert marks the criterion failed.  All
comparisons are exact: no numeric tolerances exist anywhere in this package.
"""

import csv
import io
import random
import statistics

from oreelim import (
    Automorphism,
    OreMatrix,
    dieudonne_det,
    embed_uni,
    field_new,
    partial_evaluations,
    res_x2_direct,
    res_x2_modular,
    sigma_norm,
    surrogates_equal,
)
from oreelim.cli import main as cli_main
from oracles import (
    brute_conjugacy,
    bivar_product_coeff_apply,
    bivar_to_lists,
    classical_resultant,
    naive_ore_mul,
    sigma_apply,
    uni_to_list,
)
from support import (
    apply_op,
    bivar_for,
    rand_bivar,
    rand_orepoly,
    rand_orepoly_exact,
    ring_for,
)


def test_a1_commutative_specialization():
    """A1: sigma1 = sigma2 = id over GF(7): direct resultant equals the
    classical Sylvester resultant up to sign, 200 random pairs, deg <= 3."""
    ring = bivar_for(7, 1, 0, 0)
    rng = random.Random(101)
    for _ in range(200):
        f = rand_bivar(ring, rng, 3, 3, min_d2=1)
        g = rand_bivar(ring, rng, 3, 3, min_d2=1)
        d = res_x2_direct(f, g)
        oracle = classical_resultant(bivar_to_lists(f), bivar_to_lists(g), 7)
        rep = uni_to_list(d.rep)
        assert rep == oracle or [(-c) % 7 for c in rep] == oracle
    print("A1 commutative specialization (200 pairs, exact): PASS")


def test_a2_common_right_factor_vanishing():
    """A2: 100 random pairs sharing a right factor of positive x2-degree over
    GF(16) with nontrivial Frobenius twists always eliminate to zero."""
    ring = bivar_for(2, 4, 1, 1)
    rng = random.Random(102)
    checked = 0
    while checked < 100:
        h = rand_bivar(ring, rng, 2, 1, min_d2=1)
        u = rand_bivar(ring, rng, 1, 1)
        v = rand_bivar(ring, rng, 1, 1)
        f, g = u * h, v * h
        if f.is_zero or g.is_zero or f.degree < 1 or g.degree < 1:
            continue
        assert res_x2_direct(f, g).is_zero
        checked += 1
    print("A2 common-right-factor vanishing (100 pairs, exact): PASS")


def test_a3_operator_identity_at_plan_points():
    """A3: for 50 random GF(2^8) instances (deg <= 2), applying the evaluated
    direct representative at each plan point equals the diagonal chain value;
    the representative is applied by the independent `sigma_apply` oracle."""
    ring = bivar_for(2, 8, 1, 1)
    rng = random.Random(103)
    for _ in range(50):
        f = rand_bivar(ring, rng, 2, 2, min_d2=1)
        g = rand_bivar(ring, rng, 2, 2, min_d2=1)
        plan, evals = partial_evaluations(f, g)
        rep_w = embed_uni(res_x2_direct(f, g).rep, plan)
        for pe in evals:
            assert sigma_apply(rep_w, pe.point) == pe.value
    print("A3 operator identity at plan points (50 instances, exact): PASS")


def test_a4_modular_equals_direct():
    """A4: the modular representative equals the direct representative
    coefficient-for-coefficient (shared pivot rule), 50 instances per field."""
    rng = random.Random(104)
    for p, m in [(2, 8), (3, 4), (5, 2)]:
        ring = bivar_for(p, m, 1, 1)
        for _ in range(50):
            f = rand_bivar(ring, rng, 2, 2, min_d2=1)
            g = rand_bivar(ring, rng, 2, 2, min_d2=1)
            direct = res_x2_direct(f, g)
            modular = res_x2_modular(f, g)
            assert modular.rep == direct.rep
            assert modular.is_zero == direct.is_zero
    print("A4 modular = direct over GF(2^8), GF(3^4), GF(5^2) (150 instances, exact): PASS")


def test_a5_pivot_strategy_invariance():
    """A5: vanishing flag and degree of the determinant are invariant across
    three pivot strategies on 100 random matrices (n <= 5, entry deg <= 3)."""
    ring = ring_for(3, 2, 1)
    rng = random.Random(105)
    for seed in range(100):
        n = rng.randrange(1, 6)
        m = OreMatrix(
            ring,
            [[rand_orepoly(ring, rng, 3) for _ in range(n)] for _ in range(n)],
        )
        dets = [
            dieudonne_det(m, rule="min_degree"),
            dieudonne_det(m, rule="first_nonzero"),
            dieudonne_det(m, rule="random", seed=seed),
        ]
        assert len({d.is_zero for d in dets}) == 1
        assert len({d.degree for d in dets}) == 1
    print("A5 pivot-strategy invariance (100 matrices x 3 rules, exact): PASS")


def test_a6_eval_is_ring_morphism():
    """A6: the renaming x1 -> sigma1 is a ring morphism, as maps on every
    element of GF(8), for 200 univariate and 200 bivariate random pairs: the
    evaluated product and sum are the composition and the sum, and each
    x2-coefficient of a bivariate product acts as the sigma2-twisted sum of
    coefficient compositions."""
    ring = ring_for(2, 3, 1)
    elems = list(ring.ctx.elements())
    rng = random.Random(106)
    for _ in range(200):
        f = rand_orepoly(ring, rng, 4)
        g = rand_orepoly(ring, rng, 4)
        for a in elems:
            assert apply_op(f * g, a) == apply_op(f, apply_op(g, a))
            assert apply_op(f + g, a) == apply_op(f, a) + apply_op(g, a)
    bring = bivar_for(2, 3, 1, 1)
    for _ in range(200):
        f = rand_bivar(bring, rng, 3, 2)
        g = rand_bivar(bring, rng, 3, 2)
        fg = f * g
        for k in range(len(fg.coeffs)):
            for a in elems:
                want = bivar_product_coeff_apply(f, g, k, a)
                assert apply_op(fg.coeff(k), a) == want
    print("A6 evaluation ring-morphism (200 + 200 pairs, exact): PASS")


def test_a7_conjugacy_classification():
    """A7: the norm-based partition equals brute-force sigma-conjugacy on
    GF(4), GF(8), GF(9)."""
    for p, m in [(2, 2), (2, 3), (3, 2)]:
        ctx = field_new(p, m)
        sigma = Automorphism(ctx, 1)
        by_norm = {}
        for a in ctx.elements():
            if a.is_zero:
                continue
            by_norm.setdefault(sigma_norm(sigma, a).val, set()).add(a.val)
        partition = frozenset(frozenset(s) for s in by_norm.values())
        assert partition == brute_conjugacy(ctx, sigma)
    print("A7 sigma-conjugacy classification on GF(4), GF(8), GF(9) (exact): PASS")


def test_a8_signed_permutation():
    """A8: the signed swap of the 2x2 identity is [[0, -1], [1, 0]] bit-exactly,
    and determinant surrogates survive any 10 random signed swaps."""
    ring5 = ring_for(5, 1, 0)
    swapped = OreMatrix.identity(ring5, 2).row_swap_signed(0, 1)
    assert swapped.rows == (
        (ring5.zero(), ring5.constant(-1)),
        (ring5.one(), ring5.zero()),
    )
    ring = ring_for(3, 2, 1)
    rng = random.Random(108)
    for _ in range(50):
        n = rng.randrange(2, 5)
        m = OreMatrix(
            ring,
            [[rand_orepoly(ring, rng, 2) for _ in range(n)] for _ in range(n)],
        )
        shuffled = m
        for _ in range(10):
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            shuffled = shuffled.row_swap_signed(i, j)
        verdict = surrogates_equal(dieudonne_det(m), dieudonne_det(shuffled))
        assert verdict.agree
    print("A8 signed permutation invariance (exact + 50 matrices x 10 swaps): PASS")


def test_a9_euclidean_division():
    """A9: 10^4 random right divisions reconstruct a = q*b + r through the
    independent single-step multiplication oracle, with deg r < deg b."""
    ring = ring_for(2, 4, 1)
    rng = random.Random(109)
    for _ in range(10_000):
        a = rand_orepoly(ring, rng, 6)
        b = rand_orepoly_exact(ring, rng, rng.randrange(0, 5))
        q, r = a.right_divmod(b)
        assert r.degree < b.degree
        assert naive_ore_mul(q, b) + r == a
    print("A9 Euclidean right division (10^4 reconstructions, exact): PASS")


def test_a10_benchmark_artifact(capsys):
    """A10: the bench command agrees between methods on 100% of trials at
    GF(2^8), deg <= 3; timings are reported with no pass/fail threshold."""
    code = cli_main(
        [
            "bench", "--field", "GF(2^8)", "--sigma1", "1", "--sigma2", "1",
            "--trials", "10", "--deg-x1", "3", "--deg-x2", "3", "--seed", "110",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["trial", "method", "micros", "degree", "is_zero", "verdict"]
    body = rows[1:]
    assert len(body) == 20
    assert all(r[5] == "ok" for r in body)
    timing = {
        method: statistics.median(int(r[2]) for r in body if r[1] == method)
        for method in ("direct", "modular")
    }
    print(
        "A10 benchmark artifact (10/10 verdicts ok; median direct "
        f"{timing['direct']} us vs modular {timing['modular']} us, "
        "reported without threshold): PASS"
    )
