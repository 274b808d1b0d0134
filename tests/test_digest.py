"""Pinned output digest of a seeded elimination sweep.

One SHA-256 over the JSON form (representative, degree and op log) of
`res_x2_direct` and `res_x2_modular` on seeded pairs over GF(2^4), GF(3^4)
and GF(7), under every pivot rule, with sigma1 the identity and, where the
field has one, a nontrivial Frobenius power (GF(7) has only the identity).
The constant was recorded from the generic add/mul/frob skew-product loops,
before the log-domain kernel replaced them, so any change to a kernel that
alters a representative or an op log fails here.  A modular call that is
refused records its error code instead.

A second SHA-256 pins the modular route's intermediate outputs on the same
pairs, in both regimes: the plan's JSON form, both `check_bad_eval` flags,
and every packed chain value of `partial_evaluations` under each pivot rule.
It was recorded while the plug-in and Frobenius regimes still had separate
evaluation loops, so the single x1-action loop must reproduce both.
"""

import hashlib
import json
import random

from oreelim import (
    OreError,
    check_bad_eval,
    partial_evaluations,
    plan_modular,
    res_x2_direct,
    res_x2_modular,
)
from oreelim.skewdet import PIVOT_RULES
from support import bivar_for, rand_bivar

# (p, m, e1, e2): sigma1 = Frobenius(e1) acts on x1, sigma2 on x2
SWEEP = (
    (2, 4, 0, 1),
    (2, 4, 1, 3),
    (3, 4, 0, 2),
    (3, 4, 3, 1),
    (7, 1, 0, 0),
)
PAIRS = 6

DIGEST = "ce71569d07c302cc3de39fa2d12f1d141ce29779b80658937734af7c7737edf4"
INTERMEDIATE_DIGEST = "162f2b56baa8b4fe8ada7eb8f2bd6632c8c63a7fc0a289825661e1e0030709a4"


def _record(call, f, g, rule):
    try:
        return call(f, g, rule=rule, seed=5).to_jsonable()
    except OreError as exc:
        return {"error": exc.code}


def sweep_pairs():
    """((p, m, e1, e2), f, g) for every seeded pair of the sweep."""
    for p, m, e1, e2 in SWEEP:
        ring = bivar_for(p, m, e1, e2)
        rng = random.Random(f"digest/{p}/{m}/{e1}/{e2}")
        for _ in range(PAIRS):
            f = rand_bivar(ring, rng, 3, 3, min_d2=1)
            g = rand_bivar(ring, rng, 2, 2, min_d2=1)
            yield (p, m, e1, e2), f, g


def sweep_records():
    records = []
    for key, f, g in sweep_pairs():
        for rule in PIVOT_RULES:
            records.append(
                [
                    [*key, rule],
                    _record(res_x2_direct, f, g, rule),
                    _record(res_x2_modular, f, g, rule),
                ]
            )
    return records


def _chain_values(f, g, rule):
    try:
        _, evals = partial_evaluations(f, g, rule=rule, seed=5)
    except OreError as exc:
        return {"error": exc.code}
    return [pe.value.val for pe in evals]


def intermediate_records():
    records = []
    for key, f, g in sweep_pairs():
        plan = plan_modular(f, g)
        records.append(
            [
                list(key),
                plan.to_jsonable(),
                [check_bad_eval(f, plan), check_bad_eval(g, plan)],
                [_chain_values(f, g, rule) for rule in PIVOT_RULES],
            ]
        )
    return records


def _sha256(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_digest_is_pinned():
    assert _sha256(sweep_records()) == DIGEST


def test_intermediate_digest_is_pinned():
    assert _sha256(intermediate_records()) == INTERMEDIATE_DIGEST
